package dispatch_test

// The shard Driver lives in internal/campaign, where it serves the plan from
// an in-process campaign Server; these tests drive it through the executors
// and the store of this package.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nsmac/internal/campaign"
	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

var (
	testDoc     = dispatch.DocForTest
	wholeRender = dispatch.WholeRenderForTest
)

// countingExec wraps an executor and counts dispatches per shard.
type countingExec struct {
	inner dispatch.Executor
	mu    sync.Mutex
	calls map[int]int
	// failFirst holds shard indices whose first attempt must fail.
	failFirst map[int]bool
}

func newCountingExec(inner dispatch.Executor) *countingExec {
	return &countingExec{inner: inner, calls: map[int]int{}, failFirst: map[int]bool{}}
}

func (c *countingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	c.mu.Lock()
	c.calls[plan.Index]++
	n := c.calls[plan.Index]
	c.mu.Unlock()
	if c.failFirst[plan.Index] && n == 1 {
		return nil, errors.New("injected first-attempt failure")
	}
	return c.inner.Run(ctx, plan)
}

func (c *countingExec) count(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[i]
}

// TestDriverMatchesSingleProcess: the acceptance criterion at the driver
// level — a 3-shard driver run with a store renders byte-identically to the
// one-process run in every format.
func TestDriverMatchesSingleProcess(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	var events []campaign.WorkerEvent
	d := &campaign.Driver{
		Exec:        dispatch.Local{Workers: 2},
		Store:       store,
		Concurrency: 3,
		Progress:    func(ev campaign.WorkerEvent) { events = append(events, ev) },
	}
	res, err := d.Run(context.Background(), doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		got, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if want := wholeRender(t, doc, format); got != want {
			t.Errorf("%s render differs from one-process run", format)
		}
	}

	// Every shard went lease → complete, and the store holds all three
	// envelopes plus one attempt line each.
	var leases, completes int
	for _, ev := range events {
		switch ev.Event {
		case "lease":
			leases++
		case "complete":
			completes++
		case "idle", "exit":
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if leases != 3 || completes != 3 {
		t.Fatalf("saw %d leases / %d completes, want 3/3", leases, completes)
	}
	plans, _, err := dispatch.PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		if _, err := store.Load(plan); err != nil {
			t.Errorf("shard %d not in store: %v", plan.Index, err)
		}
	}
	log, err := store.AttemptLog(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "\n"); n != 3 {
		t.Fatalf("attempt log has %d lines, want 3:\n%s", n, log)
	}
}

// TestDriverConcurrencyByteIdentical: two workers racing over three shards
// (run it under -race) merge to the one-process bytes, and the attempt log
// holds exactly one ok line per shard.
func TestDriverConcurrencyByteIdentical(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	d := &campaign.Driver{Exec: dispatch.Local{Workers: 1}, Store: store, Concurrency: 2}
	res, err := d.Run(context.Background(), doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		got, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if want := wholeRender(t, doc, format); got != want {
			t.Errorf("%s render differs from one-process run", format)
		}
	}
	plans, _, err := dispatch.PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.Attempts(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	ok := map[int]int{}
	for _, r := range recs {
		if !r.OK {
			t.Errorf("failed attempt %+v", r)
		}
		ok[r.Shard]++
	}
	if len(recs) != 3 || ok[0] != 1 || ok[1] != 1 || ok[2] != 1 {
		t.Fatalf("attempt log %+v, want one ok line per shard", recs)
	}
}

// TestDriverResumeRerunsOnlyMissing: after one envelope is destroyed (and
// another truncated as by a partial write), a run over the same store
// dispatches exactly the broken shards, and the final merge is unchanged.
func TestDriverResumeRerunsOnlyMissing(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	base := &campaign.Driver{Exec: dispatch.Local{}, Store: store}
	if _, err := base.Run(context.Background(), doc, 3); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0: deleted (killed before any write). Shard 2: truncated (what
	// a non-atomic writer would have left).
	if err := os.Remove(store.Path(plans[0])); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(plans[2]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[2]), data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	exec := newCountingExec(dispatch.Local{})
	var cached, started []int
	resumed := &campaign.Driver{
		Exec:  exec,
		Store: store,
		Progress: func(ev campaign.WorkerEvent) {
			switch ev.Event {
			case "stored":
				cached = append(cached, ev.Shard)
			case "lease":
				started = append(started, ev.Shard)
			}
		},
	}
	res, err := resumed.Run(context.Background(), doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(cached), "[1]"; got != want {
		t.Errorf("cached shards %v, want %v", got, want)
	}
	if exec.count(0) != 1 || exec.count(1) != 0 || exec.count(2) != 1 {
		t.Errorf("dispatch counts %v, want shard 1 untouched", exec.calls)
	}
	if len(started) != 2 {
		t.Errorf("started %v, want exactly the two broken shards", started)
	}

	got, err := res.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	if want := wholeRender(t, doc, "text"); got != want {
		t.Error("resumed merge differs from one-process run")
	}

	// The attempt log shows 3 original attempts + 2 resume attempts.
	log, err := store.AttemptLog(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "\n"); n != 5 {
		t.Fatalf("attempt log has %d lines, want 5:\n%s", n, log)
	}
}

// TestDriverRetries: a shard whose first attempt fails is retried up to the
// attempt cap and the run still succeeds; the failure surfaces as a fail
// event, not an error.
func TestDriverRetries(t *testing.T) {
	doc := testDoc(t)
	exec := newCountingExec(dispatch.Local{})
	exec.failFirst[1] = true
	var retries []campaign.WorkerEvent
	d := &campaign.Driver{
		Exec:        exec,
		MaxAttempts: 2,
		Progress: func(ev campaign.WorkerEvent) {
			if ev.Event == "fail" {
				retries = append(retries, ev)
			}
		},
	}
	res, err := d.Run(context.Background(), doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exec.count(1) != 2 {
		t.Errorf("shard 1 dispatched %d times, want 2", exec.count(1))
	}
	if len(retries) != 1 || retries[0].Shard != 1 || retries[0].Attempt != 1 {
		t.Errorf("retry events %+v", retries)
	}
	got, _ := res.Render("text")
	if want := wholeRender(t, doc, "text"); got != want {
		t.Error("retried run differs from one-process run")
	}
}

// TestDriverAttemptCap: a persistently failing shard exhausts its cap and
// fails the run with the underlying cause.
func TestDriverAttemptCap(t *testing.T) {
	exec := &failingExec{}
	var failed []campaign.WorkerEvent
	d := &campaign.Driver{
		Exec:        exec,
		MaxAttempts: 3,
		Progress: func(ev campaign.WorkerEvent) {
			if ev.Event == "fail" {
				failed = append(failed, ev)
			}
		},
	}
	_, err := d.Run(context.Background(), testDoc(t), 2)
	if err == nil {
		t.Fatal("run with a dead executor succeeded")
	}
	if !strings.Contains(err.Error(), "exhausted 3 lease attempts") || !strings.Contains(err.Error(), "executor is down") {
		t.Errorf("error %q does not name the cap and cause", err)
	}
	if len(failed) == 0 {
		t.Error("no fail event emitted")
	}
	if exec.count() != 3 {
		// Concurrency 1 and fail-fast: the first shard burns its 3
		// attempts, then the run aborts before dispatching shard 1.
		t.Errorf("executor dispatched %d times, want 3", exec.count())
	}
}

type failingExec struct {
	mu sync.Mutex
	n  int
}

func (f *failingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	return nil, errors.New("executor is down")
}

func (f *failingExec) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// TestDriverRejectsForeignEnvelope: an executor that answers with a valid
// envelope of a DIFFERENT grid is caught by the fingerprint check.
func TestDriverRejectsForeignEnvelope(t *testing.T) {
	doc := testDoc(t)
	foreign := doc
	foreign.Seed++
	d := &campaign.Driver{Exec: foreignExec{doc: foreign}, MaxAttempts: 1}
	_, err := d.Run(context.Background(), doc, 2)
	if err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign envelope not rejected: %v", err)
	}
}

type foreignExec struct{ doc sweep.SpecDoc }

func (f foreignExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	spec, err := f.doc.Resolve()
	if err != nil {
		return nil, err
	}
	return spec.Shard(plan.Index, plan.Count)
}

// TestDriverRejectsTruncatedCellList: an envelope with the right
// fingerprint and coordinates but a truncated cell array (which the
// envelope's own Validate cannot catch — it only loops over the cells
// present) is refused against the plan's cell count.
func TestDriverRejectsTruncatedCellList(t *testing.T) {
	doc := testDoc(t)
	d := &campaign.Driver{Exec: truncatingExec{}, MaxAttempts: 1}
	_, err := d.Run(context.Background(), doc, 2)
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("truncated cell list not rejected: %v", err)
	}

	// The same envelope is also unacceptable to a resume Load.
	store := &dispatch.RunStore{Dir: t.TempDir()}
	if _, err := (&campaign.Driver{Exec: dispatch.Local{}, Store: store}).Run(context.Background(), doc, 2); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := store.Load(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	full.Cells = full.Cells[:len(full.Cells)-1]
	data, err := full.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err == nil {
		t.Error("resume accepted an envelope missing cells")
	}
}

type truncatingExec struct{}

func (truncatingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	r, err := dispatch.Local{}.Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	r.Cells = r.Cells[:len(r.Cells)-1]
	return r, nil
}

// TestDriverCancellation: canceling the context stops the run promptly and
// reports the context error.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	d := &campaign.Driver{
		Exec:        blockingExec{block: block},
		MaxAttempts: 5,
		Concurrency: 2,
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx, testDoc(t), 2)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver did not stop after cancellation")
	}
	close(block)
}

type blockingExec struct{ block chan struct{} }

func (b blockingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.block:
		return nil, errors.New("unblocked without cancel")
	}
}
