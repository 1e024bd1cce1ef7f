package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nsmac/internal/sweep"
)

// testDoc returns a small real grid: 2 algorithms × 2 patterns × 2 ns × 2 ks
// × 4 trials, against the registered standard cases.
func testDoc(t *testing.T) sweep.SpecDoc {
	t.Helper()
	doc, err := sweep.ParseSpecDoc([]byte(`{
		"name": "dispatch-test",
		"cases": ["wakeupc", "roundrobin"],
		"patterns": ["staggered:3", "simultaneous"],
		"ns": [32, 64], "ks": [2, 4],
		"trials": 4, "seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// wholeRender runs the document in one process and renders it.
func wholeRender(t *testing.T, doc sweep.SpecDoc, format string) string {
	t.Helper()
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Render(format)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanShards(t *testing.T) {
	doc := testDoc(t)
	plans, skipped, err := PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	if len(plans) != 3 {
		t.Fatalf("planned %d shards, want 3", len(plans))
	}
	for i, p := range plans {
		if p.Index != i || p.Count != 3 {
			t.Fatalf("plan %d has coordinates %d/%d", i, p.Index, p.Count)
		}
		if p.Fingerprint != plans[0].Fingerprint || p.Fingerprint == "" {
			t.Fatalf("plan %d fingerprint %q diverges", i, p.Fingerprint)
		}
	}
	if _, _, err := PlanShards(doc, 0); err == nil {
		t.Error("zero-shard plan accepted")
	}
	bad := doc
	bad.Trials = 0
	if _, _, err := PlanShards(bad, 2); err == nil {
		t.Error("unresolvable document accepted")
	}
}

// TestLocalExecutorMatchesRunShard: the Local executor produces exactly the
// envelope the in-process Spec.Shard call produces, and the merged set
// renders byte-identically to the one-process run.
func TestLocalExecutorMatchesRunShard(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	var envs []*sweep.ShardResult
	for _, plan := range plans {
		got, err := Local{Workers: 2}.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.Shard(plan.Index, plan.Count)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := got.Encode()
		wb, _ := want.Encode()
		if string(gb) != string(wb) {
			t.Fatalf("shard %d: executor envelope differs from Spec.Shard", plan.Index)
		}
		envs = append(envs, got)
	}

	merged, err := sweep.Merge(envs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		got, err := merged.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if want := wholeRender(t, doc, format); got != want {
			t.Errorf("%s render of merged local shards differs from one-process run", format)
		}
	}
}

func TestLocalExecutorHonorsCanceledContext(t *testing.T) {
	plans, _, err := PlanShards(testDoc(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Local{}).Run(ctx, plans[0]); err == nil {
		t.Error("canceled context did not stop the local executor")
	}
}

// TestLocalExecutorChecksFingerprint: a plan whose fingerprint is not the
// one its document compiles to runs nothing and names the mismatch.
func TestLocalExecutorChecksFingerprint(t *testing.T) {
	plans, _, err := PlanShards(testDoc(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := plans[1]
	plan.Fingerprint = strings.Repeat("0", len(plan.Fingerprint))
	env, err := (Local{}).Run(context.Background(), plan)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("envelope %v, error %v; want a fingerprint mismatch", env, err)
	}
}

// TestLocalCompileMemo: Local compiles each grid once per process and keeps
// one grid at a time, so two goroutines running every shard of document A,
// then B, then A again miss and hit the memo in every order. Each envelope
// must still be byte-identical to the uncached Spec.Shard output, and a warm
// memo must still refuse a plan whose fingerprint is not its document's:
// a tampered fingerprint on A's document, and B's document carrying A's
// fingerprint.
func TestLocalCompileMemo(t *testing.T) {
	docA := testDoc(t)
	docB := docA
	docB.Name = "dispatch-test-b"
	docB.Cases = []string{"beb", "rpd"}
	docB.Ks = []int{3}
	docB.Trials = 5

	type job struct {
		plan ShardPlan
		want []byte
	}
	jobsFor := func(doc sweep.SpecDoc) []job {
		plans, _, err := PlanShards(doc, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := doc.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]job, len(plans))
		for i, plan := range plans {
			want, err := spec.Shard(plan.Index, plan.Count)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = job{plan, wb}
		}
		return jobs
	}
	a, b := jobsFor(docA), jobsFor(docB)
	if a[0].plan.Fingerprint == b[0].plan.Fingerprint {
		t.Fatal("the two documents share a fingerprint")
	}
	sequence := append(append(append([]job(nil), a...), b...), a...)

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(sequence))
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range sequence {
				got, err := Local{Workers: w + 1}.Run(context.Background(), j.plan)
				if err != nil {
					errs <- fmt.Errorf("%s shard %d: %w", j.plan.Doc.Name, j.plan.Index, err)
					continue
				}
				gb, err := got.Encode()
				if err != nil {
					errs <- err
					continue
				}
				if !bytes.Equal(gb, j.want) {
					errs <- fmt.Errorf("%s shard %d: envelope differs from Spec.Shard", j.plan.Doc.Name, j.plan.Index)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	tampered := a[1].plan
	tampered.Fingerprint = strings.Repeat("0", len(tampered.Fingerprint))
	foreign := b[1].plan
	foreign.Fingerprint = a[1].plan.Fingerprint
	for _, bad := range []ShardPlan{tampered, foreign} {
		// Warm the memo with A's grid, then run the bad plan.
		if _, err := (Local{}).Run(context.Background(), a[0].plan); err != nil {
			t.Fatal(err)
		}
		if _, err := (Local{}).Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Errorf("%s with fingerprint %s: error %v, want a fingerprint mismatch",
				bad.Doc.Name, bad.Fingerprint, err)
		}
	}
}

// TestCommandExecutorStdout: the Command executor substitutes the plan into
// the argv template and decodes the envelope from the command's stdout.
func TestCommandExecutorStdout(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-compute real envelopes on disk; the "remote command" is cat.
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sr, err := spec.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sr.Fingerprint+"-"+envName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := Command{Argv: []string{"cat", filepath.Join(dir, "{fingerprint}-shard{i}of{m}.json")}}
	var envs []*sweep.ShardResult
	for _, plan := range plans {
		r, err := cmd.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, r)
	}
	merged, err := sweep.Merge(envs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	if want := wholeRender(t, doc, "text"); got != want {
		t.Error("command-executor merge differs from one-process run")
	}

	// Swapped coordinates: the command streams back a valid envelope for the
	// WRONG shard; the executor must refuse it.
	swapped := Command{Argv: []string{"cat", filepath.Join(dir, plans[0].Fingerprint+"-"+envName(1))}}
	if _, err := swapped.Run(context.Background(), plans[0]); err == nil {
		t.Error("envelope for the wrong shard accepted")
	}

	// A failing command surfaces its stderr tail.
	failing := Command{Argv: []string{"sh", "-c", "echo boom >&2; exit 3"}}
	if _, err := failing.Run(context.Background(), plans[0]); err == nil {
		t.Error("failing command accepted")
	}

	// Garbage on stdout is a decode error, not a crash.
	garbage := Command{Argv: []string{"echo", "not json"}}
	if _, err := garbage.Run(context.Background(), plans[0]); err == nil {
		t.Error("garbage stdout accepted")
	}

	if _, err := (Command{}).Run(context.Background(), plans[0]); err == nil {
		t.Error("empty template accepted")
	}
}

func envName(i int) string {
	return "shard" + string(rune('0'+i)) + "of2.json"
}

// TestCommandExecutorStdinSpec: without a {spec} placeholder the document is
// piped to the command's stdin (the ssh-friendly form).
func TestCommandExecutorStdinSpec(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := spec.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env := filepath.Join(t.TempDir(), "env.json")
	if err := os.WriteFile(env, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The command proves it received the document on stdin (cmp against the
	// encoded doc) before emitting the envelope.
	want, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(ref, want, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := Command{Argv: []string{"sh", "-c", "cmp -s - " + ref + " && cat " + env}}
	r, err := cmd.Run(context.Background(), plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Shard != 0 || r.Shards != 2 {
		t.Fatalf("wrong envelope: %d/%d", r.Shard, r.Shards)
	}
}

// TestCommandExecutorSpecFile: a {spec} placeholder switches the document
// from stdin to a temp file whose path is substituted into the argv.
func TestCommandExecutorSpecFile(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := spec.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env := filepath.Join(t.TempDir(), "env.json")
	if err := os.WriteFile(env, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The command proves {spec} resolves to a readable document file (grep
	// for the grid name) before emitting the envelope.
	cmd := Command{Argv: []string{"sh", "-c", `grep -q dispatch-test "$0" && cat "$1"`, "{spec}", env}}
	r, err := cmd.Run(context.Background(), plans[1])
	if err != nil {
		t.Fatal(err)
	}
	if r.Shard != 1 {
		t.Fatalf("wrong envelope: shard %d", r.Shard)
	}
}
