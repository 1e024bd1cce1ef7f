package campaign

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// Driver runs a spec document's whole shard plan as an in-process
// campaign: a Server holding the plan and Concurrency Workers leasing from
// it directly. Attempt caps, immediate retries, store resume and progress
// events are the campaign's own, so the merged result renders
// byte-identically to the one-process run.
type Driver struct {
	// Exec runs one shard; nil selects dispatch.Local{}.
	Exec dispatch.Executor
	// Store, when non-nil, persists every completed envelope with a
	// worker-tagged attempt log, and a shard whose stored envelope passes
	// the plan's checks is taken from it instead of run again.
	Store *dispatch.RunStore
	// MaxAttempts caps lease grants per shard (<= 0 selects 3).
	MaxAttempts int
	// Concurrency is the number of workers, and so of shards in flight
	// (<= 0 selects 1). With the Local executor each in-flight shard runs
	// its own trial pool, so the budgets multiply.
	Concurrency int
	// Progress, when non-nil, receives the workers' events and one "stored"
	// event per shard taken from the store. Calls are serialized.
	Progress func(WorkerEvent)
}

// Run executes the shards-shard plan for doc and merges the envelopes.
func (d *Driver) Run(ctx context.Context, doc sweep.SpecDoc, shards int) (*sweep.Result, error) {
	envs, err := d.RunShards(ctx, doc, shards)
	if err != nil {
		return nil, err
	}
	return sweep.Merge(envs...)
}

// RunShards executes the plan and returns its envelopes in shard order. It
// returns as soon as the grid completes or fails: the first shard out of
// attempts fails the run and cancels the shards in flight.
func (d *Driver) RunShards(ctx context.Context, doc sweep.SpecDoc, shards int) ([]*sweep.ShardResult, error) {
	if shards < 1 {
		return nil, fmt.Errorf("campaign: shard count %d, want >= 1", shards)
	}
	attempts := d.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	srv := NewServer(Options{Store: d.Store, MaxAttempts: attempts})
	const gridID = "grid"
	id, err := srv.Submit(SingleGrid("run", gridID, doc, shards))
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	// Every event follows a call into the server, so the grid is checked
	// after each one and the workers stop the moment it settles.
	onEvent := func(ev WorkerEvent) {
		if d.Progress != nil {
			mu.Lock()
			d.Progress(ev)
			mu.Unlock()
		}
		if slots, failed, _, _ := srv.envelopes(id, gridID); failed != "" || !slices.Contains(slots, nil) {
			cancel()
		}
	}
	slots, _, _, _ := srv.envelopes(id, gridID)
	for i, env := range slots {
		if env != nil {
			onEvent(WorkerEvent{Event: "stored", Campaign: id, Grid: gridID, Shard: i, Shards: shards})
		}
	}

	// Workers start only if the store left something to run. Over
	// serverClient a worker stops only when runCtx ends.
	var wg sync.WaitGroup
	for i := range min(max(d.Concurrency, 1), shards) {
		if runCtx.Err() != nil {
			break
		}
		w := &Worker{Client: serverClient{srv}, ID: fmt.Sprintf("driver-%d", i), Exec: d.Exec, OnEvent: onEvent}
		wg.Add(1)
		//nsmac:nondeterminism-ok in-process lease workers; each envelope lands in its own shard slot on the server, so no result sees the schedule
		go func() {
			defer wg.Done()
			_ = w.Run(runCtx)
		}()
	}
	wg.Wait()

	slots, failed, storeErr, err := srv.envelopes(id, gridID)
	switch {
	case err != nil:
		return nil, err
	case failed != "":
		return nil, fmt.Errorf("campaign: %s", failed)
	case slices.Contains(slots, nil):
		return nil, ctx.Err()
	case storeErr != "":
		return nil, fmt.Errorf("campaign: store: %s", storeErr)
	}
	return slots, nil
}

// serverClient speaks the lease protocol to a Server in this process.
type serverClient struct{ s *Server }

func (c serverClient) Lease(_ context.Context, worker string) (*LeaseGrant, error) {
	return c.s.Lease(worker)
}

func (c serverClient) Heartbeat(_ context.Context, leaseID string) error {
	_, err := c.s.Heartbeat(leaseID)
	return err
}

func (c serverClient) Complete(_ context.Context, leaseID string, env *sweep.ShardResult) (bool, error) {
	return c.s.Complete(leaseID, env)
}

func (c serverClient) Fail(_ context.Context, leaseID string, cause error) error {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	return c.s.Fail(leaseID, msg)
}
