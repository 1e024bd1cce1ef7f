package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nsmac/internal/dispatch"
)

// WorkerEvent is one machine-readable progress record a Worker emits
// through its OnEvent hook — the payload behind `wakeup-bench work
// -progress json`.
type WorkerEvent struct {
	// Event is the record kind: "lease", "heartbeat_lost", "complete",
	// "duplicate", "fail", "idle", "exit".
	Event string `json:"event"`
	// Worker is the worker's self-assigned identity.
	Worker string `json:"worker"`
	// Lease/Campaign/Grid/Shard/Shards/Attempt locate the work (zero
	// values on idle/exit records).
	Lease    string `json:"lease,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	Grid     string `json:"grid,omitempty"`
	Shard    int    `json:"shard,omitempty"`
	Shards   int    `json:"shards,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	// Steal marks work leased off a straggler.
	Steal bool `json:"steal,omitempty"`
	// Error carries failure detail on "fail" records.
	Error string `json:"error,omitempty"`
	// Leases counts leases processed so far (on "exit").
	Leases int `json:"leases,omitempty"`
}

// Worker pulls leases from a campaign server and runs them through a
// dispatch.Executor. It owns the client-side half of the lease protocol:
// heartbeating while the shard runs, abandoning work when the server says
// the lease is lost, reporting executor failures for fast requeue, and
// polling politely when the queue is empty.
type Worker struct {
	// Client speaks to the campaign server (required).
	Client *Client
	// ID identifies this worker in leases and the attempt log.
	ID string
	// Exec runs leased shards; nil uses dispatch.Local{}.
	Exec dispatch.Executor
	// Poll is the idle sleep between empty lease requests (default 500ms).
	Poll time.Duration
	// MaxLeases stops the worker after that many granted leases (0 = run
	// until the context ends). Tests and bounded batch jobs use it.
	MaxLeases int
	// Hold, when non-zero, pauses after lease grant and before executing
	// the shard — a fault-injection window for kill-mid-lease tests (the
	// CI campaign-smoke job SIGKILLs a worker inside it).
	Hold time.Duration
	// OnEvent, when non-nil, receives progress records synchronously.
	OnEvent func(WorkerEvent)

	// plans memoizes the shard plans of the last grid leased, under
	// planKey: consecutive leases mostly come from one grid, and planning
	// resolves and compiles the whole spec document. Run handles one lease
	// at a time, so the memo needs no lock.
	planKey planKey
	plans   []dispatch.ShardPlan
}

// planKey identifies the grid a lease's plans were made for.
type planKey struct {
	campaign, grid, fingerprint string
	shards                      int
}

// Run pulls and executes leases until ctx is cancelled or MaxLeases is
// reached. An empty queue is not an error: the worker polls. The error is
// nil on a clean MaxLeases exit, ctx.Err() on cancellation, and the
// transport error if the server becomes unreachable. A Worker runs one
// lease at a time: Run must not be called on it concurrently.
func (w *Worker) Run(ctx context.Context) error {
	exec := w.Exec
	if exec == nil {
		exec = dispatch.Local{}
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	leases := 0
	defer func() {
		w.emit(WorkerEvent{Event: "exit", Worker: w.ID, Leases: leases})
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.Client.Lease(ctx, w.ID)
		if err != nil {
			return fmt.Errorf("campaign: worker %s: lease request: %w", w.ID, err)
		}
		if grant == nil {
			w.emit(WorkerEvent{Event: "idle", Worker: w.ID})
			if err := sleepCtx(ctx, poll); err != nil {
				return err
			}
			continue
		}
		leases++
		w.emit(WorkerEvent{
			Event: "lease", Worker: w.ID, Lease: grant.LeaseID,
			Campaign: grant.Campaign, Grid: grant.Grid,
			Shard: grant.Shard, Shards: grant.Shards,
			Attempt: grant.Attempt, Steal: grant.Steal,
		})
		w.runLease(ctx, exec, grant)
		if w.MaxLeases > 0 && leases >= w.MaxLeases {
			return nil
		}
	}
}

// runLease executes one granted shard: reconstruct the plan, cross-check
// the fingerprint, heartbeat in the background, run the executor, upload
// the envelope. Failures are reported to the server (best-effort) and the
// worker moves on — the lease queue owns retry policy, not the worker.
func (w *Worker) runLease(ctx context.Context, exec dispatch.Executor, grant *LeaseGrant) {
	plan, err := w.planFor(grant)
	if err != nil {
		w.failLease(ctx, grant, err)
		return
	}

	// Heartbeat until the shard finishes. lost is closed if the server
	// declares the lease gone — the executor's context is cancelled so the
	// worker stops burning CPU on a shard someone else now owns.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	hbDone := make(chan struct{})
	stop := make(chan struct{})
	lost := false
	interval := time.Duration(grant.LeaseSeconds * float64(time.Second) / 3)
	if interval <= 0 {
		interval = time.Second
	}
	//nsmac:nondeterminism-ok lease keep-alive goroutine; shard results never observe it, cancellation only stops wasted work
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-runCtx.Done():
				return
			case <-t.C:
				if err := w.Client.Heartbeat(runCtx, grant.LeaseID); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						lost = true
						w.emit(WorkerEvent{
							Event: "heartbeat_lost", Worker: w.ID, Lease: grant.LeaseID,
							Campaign: grant.Campaign, Grid: grant.Grid,
							Shard: grant.Shard, Shards: grant.Shards,
						})
						cancelRun()
						return
					}
					// Transient transport error: keep trying until the lease
					// really dies or the shard completes.
				}
			}
		}
	}()

	if w.Hold > 0 {
		// Fault-injection window: a worker killed here dies holding a live
		// lease, which is exactly what the expiry/re-lease tests need.
		sleepCtx(runCtx, w.Hold)
	}

	env, runErr := exec.Run(runCtx, plan)
	close(stop)
	<-hbDone

	if lost {
		// The server moved on; nothing to upload, nothing to report.
		return
	}
	if runErr != nil {
		w.failLease(ctx, grant, runErr)
		return
	}
	if err := dispatch.CheckEnvelope(env, plan); err != nil {
		w.failLease(ctx, grant, err)
		return
	}
	dup, err := w.Client.Complete(ctx, grant.LeaseID, env)
	switch {
	case errors.Is(err, ErrLeaseLost):
		// Expired between finish and upload; the shard re-runs elsewhere.
		w.emit(WorkerEvent{
			Event: "heartbeat_lost", Worker: w.ID, Lease: grant.LeaseID,
			Campaign: grant.Campaign, Grid: grant.Grid,
			Shard: grant.Shard, Shards: grant.Shards,
		})
	case err != nil:
		w.emit(WorkerEvent{
			Event: "fail", Worker: w.ID, Lease: grant.LeaseID,
			Campaign: grant.Campaign, Grid: grant.Grid,
			Shard: grant.Shard, Shards: grant.Shards, Error: err.Error(),
		})
	case dup:
		w.emit(WorkerEvent{
			Event: "duplicate", Worker: w.ID, Lease: grant.LeaseID,
			Campaign: grant.Campaign, Grid: grant.Grid,
			Shard: grant.Shard, Shards: grant.Shards,
		})
	default:
		w.emit(WorkerEvent{
			Event: "complete", Worker: w.ID, Lease: grant.LeaseID,
			Campaign: grant.Campaign, Grid: grant.Grid,
			Shard: grant.Shard, Shards: grant.Shards, Attempt: grant.Attempt,
		})
	}
}

// planFor reconstructs the dispatch.ShardPlan for a grant from its spec
// document, reusing the previous lease's plans when the grant is for the
// same grid, and cross-checks the server's fingerprint on every lease — a
// mismatch means server and worker disagree on planning and nothing should
// run.
func (w *Worker) planFor(grant *LeaseGrant) (dispatch.ShardPlan, error) {
	key := planKey{grant.Campaign, grant.Grid, grant.Fingerprint, grant.Shards}
	plans := w.plans
	if plans == nil || key != w.planKey {
		var err error
		plans, _, err = dispatch.PlanShards(grant.Doc, grant.Shards)
		if err != nil {
			return dispatch.ShardPlan{}, fmt.Errorf("campaign: worker cannot plan leased grid: %w", err)
		}
	}
	if grant.Shard < 0 || grant.Shard >= len(plans) {
		return dispatch.ShardPlan{}, fmt.Errorf("campaign: leased shard %d outside plan of %d", grant.Shard, len(plans))
	}
	plan := plans[grant.Shard]
	if plan.Fingerprint != grant.Fingerprint {
		return dispatch.ShardPlan{}, fmt.Errorf("campaign: fingerprint mismatch: server %s, worker %s (version skew?)",
			grant.Fingerprint, plan.Fingerprint)
	}
	w.planKey, w.plans = key, plans
	return plan, nil
}

// failLease reports a failed attempt (best-effort) and emits the event.
func (w *Worker) failLease(ctx context.Context, grant *LeaseGrant, cause error) {
	_ = w.Client.Fail(ctx, grant.LeaseID, cause)
	w.emit(WorkerEvent{
		Event: "fail", Worker: w.ID, Lease: grant.LeaseID,
		Campaign: grant.Campaign, Grid: grant.Grid,
		Shard: grant.Shard, Shards: grant.Shards,
		Attempt: grant.Attempt, Error: cause.Error(),
	})
}

func (w *Worker) emit(ev WorkerEvent) {
	if w.OnEvent != nil {
		w.OnEvent(ev)
	}
}

// sleepCtx sleeps for d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
