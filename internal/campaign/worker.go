package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// WorkerEvent is one machine-readable progress record a Worker emits
// through its OnEvent hook — the payload behind `wakeup-bench work
// -progress json`.
type WorkerEvent struct {
	// Event is the record kind: "lease", "heartbeat_lost", "complete",
	// "duplicate", "fail", "idle", "exit". A Driver adds "stored" for each
	// shard its store already held; a Worker never emits it.
	Event string `json:"event"`
	// Worker is the worker's self-assigned identity.
	Worker string `json:"worker"`
	// Lease/Campaign/Grid/Shard/Shards/Attempt locate the work (zero
	// values on idle/exit records). Every record about a shard has
	// Shards > 0 and carries "shard", shard 0 included.
	Lease    string `json:"lease,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	Grid     string `json:"grid,omitempty"`
	Shard    int    `json:"shard"`
	Shards   int    `json:"shards,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	// Steal marks work leased off a straggler.
	Steal bool `json:"steal,omitempty"`
	// Error carries failure detail on "fail" records.
	Error string `json:"error,omitempty"`
	// Leases counts leases processed so far (on "exit").
	Leases int `json:"leases,omitempty"`
}

// MarshalJSON writes a record about a shard with all its fields, and an
// idle or exit record (Shards == 0), which is about no shard, as its event,
// worker and lease count only.
func (ev WorkerEvent) MarshalJSON() ([]byte, error) {
	if ev.Shards > 0 {
		type record WorkerEvent // WorkerEvent without this method
		return json.Marshal(record(ev))
	}
	return json.Marshal(struct {
		Event  string `json:"event"`
		Worker string `json:"worker"`
		Leases int    `json:"leases,omitempty"`
	}{ev.Event, ev.Worker, ev.Leases})
}

// LeaseClient is the lease protocol as a Worker speaks it. *Client speaks
// it over HTTP; the Driver's workers speak it to a Server in the same
// process.
type LeaseClient interface {
	// Lease asks for one shard; no work available returns (nil, nil).
	Lease(ctx context.Context, worker string) (*LeaseGrant, error)
	// Heartbeat renews a lease; ErrLeaseLost means abandon the shard.
	Heartbeat(ctx context.Context, leaseID string) error
	// Complete hands in a shard's envelope; duplicate reports a shard
	// already completed by another lease.
	Complete(ctx context.Context, leaseID string, env *sweep.ShardResult) (duplicate bool, err error)
	// Fail reports a failed attempt so the shard requeues at once.
	Fail(ctx context.Context, leaseID string, cause error) error
}

// Worker pulls leases from a campaign server and runs them through a
// dispatch.Executor. It owns the client-side half of the lease protocol:
// heartbeating while the shard runs, abandoning work when the server says
// the lease is lost, reporting executor failures for fast requeue, and
// polling politely when the queue is empty.
type Worker struct {
	// Client speaks to the campaign server (required).
	Client LeaseClient
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

// runLease executes one granted shard: take the plan from the grant,
// heartbeat in the background, run the executor, check and upload the
// envelope. Failures are reported to the server (best-effort) and the
// worker moves on — the lease queue owns retry policy, not the worker.
func (w *Worker) runLease(ctx context.Context, exec dispatch.Executor, grant *LeaseGrant) {
	plan, err := planFor(grant)
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

// planFor is the plan the server made for a grant, as the grant carries
// it. Whether it describes the grid the executor computes is checked by
// the executor (Local compares fingerprints before any trial runs) and by
// CheckEnvelope on what comes back.
func planFor(grant *LeaseGrant) (dispatch.ShardPlan, error) {
	if grant.Shard < 0 || grant.Shard >= grant.Shards {
		return dispatch.ShardPlan{}, fmt.Errorf("campaign: leased shard %d outside plan of %d", grant.Shard, grant.Shards)
	}
	return dispatch.ShardPlan{
		Doc: grant.Doc, Fingerprint: grant.Fingerprint, Cells: grant.Cells,
		Index: grant.Shard, Count: grant.Shards,
	}, nil
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
