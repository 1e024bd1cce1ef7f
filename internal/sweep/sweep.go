// Package sweep is the repository's grid orchestrator: it takes a declarative
// spec of experiment cells (algorithm × wake-pattern family × n × k × trials),
// shards the cells over a bounded goroutine worker pool, runs every trial with
// a per-(cell, trial) RNG stream derived via rng.Derive, and streams the
// outcomes into mergeable stats.Aggregate values, which render as aligned
// text, CSV, or JSON.
//
// The package's hard guarantee is reproducibility: a grid's output is
// byte-identical for a given seed whether it runs with one worker or
// GOMAXPROCS. Two design rules enforce it. First, every trial's seed is a
// pure function of (grid seed, cell index, trial index), never of scheduling
// order. Second, every sample lands at its (cell, trial) index, and
// aggregation and rendering walk cells and trials in declaration order after
// the pool drains — so the worker pool only decides *when* a trial runs,
// never what it computes or where its result goes.
//
// Two layers are exposed. Grid is the low-level unit: an explicit cell list
// plus a trial function, for drivers with bespoke per-cell logic (adversary
// searches, conflict-resolution runs, ablations). Spec is the declarative
// layer used by the experiment tables and the cmd/ tools: it enumerates
// algorithm cases × pattern generators × channel models × {n, k} axes,
// compiles to a Grid, and runs each cell through a pooled simulation engine.
//
// # Batching and the engine pool
//
// The execution unit is not a single trial but a batch: each work item sent
// to the pool is a contiguous run of up to Batch trials of one cell (default
// max(1, Trials/(8·workers)), so every worker sees several items and tiny
// trials amortize the channel send, the modulo bookkeeping and the scheduler
// wakeup across the batch. Batching is invisible in the output — each
// trial's seed still derives from (Seed, cell, trial), never from the batch
// geometry, so any batch size reproduces the same bytes.
//
// Each worker owns one reusable sim.Engine for the grid's lifetime and hands
// it to every trial it runs. A trial that simulates runs through that
// engine's Reset/Run lifecycle, which recycles the station table, transmit
// buffers and channel between trials — a trial costs only the schedule
// closures the algorithm itself builds. Trials that do not simulate on it
// (family-size counts, adversary searches that own their engines) ignore it.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/stats"
)

// Sample is one trial's outcome inside a cell.
type Sample struct {
	// OK reports whether the trial resolved before its horizon.
	OK bool
	// Rounds is the trial's cost measure (the paper's t − s, or the horizon
	// on failure).
	Rounds int64
	// Collisions, Silences, Transmissions and Listens are the run's waste
	// and energy counters (effective slot outcomes; energy = transmissions
	// plus listening slots).
	Collisions    int64
	Silences      int64
	Transmissions int64
	Listens       int64
	// Winner is the station that transmitted alone (0 if none).
	Winner int
	// SuccessSlot is the global slot of the first success (-1 if none).
	SuccessSlot int64
	// Aux carries one driver-defined extra metric (e.g. spoiled successes,
	// full-enumeration slots). Zero when unused.
	Aux int64
}

// EngineTrialFunc runs trial `trial` of cell `cell` with its derived seed
// and returns the outcome. Implementations must be deterministic in their
// arguments and safe for concurrent invocation: the pool shards batches of
// (cell, trial) work, so two trials of the same cell may run at once.
//
// e is the calling worker's pooled engine; a trial that simulates runs on it
// (Reset it, then Run it), and any other trial ignores it. The engine is
// reused across every trial the worker executes, so the implementation must
// not retain it — or anything reached through it, like the channel
// transcript — past the call.
type EngineTrialFunc func(e *sim.Engine, cell, trial int, seed uint64) Sample

// Grid is the low-level sweep unit: an explicit list of cells, each run for
// Trials trials by RunEngine.
type Grid struct {
	// Name labels the grid in rendered output.
	Name string
	// Axes names the coordinate columns, aligned with each cell's labels.
	Axes []string
	// Cells holds one label tuple per cell (len(Cells[i]) == len(Axes)).
	Cells [][]string
	// Trials is the per-cell trial count (>= 1).
	Trials int
	// Seed keys every derived stream; identical seeds reproduce the grid
	// byte-for-byte at any worker count and any batch size.
	Seed uint64
	// Workers bounds the goroutine pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Batch caps how many trials of one cell a single work item executes
	// (<= 0 selects max(1, Trials/(8·workers))). Batching amortizes pool
	// overhead; it never changes results, because trial seeds derive from
	// (Seed, cell, trial) regardless of batch geometry.
	Batch int
	// RunEngine executes one trial, handed the worker's pooled engine.
	RunEngine EngineTrialFunc
}

// CellResult pairs a cell's coordinates with its trial outcomes.
type CellResult struct {
	// Cell is the label tuple, aligned with Result.Axes.
	Cell []string
	// Samples holds the per-trial outcomes in trial order.
	Samples []Sample
	// Agg is the cell's streamed aggregate (rounds distribution, waste and
	// energy counters, success rate).
	Agg stats.Aggregate
}

// Result is a completed sweep.
type Result struct {
	Name  string
	Axes  []string
	Cells []CellResult
}

// CellSeed returns the derived RNG stream key for a cell, from which each
// trial derives its own stream. Exposed so reference implementations (tests)
// can reproduce the orchestrator's seeding exactly.
func CellSeed(gridSeed uint64, cell int) uint64 {
	return rng.Derive(gridSeed, uint64(cell))
}

// TrialSeed returns the derived seed for one (cell, trial) pair.
func TrialSeed(gridSeed uint64, cell, trial int) uint64 {
	return rng.Derive(CellSeed(gridSeed, cell), uint64(trial))
}

// Validate checks the grid is runnable.
func (g Grid) Validate() error {
	if g.RunEngine == nil {
		return errors.New("sweep: nil trial function")
	}
	if g.Trials < 1 {
		return fmt.Errorf("sweep: %d trials, want >= 1", g.Trials)
	}
	for i, c := range g.Cells {
		if len(c) != len(g.Axes) {
			return fmt.Errorf("sweep: cell %d has %d labels for %d axes", i, len(c), len(g.Axes))
		}
	}
	return nil
}

// batchSize resolves the effective trial batch size for a worker count.
func (g Grid) batchSize(workers int) int {
	b := g.Batch
	if b <= 0 {
		b = g.Trials / (8 * workers)
	}
	if b < 1 {
		b = 1
	}
	if b > g.Trials {
		b = g.Trials
	}
	return b
}

// cellCounters is one cell's concurrently-accumulated aggregate counters.
// Workers add their batch-local sums once per claimed work item; integer
// addition is commutative and exact, so the totals are independent of the
// schedule. The per-trial round samples are NOT here — they land in a flat
// arena at their (cell, trial) index, preserving trial order.
type cellCounters struct {
	successes     atomic.Int64
	collisions    atomic.Int64
	silences      atomic.Int64
	transmissions atomic.Int64
	listens       atomic.Int64
}

// Execute runs the grid: work items — batches of up to Batch consecutive
// trials of one cell — are sharded over the worker pool, and each trial runs
// with a seed derived from (Seed, cell, trial). Every sample lands at its
// (cell, trial) index, so neither the schedule nor the batch geometry ever
// influences the result.
//
// Aggregation is folded into the workers: each batch accumulates its counter
// sums locally and publishes them with one atomic add per counter, and each
// trial writes its round sample straight into the cell's aggregate slot in
// trial order. The post-drain pass therefore only assembles per-cell
// Aggregate headers — it no longer re-walks every sample — and the output is
// bit-identical to the former walk: same counter totals (exact integer
// sums), same Rounds values in the same (trial) order.
func (g Grid) Execute() (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Name: g.Name, Axes: g.Axes, Cells: make([]CellResult, len(g.Cells))}
	// One flat sample arena (and one rounds arena), subsliced per cell: a
	// grid costs O(1) result allocations instead of one per cell.
	arena := make([]Sample, len(g.Cells)*g.Trials)
	rounds := make([]float64, len(g.Cells)*g.Trials)
	for ci, labels := range g.Cells {
		res.Cells[ci] = CellResult{Cell: labels, Samples: arena[ci*g.Trials : (ci+1)*g.Trials : (ci+1)*g.Trials]}
	}
	if len(g.Cells) == 0 {
		return res, nil
	}

	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := g.batchSize(workers)
	perCell := (g.Trials + batch - 1) / batch // batches per cell
	items := len(g.Cells) * perCell
	if workers > items {
		workers = items
	}
	counters := make([]cellCounters, len(g.Cells))

	// Work items are claimed off an atomic cursor rather than a channel: a
	// claim is one fetch-add, so at high worker counts tiny trials no longer
	// serialize on channel sends (and the item buffer allocation is gone).
	var cursor atomic.Int64
	var wg sync.WaitGroup
	// A worker's panic is recovered and raised again on the caller once
	// every worker has stopped, so no result is returned from a grid whose
	// trials did not all run. The first panic value wins.
	var failure sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failure.Do(func() { panicked = r })
					cursor.Store(int64(items)) // the other workers stop claiming
				}
			}()
			eng := sim.NewEngine()
			for {
				item := int(cursor.Add(1)) - 1
				if item >= items {
					return
				}
				ci := item / perCell
				lo := (item % perCell) * batch
				hi := lo + batch
				if hi > g.Trials {
					hi = g.Trials
				}
				var succ, col, sil, tx, lis int64
				for trial := lo; trial < hi; trial++ {
					s := g.RunEngine(eng, ci, trial, TrialSeed(g.Seed, ci, trial))
					res.Cells[ci].Samples[trial] = s
					rounds[ci*g.Trials+trial] = float64(s.Rounds)
					if s.OK {
						succ++
					}
					col += s.Collisions
					sil += s.Silences
					tx += s.Transmissions
					lis += s.Listens
				}
				c := &counters[ci]
				c.successes.Add(succ)
				c.collisions.Add(col)
				c.silences.Add(sil)
				c.transmissions.Add(tx)
				c.listens.Add(lis)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	for ci := range res.Cells {
		c := &counters[ci]
		res.Cells[ci].Agg = stats.Aggregate{
			Trials:        g.Trials,
			Successes:     int(c.successes.Load()),
			Rounds:        rounds[ci*g.Trials : (ci+1)*g.Trials : (ci+1)*g.Trials],
			Collisions:    c.collisions.Load(),
			Silences:      c.silences.Load(),
			Transmissions: c.transmissions.Load(),
			Listens:       c.listens.Load(),
		}
	}
	return res, nil
}

// Totals merges every cell aggregate in declaration order.
func (r *Result) Totals() stats.Aggregate {
	var total stats.Aggregate
	for _, c := range r.Cells {
		total.Merge(c.Agg)
	}
	return total
}
