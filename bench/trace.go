package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nsmac/internal/sim"
	"nsmac/sweep"
)

// This file is the traced pass: spans recorded from the benchmark's own
// files around its calls into each layer, layer-time and count accumulators
// fed by the same calls, and the Chrome trace-event writer. Nothing in the
// program under test is instrumented; every number is taken from outside.

// span is one recorded interval. Times are offsets from the trace epoch.
type span struct {
	id, parent int
	name       string
	workload   int // trace-file process: one per workload
	lane       int // trace-file thread: 0 the bench, 1.. campaign workers, cellLane cells
	rep        int
	start, end time.Duration
	args       map[string]any
}

// Trace-file lanes beside the bench's own (0) and the campaign workers'.
const (
	serverLane = 90
	cellLane   = 91
)

// traceLog collects the spans of every traced rep of one process; it is
// written once, at exit.
type traceLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTraceLog() *traceLog { return &traceLog{epoch: time.Now()} }

// tracer records one traced rep: its spans, and the per-layer time and count
// accumulators the per-layer metrics are computed from. A nil *tracer is an
// untraced rep: phase runs its function and records nothing, and no trial
// function or transport is wrapped.
type tracer struct {
	log      *traceLog
	workload int
	rep      int
	routes   []string // route of each grid cell

	mu     sync.Mutex
	secs   map[string]time.Duration
	counts map[string]int64
	cells  []cellAcc
}

func newTracer(log *traceLog, workload, rep int, routes []string) *tracer {
	return &tracer{
		log: log, workload: workload, rep: rep, routes: routes,
		secs: map[string]time.Duration{}, counts: map[string]int64{},
		cells: newCellAccs(len(routes)),
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.log.epoch) }

// start opens a span under parent (-1 for a root) on the given lane and
// returns its id.
func (t *tracer) start(name string, parent, lane int) int {
	now := t.now()
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	id := len(t.log.spans)
	t.log.spans = append(t.log.spans, span{
		id: id, parent: parent, name: name, workload: t.workload,
		lane: lane, rep: t.rep, start: now, end: -1,
	})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := t.now()
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	s := &t.log.spans[id]
	s.end = now
	return s.end - s.start
}

// laneOf returns the lane of span id, which its children inherit.
func (t *tracer) laneOf(id int) int {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return t.log.spans[id].lane
}

// add accumulates d into a layer's time.
func (t *tracer) add(layer string, d time.Duration) {
	t.mu.Lock()
	t.secs[layer] += d
	t.mu.Unlock()
}

// count accumulates n into an exact count.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// phase runs f inside a span named name under parent, adding its duration
// to layer (when non-empty); f gets the span's id to parent further spans.
// On an untraced rep it only runs f, with id -1.
func (t *tracer) phase(parent int, name, layer string, f func(id int) error) error {
	if t == nil {
		return f(-1)
	}
	id := t.start(name, parent, t.laneOf(parent))
	err := f(id)
	d := t.end(id)
	if layer != "" {
		t.add(layer, d)
	}
	return err
}

// execute runs a grid-executing call as the sweep.execute phase of a pool of
// the given trial-thread count, which sweep.pool_overhead_frac is measured
// against.
func (t *tracer) execute(parent, workers int, f func() error) error {
	if t == nil {
		return f()
	}
	start := t.now()
	err := t.phase(parent, "execute", "sweep.execute", func(int) error { return f() })
	t.add("sweep.worker_execute", time.Duration(workers)*(t.now()-start))
	return err
}

// wrap returns g with every trial timed into its cell's record. Untraced
// reps run g as compiled.
func (t *tracer) wrap(g sweep.Grid) sweep.Grid {
	if t == nil {
		return g
	}
	return timeCells(g, t.log.epoch, t.cells)
}

// cellAcc folds one cell's trials: count, busy time, slots, and the first
// start and last end, which bound the cell's span in the trace.
type cellAcc struct {
	trials, busy, slots atomic.Int64
	first, last         atomic.Int64 // ns since the trace epoch
}

func newCellAccs(n int) []cellAcc {
	cells := make([]cellAcc, n)
	for i := range cells {
		cells[i].first.Store(math.MaxInt64)
	}
	return cells
}

// timeCells wraps g's trial function so each trial folds into cells[cell].
// The samples it returns are the trial function's own, so the grid's output
// bytes do not change.
func timeCells(g sweep.Grid, epoch time.Time, cells []cellAcc) sweep.Grid {
	inner := g.RunEngine
	g.RunEngine = func(e *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
		start := time.Since(epoch)
		s := inner(e, cell, trial, seed)
		end := time.Since(epoch)
		c := &cells[cell]
		c.trials.Add(1)
		c.busy.Add(int64(end - start))
		c.slots.Add(slotsOf(s))
		for v := c.first.Load(); int64(start) < v && !c.first.CompareAndSwap(v, int64(start)); v = c.first.Load() {
		}
		for v := c.last.Load(); int64(end) > v && !c.last.CompareAndSwap(v, int64(end)); v = c.last.Load() {
		}
		return s
	}
	return g
}

// slotsOf counts the slots a trial resolved: its collisions and silences,
// plus the success that ended it.
func slotsOf(s sweep.Sample) int64 {
	n := s.Collisions + s.Silences
	if s.OK {
		n++
	}
	return n
}

// flushCells turns the cell records into one span per cell under parent and
// folds them into the route and sweep counts.
func (t *tracer) flushCells(parent int, labels [][]string) {
	for i := range t.cells {
		c := &t.cells[i]
		n := c.trials.Load()
		if n == 0 {
			continue
		}
		route := t.routes[i]
		busy := time.Duration(c.busy.Load())
		t.add(route+".busy", busy)
		t.add("sweep.trial_busy", busy)
		t.count(route+".trials", n)
		t.count(route+".slots", c.slots.Load())
		t.count("sweep.trials", n)
		t.count("sweep.slots", c.slots.Load())
		t.count("sweep.cells", 1)
		t.log.mu.Lock()
		t.log.spans = append(t.log.spans, span{
			id: len(t.log.spans), parent: parent, name: strings.Join(labels[i], " "),
			workload: t.workload, lane: cellLane, rep: t.rep,
			start: time.Duration(c.first.Load()), end: time.Duration(c.last.Load()),
			args: map[string]any{"route": route, "trials": n, "busy_ns": int64(busy), "slots": c.slots.Load()},
		})
		t.log.mu.Unlock()
	}
}

// layers computes the per-layer metrics of the traced rep from its
// accumulators: a count is its counter, and <layer>_frac is the time
// accumulated under <layer> per second of wall, the traced rep's wall time.
// speedup is the oracle's engine-over-kernel time ratio per route. The
// caller sets the trace.* times, which are scaled to reference speed.
func (t *tracer) layers(wall time.Duration, speedup map[string]float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, m := range perLayer {
		switch {
		case m.unit == "count":
			out[m.name] = float64(t.counts[m.name])
		case strings.HasSuffix(m.name, "_frac"):
			out[m.name] = t.secs[strings.TrimSuffix(m.name, "_frac")].Seconds() / wall.Seconds()
		default:
			out[m.name] = 0
		}
	}
	if we := t.secs["sweep.worker_execute"]; we > 0 {
		out["sweep.pool_overhead_frac"] = 1 - t.secs["sweep.trial_busy"].Seconds()/we.Seconds()
	}
	if d := t.secs["dispatch.driver"]; d > 0 {
		out["dispatch.driver_overhead_frac"] = (d - t.secs["dispatch.shard_exec"]).Seconds() / wall.Seconds()
	}
	for _, r := range routes {
		if b := t.secs[r+".busy"]; b > 0 {
			out[r+".slots_per_s"] = float64(t.counts[r+".slots"]) / b.Seconds()
		}
		out[r+".engine_speedup"] = speedup[r]
	}
	return out
}

// tracedExec runs a shard exactly as dispatch.Local does — resolve the
// document, compile the grid with the worker budget, run the shard — with
// each step timed and the grid's trials folded into the tracer's cells.
type tracedExec struct {
	t       *tracer
	parent  int
	lane    int
	workers int
}

func (x tracedExec) Run(ctx context.Context, plan sweep.ShardPlan) (*sweep.ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := x.t
	id := t.start(fmt.Sprintf("shard %d", plan.Index), x.parent, x.lane)
	defer func() { t.add("dispatch.shard_exec", t.end(id)) }()
	var spec sweep.Spec
	if err := t.phase(id, "resolve", "sweep.resolve", func(int) (err error) {
		spec, err = plan.Doc.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	spec.Workers = x.workers
	var g sweep.Grid
	if err := t.phase(id, "compile", "sweep.compile", func(int) (err error) {
		g, _, err = spec.Compile()
		return err
	}); err != nil {
		return nil, err
	}
	var env *sweep.ShardResult
	err := t.execute(id, x.workers, func() (err error) {
		env, err = t.wrap(g).RunShard(plan.Index, plan.Count)
		return err
	})
	return env, err
}

// rpcTimer is the campaign workers' http.RoundTripper on the traced rep: it
// times lease and complete round trips and counts the envelope bytes sent.
type rpcTimer struct {
	t      *tracer
	base   http.RoundTripper
	parent int
	lane   int
}

func (x rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	var name string
	switch {
	case req.URL.Path == "/v1/lease":
		name = "lease"
	case strings.HasSuffix(req.URL.Path, "/complete"):
		name = "complete"
		x.t.count("campaign.envelope_bytes", req.ContentLength)
	default:
		return x.base.RoundTrip(req)
	}
	id := x.t.start(name, x.parent, x.lane)
	resp, err := x.base.RoundTrip(req)
	x.t.add("campaign."+name, x.t.end(id))
	return resp, err
}

// serverTimer wraps the campaign handler on the traced rep, timing the
// server side of every complete call.
func serverTimer(t *tracer, parent int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/complete") {
			h.ServeHTTP(w, r)
			return
		}
		id := t.start("complete", parent, serverLane)
		h.ServeHTTP(w, r)
		t.add("campaign.complete_server", t.end(id))
	})
}

// traceEvent is one Chrome trace-event ("X" is a complete event; times in
// microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders every span as Chrome trace-event JSON to path.
func (l *traceLog) write(path string, workloads []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	events := make([]traceEvent, 0, len(l.spans)+len(workloads))
	for i, name := range workloads {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": name}})
	}
	for _, s := range l.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "rep": s.rep}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: s.workload + 1, Tid: s.lane, Args: args,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
