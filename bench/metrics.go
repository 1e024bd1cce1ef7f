package main

import (
	"math"
	"slices"
)

// metric declares one reported number. BENCHMARK.json at the repository root
// declares the same names; bench_test.go keeps the two in step.
type metric struct {
	name string
	unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; a spread
	// wider than it prints the metric as unresolved. Per-layer metrics have
	// no bound.
	bound float64
}

// endToEnd are the metrics a user of the system sees, measured on the
// untraced reps. Every workload reports each of them, and none is ever 0.
// setup_s and wall_s are wall times scaled to reference speed
// (reference.go). The scaling leaves up to 16 % of a slowdown of the shared
// host in them, so they get the widest bound; allocation does not depend on
// the machine's speed at all.
var endToEnd = []metric{
	{"setup_s", "s", 0.25},
	{"wall_s", "s", 0.25},
	{"alloc_mb", "MB", 0.10},
}

// routes are the kernel executors a SpecDoc cell can route to, named as in
// the per-layer metrics. No workload cell routes to the slot-by-slot engine;
// the engine runs only in the oracle shard that gives <route>.engine_speedup.
var routes = []string{"kernel_memo", "kernel_seeded", "kernel_epoch"}

// perLayer are the metrics of single layers, measured on the traced rep.
// Every workload reports each of them. A layer time is reported as a _frac:
// seconds spent in the layer per second of the traced rep's wall time, so
// a layer the campaign's two workers are in at once can pass 1. A layer the
// workload does not exercise reads 0. trace.wall_s and trace.overhead_s are
// scaled to reference speed like the end-to-end times.
var perLayer = func() []metric {
	ms := []metric{
		{name: "trace.wall_s", unit: "s"},
		{name: "trace.overhead_s", unit: "s"},
		{name: "experiments.T5_frac", unit: "s/s"},
		{name: "experiments.T6_frac", unit: "s/s"},
		{name: "experiments.other_frac", unit: "s/s"},
		{name: "sweep.parse_frac", unit: "s/s"},
		{name: "sweep.resolve_frac", unit: "s/s"},
		{name: "sweep.compile_frac", unit: "s/s"},
		{name: "sweep.execute_frac", unit: "s/s"},
		{name: "sweep.merge_frac", unit: "s/s"},
		{name: "sweep.render_frac", unit: "s/s"},
		{name: "sweep.pool_overhead_frac", unit: "s/s"},
		{name: "sweep.cells", unit: "count"},
		{name: "sweep.trials", unit: "count"},
		{name: "sweep.slots", unit: "count"},
	}
	for _, r := range routes {
		ms = append(ms,
			metric{name: r + ".busy_frac", unit: "s/s"},
			metric{name: r + ".trials", unit: "count"},
			metric{name: r + ".slots", unit: "count"},
			metric{name: r + ".slots_per_s", unit: "1/s"},
			metric{name: r + ".engine_speedup", unit: "x"},
		)
	}
	return append(ms,
		metric{name: "dispatch.shard_exec_frac", unit: "s/s"},
		metric{name: "dispatch.driver_overhead_frac", unit: "s/s"},
		metric{name: "campaign.lease_frac", unit: "s/s"},
		metric{name: "campaign.complete_frac", unit: "s/s"},
		metric{name: "campaign.complete_server_frac", unit: "s/s"},
		metric{name: "campaign.results_frac", unit: "s/s"},
		metric{name: "campaign.lease_attempts", unit: "count"},
		metric{name: "campaign.duplicates", unit: "count"},
		metric{name: "campaign.envelope_bytes", unit: "count"},
	)
}()

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so the spreads printed here match the ones a reader computes
// from the same samples. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	if len(d) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
