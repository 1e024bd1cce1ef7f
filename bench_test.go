// Benchmarks: one per experiment table/figure (T1…T12, see README.md), plus
// the micro-benchmarks for the hot substrate paths. Each table benchmark
// times a representative cell of its experiment (the full sweeps live in
// internal/experiments and are regenerated by cmd/wakeup-bench); the
// "rounds" metric reports the measured wake-up cost so shapes are visible
// in benchmark output.
//
//	go test -bench=. -benchmem
package nsmac

import (
	"fmt"
	"runtime"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/bitset"
	"nsmac/internal/channel"
	"nsmac/internal/core"
	"nsmac/internal/experiments"
	"nsmac/internal/matrix"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
	"nsmac/internal/trace"
)

// benchRun executes one simulation per iteration (varying the seed) and
// reports the mean rounds as a custom metric.
func benchRun(b *testing.B, algo model.Algorithm, p model.Params,
	mkPattern func(seed uint64) model.WakePattern, horizon int64) {
	b.Helper()
	var totalRounds int64
	for i := 0; i < b.N; i++ {
		seed := rng.Derive(0xbe7c4, uint64(i))
		pp := p
		pp.Seed = seed
		w := mkPattern(seed)
		res, _, err := sim.Run(algo, pp, w, sim.Options{Horizon: horizon, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Succeeded {
			b.Fatalf("%s failed within %d slots", algo.Name(), horizon)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
}

// BenchmarkT1LowerBound times one full swap-adversary search (Theorem 2.1)
// against round-robin.
func BenchmarkT1LowerBound(b *testing.B) {
	for _, nk := range [][2]int{{64, 16}, {256, 32}} {
		n, k := nk[0], nk[1]
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			rr := core.NewRoundRobin()
			var forced int64
			for i := 0; i < b.N; i++ {
				p := model.Params{N: n, S: -1, Seed: rng.Derive(11, uint64(i))}
				res := adversary.Swap(rr, p, k, rr.Horizon(n, k), false)
				forced += res.ForcedRounds + 1
			}
			b.ReportMetric(float64(forced)/float64(b.N), "forced-slots/op")
		})
	}
}

// BenchmarkT2WakeupWithS measures Scenario A wake-up (simultaneous at s).
func BenchmarkT2WakeupWithS(b *testing.B) {
	for _, nk := range [][2]int{{256, 4}, {1024, 16}, {4096, 64}} {
		n, k := nk[0], nk[1]
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			p := model.Params{N: n, S: 0}
			benchRun(b, core.NewWakeupWithS(), p, func(seed uint64) model.WakePattern {
				return model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
			}, core.WakeupWithSHorizon(n, k))
		})
	}
}

// BenchmarkT3WakeupWithK measures Scenario B wake-up (staggered wakes).
func BenchmarkT3WakeupWithK(b *testing.B) {
	for _, nk := range [][2]int{{256, 4}, {1024, 16}, {4096, 64}} {
		n, k := nk[0], nk[1]
		gen := adversary.Staggered(0, 7)
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			p := model.Params{N: n, K: k, S: -1}
			benchRun(b, core.NewWakeupWithK(), p, func(seed uint64) model.WakePattern {
				return gen.Generate(model.WakePattern{}, n, k, seed)
			}, core.WakeupWithKHorizon(n, k))
		})
	}
}

// BenchmarkT4WakeupC measures Scenario C wake-up (staggered wakes).
func BenchmarkT4WakeupC(b *testing.B) {
	for _, nk := range [][2]int{{256, 4}, {1024, 16}, {4096, 32}} {
		n, k := nk[0], nk[1]
		gen := adversary.Staggered(0, 7)
		a := core.NewWakeupC()
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			p := model.Params{N: n, S: -1}
			benchRun(b, a, p, func(seed uint64) model.WakePattern {
				return gen.Generate(model.WakePattern{}, n, k, seed)
			}, a.Horizon(n, k))
		})
	}
}

// BenchmarkT5RPD measures the randomized baselines.
func BenchmarkT5RPD(b *testing.B) {
	n, k := 4096, 16
	b.Run("ell=2logn", func(b *testing.B) {
		a := core.NewRPD()
		benchRun(b, a, model.Params{N: n, S: -1}, func(seed uint64) model.WakePattern {
			return model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
		}, a.Horizon(n, k))
	})
	b.Run("ell=2logk", func(b *testing.B) {
		a := core.NewRPDWithK()
		benchRun(b, a, model.Params{N: n, K: k, S: -1}, func(seed uint64) model.WakePattern {
			return model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
		}, a.Horizon(n, k))
	})
}

// BenchmarkT6Comparison runs every deterministic algorithm on the shared
// head-to-head workload (n=1024, k=16, simultaneous).
func BenchmarkT6Comparison(b *testing.B) {
	n, k := 1024, 16
	mk := func(seed uint64) model.WakePattern {
		return model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
	}
	wc := core.NewWakeupC()
	cases := []struct {
		name    string
		algo    model.Algorithm
		p       model.Params
		horizon int64
	}{
		{"round_robin", core.NewRoundRobin(), model.Params{N: n, S: -1}, core.NewRoundRobin().Horizon(n, k)},
		{"wakeup_with_s", core.NewWakeupWithS(), model.Params{N: n, S: 0}, core.WakeupWithSHorizon(n, k)},
		{"wakeup_with_k", core.NewWakeupWithK(), model.Params{N: n, K: k, S: -1}, core.WakeupWithKHorizon(n, k)},
		{"wakeup_n", wc, model.Params{N: n, S: -1}, wc.Horizon(n, k)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchRun(b, c.algo, c.p, mk, c.horizon)
		})
	}
}

// BenchmarkT7FamilySizes times selective-family construction and membership.
func BenchmarkT7FamilySizes(b *testing.B) {
	n, i := 65536, 6 // k = 64
	b.Run("random/construct+probe", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			f := selectors.NewRandomPow2(n, i, uint64(it))
			// probe a row of memberships
			for id := 1; id <= 64; id++ {
				_ = f.Member(int64(id)%f.Length(), id)
			}
		}
	})
	b.Run("kautz-singleton/construct+probe", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			f := selectors.NewKautzSingleton(n, 64)
			for id := 1; id <= 64; id++ {
				_ = f.Member(int64(id)%f.Length(), id)
			}
		}
	})
}

// BenchmarkT8Ablations times the ablated variants against the originals on
// the same workload (n=256, k=8, staggered).
func BenchmarkT8Ablations(b *testing.B) {
	n, k := 256, 8
	gen := adversary.Staggered(0, 3)
	mk := func(seed uint64) model.WakePattern { return gen.Generate(model.WakePattern{}, n, k, seed) }

	wag := core.NewWaitAndGo()
	b.Run("wait_and_go/standard", func(b *testing.B) {
		benchRun(b, wag, model.Params{N: n, K: k, S: -1}, mk, wag.Horizon(n, k))
	})
	b.Run("wakeup_n/c=1", func(b *testing.B) {
		a := &core.WakeupC{C: 1}
		benchRun(b, a, model.Params{N: n, S: -1}, mk, a.Horizon(n, k))
	})
	b.Run("wakeup_n/c=4", func(b *testing.B) {
		a := &core.WakeupC{C: 4}
		benchRun(b, a, model.Params{N: n, S: -1}, mk, a.Horizon(n, k))
	})
}

// BenchmarkT9ConflictResolution times the KG extension to full resolution.
func BenchmarkT9ConflictResolution(b *testing.B) {
	n, k := 256, 16
	a := core.NewKGConflictResolution()
	var total int64
	for i := 0; i < b.N; i++ {
		seed := rng.Derive(0x99, uint64(i))
		p := model.Params{N: n, K: k, S: -1, Seed: seed}
		w := model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
		all, err := sim.NewEngine().RunAll(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if !all.Succeeded {
			b.Fatal("conflict resolution failed")
		}
		total += all.Slots
	}
	b.ReportMetric(float64(total)/float64(b.N), "slots/op")
}

// BenchmarkT10TreeCD times binary splitting under collision detection.
func BenchmarkT10TreeCD(b *testing.B) {
	n, k := 1024, 32
	a := core.NewTreeCD()
	var total int64
	for i := 0; i < b.N; i++ {
		seed := rng.Derive(0x10a, uint64(i))
		p := model.Params{N: n, S: -1, Seed: seed}
		w := model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
		res, _, err := sim.Run(a, p, w, sim.Options{
			Horizon: a.Horizon(n, k), Adaptive: true, Channel: model.CD(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Succeeded {
			b.Fatal("tree_cd failed")
		}
		total += res.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// BenchmarkT11SeedRobustness times one seed-trial of the waking matrix
// (construction is implicit; the cost is the simulation under a new seed).
func BenchmarkT11SeedRobustness(b *testing.B) {
	n, k := 256, 8
	a := core.NewWakeupC()
	gen := adversary.Staggered(0, 3)
	var total int64
	for i := 0; i < b.N; i++ {
		seed := rng.Derive(0x511, uint64(i))
		p := model.Params{N: n, S: -1, Seed: seed}
		w := gen.Generate(model.WakePattern{}, n, k, rng.Derive(seed, 5))
		res, _, err := sim.Run(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Succeeded {
			b.Fatalf("seed %d failed — w.h.p. substitution broken", seed)
		}
		total += res.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// BenchmarkT12ClockSkew compares wakeup(n) at large k with and without
// per-station clock skew — the §7 global-clock conjecture, timed.
func BenchmarkT12ClockSkew(b *testing.B) {
	n, k := 256, 64
	base := core.NewWakeupC()
	for _, skew := range []int64{0, 2048} {
		var algo model.Algorithm = base
		if skew > 0 {
			algo = core.NewClockSkewed(core.NewWakeupC(), skew)
		}
		b.Run(fmt.Sprintf("skew=%d", skew), func(b *testing.B) {
			benchRun(b, algo, model.Params{N: n, S: -1}, func(seed uint64) model.WakePattern {
				return model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
			}, 8*base.Horizon(n, k))
		})
	}
}

// BenchmarkF1F2Render times the Figure 1/2 matrix renderings.
func BenchmarkF1F2Render(b *testing.B) {
	spec := matrix.NewSpec(1024, 1, 7)
	ids := []int{5, 100, 900}
	wakes := []int64{0, 9, 17}
	b.Run("F1/rowscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = trace.RowScan(spec, ids, wakes, 0, 400, 25)
		}
	})
	b.Run("F2/column-alignment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = trace.ColumnAlignment(spec, ids, wakes, 123)
		}
	})
}

// BenchmarkQuickTables regenerates each experiment table in quick mode —
// the end-to-end harness cost. T5 and T6, the seeded-schedule tables, are
// most of the quick run.
func BenchmarkQuickTables(b *testing.B) {
	for _, e := range experiments.All() {
		exp := e
		b.Run(exp.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.Config{Quick: true, Trials: 1, Seed: uint64(i + 1)}
				tbl := exp.Run(cfg)
				if len(tbl.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkSweepThroughput measures the sweep orchestrator's cell throughput
// on four rosters × both kernel settings × worker counts — the perf
// baseline future scheduler/sharding changes are judged against.
//
// roster=paper is the historical mixed grid of wakeupc and roundrobin.
// roster=memoizable is round-robin's global residue schedule and the
// local-clock Kautz–Singleton ladder at high trial counts on long
// collision-heavy cells, and roster=perturbed is the same roster under the
// noisy/jam channel axis. All three are oblivious, so they run on the engine
// under either setting; roundrobin and localssf step sparsely there. These
// cells were once served by a kernel route that memoized their rendered
// schedules across trials. At workers=1, 64 trials per work item, GOMAXPROCS=1 on a
// 2-vCPU linux/amd64 VM (go1.24) that route measured 6.4–7.0 ms/op on
// roster=memoizable against 17.6–19.0 ms/op on the engine, and 9.5–11.1
// against 39–41 ms/op on roster=perturbed. It was deleted anyway because no
// committed benchmark workload has this shape: on the whole sweep_oblivious
// grid the engine was faster. roster=adaptive is the feedback roster:
// tree_cd × none finishes in closed form in Engine.Run, since no collision
// reaches a station, while tree_cd × cd and every kg cell are stepped
// under either setting (kernel=off is the engine's per-slot adaptive
// delivery loop). On the same host, kernel=on measured 2.1–2.4 ms/op against
// 84–93 ms/op for kernel=off, about 38×, all of it from the tree_cd × none
// cells. allocs/op tracks the engine pool's allocation discipline.
func BenchmarkSweepThroughput(b *testing.B) {
	rosters := []struct {
		name string
		doc  sweep.SpecDoc
	}{
		{"roster=paper", sweep.SpecDoc{Cases: []string{"wakeupc", "roundrobin"}, Patterns: []string{"staggered:3", "simultaneous"},
			Ns: []int{256, 1024}, Ks: []int{2, 8, 32}, Trials: 4}},
		{"roster=memoizable", sweep.SpecDoc{Cases: []string{"roundrobin", "localssf"}, Patterns: []string{"simultaneous"},
			Ns: []int{256}, Ks: []int{32, 64}, Trials: 128}},
		{"roster=perturbed", sweep.SpecDoc{Cases: []string{"roundrobin", "localssf"}, Patterns: []string{"simultaneous"},
			Channels: []string{"noisy:0.1", "jam:2"}, Ns: []int{256}, Ks: []int{32, 64}, Trials: 128}},
		{"roster=adaptive", sweep.SpecDoc{Cases: []string{"tree_cd", "kg"}, Patterns: []string{"simultaneous"},
			Channels: []string{"none", "cd"}, Ns: []int{256}, Ks: []int{16, 64}, Trials: 16}},
	}
	for _, r := range rosters {
		r.doc.Name = "bench"
		base, err := r.doc.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		for _, kern := range []bool{true, false} {
			kname := "kernel=on"
			if !kern {
				kname = "kernel=off"
			}
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				name := fmt.Sprintf("%s/%s/workers=%d", r.name, kname, workers)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var cells int
					for i := 0; i < b.N; i++ {
						spec := base
						spec.Seed = rng.Derive(0x5eeb, uint64(i))
						spec.Workers = workers
						spec.DisableKernel = !kern
						res, err := spec.Execute()
						if err != nil {
							b.Fatal(err)
						}
						cells += len(res.Cells)
					}
					b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
					b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
				})
			}
		}
	}
}

// BenchmarkChannelObserve measures the channel's per-slot cost under every
// built-in model: Resolve (slot arbitration + perturbation) plus one
// listener Deliver, on a silence/success/collision slot mix. The paper
// models must show no measurable interface-dispatch overhead versus the
// pre-interface enum channel (the perturbing models pay for their RNG draw).
func BenchmarkChannelObserve(b *testing.B) {
	models := []model.ChannelModel{
		model.None(), model.CD(), model.SenderCD(), model.Ack(),
		model.Noisy(0.1), model.Jam(8),
	}
	solo := []int{7}
	pair := []int{3, 9}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			c := channel.New(m, false)
			sink := model.Silence
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					// Periodic Reset keeps jam budgets live and exercises
					// the trial-recycling path the engine pool uses.
					c.Reset(m, false, uint64(i))
				}
				var truth model.Feedback
				switch i % 3 {
				case 0:
					truth, _ = c.Resolve(int64(i), nil)
				case 1:
					truth, _ = c.Resolve(int64(i), solo)
				default:
					truth, _ = c.Resolve(int64(i), pair)
				}
				sink = c.Deliver(truth, false, false)
			}
			_ = sink
		})
	}
}

// BenchmarkSweepThroughputChannels compares sweep throughput across channel
// models on the BenchmarkSweepThroughput grid: "pre" is the axis-free grid
// (the seed baseline's shape), the rest pin one channel each. none vs pre
// isolates the ChannelModel interface cost on the hot trial path.
func BenchmarkSweepThroughputChannels(b *testing.B) {
	for _, entry := range []string{"pre", "none", "cd", "noisy:0.1", "jam:4"} {
		doc := sweep.SpecDoc{
			Name: "bench-ch", Cases: []string{"wakeupc", "roundrobin"}, Patterns: []string{"staggered:3", "simultaneous"},
			Ns: []int{256, 1024}, Ks: []int{2, 8, 32}, Trials: 4,
		}
		if entry != "pre" {
			doc.Channels = []string{entry}
		}
		base, err := doc.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		base.Workers = 1
		b.Run(entry, func(b *testing.B) {
			b.ReportAllocs()
			var cells int
			for i := 0; i < b.N; i++ {
				spec := base
				spec.Seed = rng.Derive(0x5eec, uint64(i))
				res, err := spec.Execute()
				if err != nil {
					b.Fatal(err)
				}
				cells += len(res.Cells)
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// BenchmarkSweepOverhead isolates the orchestrator's own cost: a grid of
// trivial trials, so scheduling and aggregation dominate. allocs/op divided
// by 512 trials per op gives the orchestrator's allocs/trial; it includes
// the one pooled engine each worker builds, which these trials ignore. At
// 64 trials per cell a work item runs 64/(8·workers) trials: 8 at
// workers=1, 2 at workers=4.
func BenchmarkSweepOverhead(b *testing.B) {
	cells := make([][]string, 8)
	for i := range cells {
		cells[i] = []string{fmt.Sprintf("%d", i)}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := sweep.Grid{
					Name: "overhead", Axes: []string{"i"}, Cells: cells,
					Trials: 64, Seed: uint64(i), Workers: workers,
					RunEngine: func(_ *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
						return sweep.Sample{OK: true, Rounds: int64(seed & 0xff)}
					},
				}.Execute()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*64*b.N)/b.Elapsed().Seconds(), "trials/sec")
		})
	}
}

// BenchmarkSpecDocResolve measures the serializable spec path: decode the
// wire document, resolve names against the registries, and compile the grid
// — the per-process cost a sharded multi-machine run pays before its first
// trial.
func BenchmarkSpecDocResolve(b *testing.B) {
	doc := []byte(`{
		"name": "bench",
		"cases": ["wakeupc", "roundrobin", "rpd", "wakeup_with_s:5"],
		"patterns": ["staggered:3@5", "uniform:16@5", "simultaneous@5"],
		"ns": [256, 1024], "ks": [2, 8, 32], "trials": 4, "seed": 7
	}`)
	for i := 0; i < b.N; i++ {
		d, err := sweep.ParseSpecDoc(doc)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := d.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Grid(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardMerge measures the cross-process envelope path end to end:
// run a 4-shard plan (in-process), encode/decode every envelope, and merge —
// the fixed overhead sharding adds on top of the trials themselves.
func BenchmarkShardMerge(b *testing.B) {
	spec, err := sweep.SpecDoc{
		Name: "shard-bench", Cases: []string{"wakeupc", "roundrobin"}, Patterns: []string{"staggered:3", "simultaneous"},
		Ns: []int{256}, Ks: []int{2, 8}, Trials: 8, Seed: 11,
	}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		const m = 4
		shards := make([]*sweep.ShardResult, m)
		for s := 0; s < m; s++ {
			sr, err := spec.Shard(s, m)
			if err != nil {
				b.Fatal(err)
			}
			data, err := sr.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if shards[s], err = sweep.DecodeShardResult(data); err != nil {
				b.Fatal(err)
			}
		}
		res, err := sweep.Merge(shards...)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 8 { // 2 cases × 2 patterns × 1 n × 2 ks
			b.Fatal("bad merge")
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

// BenchmarkMatrixMember times the Scenario C membership oracle, the hottest
// call in the whole simulator.
func BenchmarkMatrixMember(b *testing.B) {
	spec := matrix.NewSpec(1<<20, 1, 3)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = spec.Member(1+i%spec.Rows, int64(i), 1+i%spec.N)
	}
	_ = sink
}

// BenchmarkSelectorMember times random-family membership.
func BenchmarkSelectorMember(b *testing.B) {
	f := selectors.NewRandomPow2(1<<20, 6, 9)
	l := f.Length()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Member(int64(i)%l, 1+i%(1<<20))
	}
	_ = sink
}

// BenchmarkBitsetIntersectOne times the selective-isolation primitive.
func BenchmarkBitsetIntersectOne(b *testing.B) {
	n := 1 << 16
	x := bitset.New(n)
	f := bitset.New(n)
	src := rng.New(3)
	for j := 0; j < 64; j++ {
		x.Set(src.Intn(n) + 1)
	}
	for j := 0; j < n/64; j++ {
		f.Set(src.Intn(n) + 1)
	}
	for i := 0; i < b.N; i++ {
		_, _ = x.IntersectOne(f)
	}
}

// BenchmarkSimSlotThroughput measures raw engine slot throughput with k
// active stations that never succeed (worst case for the loop).
func BenchmarkSimSlotThroughput(b *testing.B) {
	n, k := 4096, 64
	ids := rng.New(1).Sample(nil, n, k)
	// Pairwise colliding schedule: every active station transmits every
	// slot, so the run never terminates before the horizon.
	collide := collideAlgo{}
	p := model.Params{N: n, S: -1}
	w := model.Simultaneous(ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := sim.Run(collide, p, w, sim.Options{Horizon: 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000*float64(k), "station-evals/op")
}

type collideAlgo struct{}

func (collideAlgo) Name() string { return "collide" }
func (collideAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return true }
}
