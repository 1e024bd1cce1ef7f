package sweep_test

import (
	"math"
	"reflect"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/stats"
	"nsmac/internal/sweep"
)

// simGrid builds a hash-schedule simulation grid parameterized by worker
// count and trial count; everything else (cells, seeds, workloads) is fixed.
func simGrid(workers, trials int, seed uint64) sweep.Grid {
	cells := [][]string{{"8", "2"}, {"24", "5"}, {"40", "11"}, {"40", "40"}}
	return sweep.Grid{
		Name:    "det",
		Axes:    []string{"n", "k"},
		Cells:   cells,
		Trials:  trials,
		Seed:    seed,
		Workers: workers,
		RunEngine: func(_ *sim.Engine, cell, trial int, s uint64) sweep.Sample {
			dims := [][2]int{{8, 2}, {24, 5}, {40, 11}, {40, 40}}
			n, k := dims[cell][0], dims[cell][1]
			const horizon = 120
			algo := hashAlgo{density: 2}
			p := model.Params{N: n, S: -1, Seed: rng.Derive(s, 1)}
			w := model.Simultaneous(rng.New(rng.Derive(s, 2)).Sample(nil, n, k), 0)
			res, _, err := sim.Run(algo, p, w, sim.Options{Horizon: horizon, Seed: s})
			if err != nil {
				panic(err)
			}
			rounds := res.Rounds
			if !res.Succeeded {
				rounds = horizon
			}
			return sweep.Sample{
				OK: res.Succeeded, Rounds: rounds,
				Collisions: res.Collisions, Silences: res.Silences,
				Transmissions: res.Transmissions,
				Winner:        res.Winner, SuccessSlot: res.SuccessSlot,
			}
		},
	}
}

// TestWorkerCountInvariance is the orchestrator's hard guarantee: the same
// seed produces identical aggregates and byte-identical rendered output at
// any worker count, and so at any batch geometry the worker count derives.
// At 6 trials every work item is one trial; at 77 the items run 9, 4, 3 and
// 2 trials at workers 1 to 4, each cell's last item ragged.
func TestWorkerCountInvariance(t *testing.T) {
	for _, trials := range []int{6, 77} {
		for _, seed := range []uint64{1, 77, 0xdeadbeef} {
			base, err := simGrid(1, trials, seed).Execute()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 4, 8, 0} { // 0 = GOMAXPROCS
				got, err := simGrid(workers, trials, seed).Execute()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base.Cells, got.Cells) {
					t.Fatalf("trials %d seed %d: workers=1 vs workers=%d cells differ", trials, seed, workers)
				}
				if base.Text() != got.Text() {
					t.Errorf("trials %d seed %d workers=%d: text output differs", trials, seed, workers)
				}
				if base.CSV() != got.CSV() {
					t.Errorf("trials %d seed %d workers=%d: CSV output differs", trials, seed, workers)
				}
				bj, err1 := base.JSON()
				gj, err2 := got.JSON()
				if err1 != nil || err2 != nil {
					t.Fatalf("JSON render: %v %v", err1, err2)
				}
				if string(bj) != string(gj) {
					t.Errorf("trials %d seed %d workers=%d: JSON output differs", trials, seed, workers)
				}
			}
		}
	}
}

// TestSeedSensitivity guards against the opposite failure: different seeds
// must actually change the sweep (no accidental seed plumbing loss).
func TestSeedSensitivity(t *testing.T) {
	a, err := simGrid(4, 6, 1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := simGrid(4, 6, 2).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("different seeds produced identical sweeps — seed not plumbed through")
	}
}

// TestSpecWorkerCountInvariance repeats the guarantee at the declarative
// layer with real algorithms — a randomized one and a white-box adversary
// pattern included — across worker counts.
func TestSpecWorkerCountInvariance(t *testing.T) {
	mk := func(workers int) sweep.Spec {
		spec := testSpec(t, sweep.SpecDoc{
			Name: "spec-det", Cases: []string{"wakeupc", "rpd"},
			Patterns: []string{"staggered:3", "uniform:16", "spoiler"},
			Ns:       []int{64, 128}, Ks: []int{2, 8}, Trials: 3, Seed: 99,
		})
		spec.Workers = workers
		return spec
	}
	base, err := mk(1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := base.Render("text")
	bc, _ := base.Render("csv")
	bj, _ := base.Render("json")
	for _, workers := range []int{2, 4, 0} { // 0 = GOMAXPROCS
		got, err := mk(workers).Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Cells, got.Cells) {
			t.Fatalf("spec results differ at workers=%d", workers)
		}
		gt, _ := got.Render("text")
		gc, _ := got.Render("csv")
		gj, _ := got.Render("json")
		if gt != bt || gc != bc || gj != bj {
			t.Errorf("rendered output differs at workers=%d", workers)
		}
	}
}

// TestAggregateShardSums checks the merge algebra: splitting a sample stream
// into arbitrary shards and merging must reproduce the one-shot aggregate's
// counters exactly and its summary statistics to FP equality.
func TestAggregateShardSums(t *testing.T) {
	src := rng.New(31)
	samples := make([]sweep.Sample, 200)
	for i := range samples {
		samples[i] = sweep.Sample{
			OK:            src.Bernoulli(0.8),
			Rounds:        src.Int63n(500),
			Collisions:    src.Int63n(20),
			Silences:      src.Int63n(20),
			Transmissions: src.Int63n(100),
		}
	}
	add := func(a *stats.Aggregate, s sweep.Sample) {
		a.AddTrial(float64(s.Rounds), s.OK, s.Collisions, s.Silences, s.Transmissions, s.Listens)
	}
	var whole stats.Aggregate
	for _, s := range samples {
		add(&whole, s)
	}
	for _, shards := range []int{1, 2, 3, 7, 200} {
		var merged stats.Aggregate
		per := (len(samples) + shards - 1) / shards
		for lo := 0; lo < len(samples); lo += per {
			hi := lo + per
			if hi > len(samples) {
				hi = len(samples)
			}
			var shard stats.Aggregate
			for _, s := range samples[lo:hi] {
				add(&shard, s)
			}
			merged.Merge(shard)
		}
		if merged.Trials != whole.Trials || merged.Successes != whole.Successes ||
			merged.Collisions != whole.Collisions || merged.Silences != whole.Silences ||
			merged.Transmissions != whole.Transmissions {
			t.Fatalf("%d shards: counters diverge: %+v vs %+v", shards, merged, whole)
		}
		ms, ws := merged.Summary(), whole.Summary()
		if ms != ws {
			t.Fatalf("%d shards: summaries diverge: %+v vs %+v", shards, ms, ws)
		}
		if math.Abs(merged.SuccessRate()-whole.SuccessRate()) > 0 {
			t.Fatalf("%d shards: success rate diverges", shards)
		}
	}
}

// TestGridTotalsMatchTrialSum checks that grid totals equal the sum over all
// (cell, trial) samples — the orchestrator drops or double-counts nothing.
func TestGridTotalsMatchTrialSum(t *testing.T) {
	res, err := simGrid(8, 6, 5).Execute()
	if err != nil {
		t.Fatal(err)
	}
	var wantTrials int
	var wantCollisions, wantTx int64
	for _, c := range res.Cells {
		wantTrials += len(c.Samples)
		for _, s := range c.Samples {
			wantCollisions += s.Collisions
			wantTx += s.Transmissions
		}
	}
	total := res.Totals()
	if total.Trials != wantTrials || total.Collisions != wantCollisions || total.Transmissions != wantTx {
		t.Errorf("totals %+v do not sum the samples (want trials=%d collisions=%d tx=%d)",
			total, wantTrials, wantCollisions, wantTx)
	}
}
