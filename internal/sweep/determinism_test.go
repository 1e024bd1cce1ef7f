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
// count and batch size; everything else (cells, seeds, workloads) is fixed.
func simGrid(workers int, seed uint64) sweep.Grid { return simGridBatch(workers, 0, seed) }

func simGridBatch(workers, batch int, seed uint64) sweep.Grid {
	cells := [][]string{{"8", "2"}, {"24", "5"}, {"40", "11"}, {"40", "40"}}
	return sweep.Grid{
		Name:    "det",
		Axes:    []string{"n", "k"},
		Cells:   cells,
		Trials:  6,
		Seed:    seed,
		Workers: workers,
		Batch:   batch,
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
// any worker count and any trial batch size.
func TestWorkerCountInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 77, 0xdeadbeef} {
		base, err := simGridBatch(1, 1, seed).Execute()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8, 0} { // 0 = GOMAXPROCS
			for _, batch := range []int{0, 1, 8, 64} { // 0 = auto
				got, err := simGridBatch(workers, batch, seed).Execute()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base.Cells, got.Cells) {
					t.Fatalf("seed %d: workers=1/batch=1 vs workers=%d/batch=%d cells differ",
						seed, workers, batch)
				}
				if base.Text() != got.Text() {
					t.Errorf("seed %d workers=%d batch=%d: text output differs", seed, workers, batch)
				}
				if base.CSV() != got.CSV() {
					t.Errorf("seed %d workers=%d batch=%d: CSV output differs", seed, workers, batch)
				}
				bj, err1 := base.JSON()
				gj, err2 := got.JSON()
				if err1 != nil || err2 != nil {
					t.Fatalf("JSON render: %v %v", err1, err2)
				}
				if string(bj) != string(gj) {
					t.Errorf("seed %d workers=%d batch=%d: JSON output differs", seed, workers, batch)
				}
			}
		}
	}
}

// TestSeedSensitivity guards against the opposite failure: different seeds
// must actually change the sweep (no accidental seed plumbing loss).
func TestSeedSensitivity(t *testing.T) {
	a, err := simGrid(4, 1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := simGrid(4, 2).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("different seeds produced identical sweeps — seed not plumbed through")
	}
}

// TestSpecWorkerCountInvariance repeats the guarantee at the declarative
// layer with real algorithms — a randomized one and a white-box adversary
// pattern included — across the full workers × batch acceptance matrix.
func TestSpecWorkerCountInvariance(t *testing.T) {
	mk := func(workers, batch int) sweep.Spec {
		cases, err := sweep.CasesByName("wakeupc,rpd")
		if err != nil {
			t.Fatal(err)
		}
		gens, err := sweep.ParsePatterns("staggered:3,uniform:16,spoiler")
		if err != nil {
			t.Fatal(err)
		}
		return sweep.Spec{
			Name: "spec-det", Cases: cases, Patterns: gens,
			Ns: []int{64, 128}, Ks: []int{2, 8}, Trials: 3,
			Seed: 99, Workers: workers, Batch: batch,
		}
	}
	base, err := mk(1, 1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := base.Render("text")
	bc, _ := base.Render("csv")
	bj, _ := base.Render("json")
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		for _, batch := range []int{1, 8, 64} {
			got, err := mk(workers, batch).Execute()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Cells, got.Cells) {
				t.Fatalf("spec results differ at workers=%d batch=%d", workers, batch)
			}
			gt, _ := got.Render("text")
			gc, _ := got.Render("csv")
			gj, _ := got.Render("json")
			if gt != bt || gc != bc || gj != bj {
				t.Errorf("rendered output differs at workers=%d batch=%d", workers, batch)
			}
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
	res, err := simGrid(8, 5).Execute()
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
