package sweep_test

import (
	"strings"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// hashAlgo is a pseudo-random but deterministic schedule: station id
// transmits at t iff hash(seed, id, t) lands below density. It exercises
// arbitrary overlap patterns without any algorithmic structure, which makes
// it the workhorse for differential and determinism tests.
type hashAlgo struct{ density int }

func (h hashAlgo) Name() string { return "hashAlgo" }
func (h hashAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool {
		if t < wake {
			return false
		}
		return rng.Below(rng.Hash3(p.Seed, uint64(id), uint64(t), 3), h.density)
	}
}

// countingGrid builds a tiny grid whose samples encode their own (cell,
// trial, seed) coordinates, so tests can check routing exactly.
func countingGrid(workers int) sweep.Grid {
	return sweep.Grid{
		Name:    "counting",
		Axes:    []string{"i"},
		Cells:   [][]string{{"0"}, {"1"}, {"2"}},
		Trials:  4,
		Seed:    42,
		Workers: workers,
		RunEngine: func(_ *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
			return sweep.Sample{
				OK:            true,
				Rounds:        int64(cell*100 + trial),
				Transmissions: int64(seed % 1000),
			}
		},
	}
}

func TestGridRoutesSamplesByCellAndTrial(t *testing.T) {
	res, err := countingGrid(8).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	for ci, c := range res.Cells {
		if len(c.Samples) != 4 {
			t.Fatalf("cell %d has %d samples, want 4", ci, len(c.Samples))
		}
		for ti, s := range c.Samples {
			if s.Rounds != int64(ci*100+ti) {
				t.Errorf("cell %d trial %d landed at the wrong index: rounds=%d", ci, ti, s.Rounds)
			}
			want := sweep.TrialSeed(42, ci, ti) % 1000
			if s.Transmissions != int64(want) {
				t.Errorf("cell %d trial %d got wrong derived seed", ci, ti)
			}
		}
		if c.Agg.Trials != 4 || c.Agg.Successes != 4 {
			t.Errorf("cell %d aggregate miscounts: %+v", ci, c.Agg)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (sweep.Grid{Trials: 1}).Execute(); err == nil {
		t.Error("nil RunEngine accepted")
	}
	g := countingGrid(1)
	g.Trials = 0
	if _, err := g.Execute(); err == nil {
		t.Error("zero trials accepted")
	}
	g = countingGrid(1)
	g.Cells = [][]string{{"a", "extra"}}
	if _, err := g.Execute(); err == nil {
		t.Error("label/axes mismatch accepted")
	}
}

// TestGridEnginePoolRoutesAndReuses runs an engine-pooled grid and checks
// (a) samples land at their (cell, trial) index with the right seed, and
// (b) results equal a fresh sim.Run per trial — the pooled engine leaks no
// state between trials.
func TestGridEnginePoolRoutesAndReuses(t *testing.T) {
	dims := [][2]int{{8, 2}, {24, 5}, {40, 11}}
	cells := make([][]string, len(dims))
	for i := range dims {
		cells[i] = []string{string(rune('a' + i))}
	}
	trial := func(e *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
		n, k := dims[cell][0], dims[cell][1]
		algo := hashAlgo{density: 2}
		p := model.Params{N: n, S: -1, Seed: rng.Derive(seed, 1)}
		w := model.Simultaneous(rng.New(rng.Derive(seed, 2)).Sample(n, k), 0)
		if err := e.Reset(algo, p, w, sim.Options{Horizon: 150, Seed: seed}); err != nil {
			panic(err)
		}
		res := e.Run()
		return sweep.Sample{
			OK: res.Succeeded, Rounds: res.Rounds,
			Collisions: res.Collisions, Silences: res.Silences,
			Transmissions: res.Transmissions,
			Winner:        res.Winner, SuccessSlot: res.SuccessSlot,
		}
	}
	for _, batch := range []int{1, 3, 64} {
		res, err := sweep.Grid{
			Name: "pool", Axes: []string{"cell"}, Cells: cells,
			Trials: 7, Seed: 13, Workers: 4, Batch: batch,
			RunEngine: trial,
		}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		for ci := range dims {
			n, k := dims[ci][0], dims[ci][1]
			for ti, got := range res.Cells[ci].Samples {
				seed := sweep.TrialSeed(13, ci, ti)
				p := model.Params{N: n, S: -1, Seed: rng.Derive(seed, 1)}
				w := model.Simultaneous(rng.New(rng.Derive(seed, 2)).Sample(n, k), 0)
				fresh, _, err := sim.Run(hashAlgo{density: 2}, p, w, sim.Options{Horizon: 150, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if got.Rounds != fresh.Rounds || got.Winner != fresh.Winner ||
					got.SuccessSlot != fresh.SuccessSlot || got.Collisions != fresh.Collisions {
					t.Fatalf("batch=%d cell %d trial %d: pooled %+v != fresh %+v",
						batch, ci, ti, got, fresh)
				}
			}
		}
	}
}

func TestGridEmptyCells(t *testing.T) {
	g := countingGrid(4)
	g.Cells = nil
	res, err := g.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Fatalf("empty grid produced %d cells", len(res.Cells))
	}
	if total := res.Totals(); total.Trials != 0 {
		t.Errorf("empty grid totals %+v", total)
	}
}

func TestSeedDerivationIsPerCellAndTrial(t *testing.T) {
	seen := map[uint64]bool{}
	for cell := 0; cell < 5; cell++ {
		for trial := 0; trial < 5; trial++ {
			s := sweep.TrialSeed(7, cell, trial)
			if seen[s] {
				t.Fatalf("seed collision at cell %d trial %d", cell, trial)
			}
			seen[s] = true
		}
	}
	if sweep.TrialSeed(7, 1, 2) == sweep.TrialSeed(8, 1, 2) {
		t.Error("grid seed ignored")
	}
	if sweep.CellSeed(7, 1) == sweep.CellSeed(7, 2) {
		t.Error("cell index ignored")
	}
}

func TestSpecEnumeratesCrossProduct(t *testing.T) {
	gens, err := sweep.ParsePatterns("simultaneous,staggered:3")
	if err != nil {
		t.Fatal(err)
	}
	cases, err := sweep.CasesByName("roundrobin,wakeupc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Spec{
		Name:     "cross",
		Cases:    cases,
		Patterns: gens,
		Ns:       []int{32, 64},
		Ks:       []int{2, 64}, // k=64 valid only for n=64
		Trials:   2,
		Seed:     5,
		Workers:  4,
	}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// 2 algos × 2 patterns × (2 + 1) valid (n, k) pairs.
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Agg.Trials != 2 {
			t.Errorf("cell %v ran %d trials, want 2", c.Cell, c.Agg.Trials)
		}
		if c.Agg.Successes != 2 {
			t.Errorf("cell %v: %d/%d trials resolved (these algorithms cannot fail within their horizons)",
				c.Cell, c.Agg.Successes, c.Agg.Trials)
		}
	}
}

func TestSpecRejectsDegenerateGrids(t *testing.T) {
	cases, _ := sweep.CasesByName("roundrobin")
	gens, _ := sweep.ParsePatterns("simultaneous")
	bad := []sweep.Spec{
		{Patterns: gens, Ns: []int{8}, Ks: []int{2}, Trials: 1},               // no cases
		{Cases: cases, Ns: []int{8}, Ks: []int{2}, Trials: 1},                 // no patterns
		{Cases: cases, Patterns: gens, Trials: 1},                             // no axes
		{Cases: cases, Patterns: gens, Ns: []int{4}, Ks: []int{8}, Trials: 1}, // all k > n
	}
	for i, s := range bad {
		if _, err := s.Execute(); err == nil {
			t.Errorf("degenerate spec %d accepted", i)
		}
	}
}

func TestCasesByName(t *testing.T) {
	all, err := sweep.CasesByName("all")
	if err != nil || len(all) < 7 {
		t.Fatalf("registry: %v (%d cases)", err, len(all))
	}
	two, err := sweep.CasesByName("wakeupc, roundrobin")
	if err != nil || len(two) != 2 || two[0].Name != "wakeupc" {
		t.Fatalf("selection: %v %+v", err, two)
	}
	if _, err := sweep.CasesByName("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestParsePatterns(t *testing.T) {
	suite, err := sweep.ParsePatterns("")
	if err != nil || len(suite) != 5 {
		t.Fatalf("suite default: %v (%d)", err, len(suite))
	}
	got, err := sweep.ParsePatterns("staggered:13,uniform")
	if err != nil || len(got) != 2 {
		t.Fatalf("parse: %v", err)
	}
	if got[0].Name != "staggered(gap=13)" {
		t.Errorf("gap argument ignored: %s", got[0].Name)
	}
	wb, err := sweep.ParsePatterns("spoiler,swap,swap:1")
	if err != nil {
		t.Fatalf("white-box patterns rejected: %v", err)
	}
	wantNames := []string{"spoiler", "swap", "swap(greedy)"}
	for i, g := range wb {
		if g.Name != wantNames[i] {
			t.Errorf("pattern %d named %q, want %q", i, g.Name, wantNames[i])
		}
		if !g.WhiteBox() {
			t.Errorf("%s must be white-box", g.Name)
		}
	}
	// A stray comma must error, not silently expand to the suite; an @start
	// override on a family that ignores it must error, not silently run a
	// different adversary.
	for _, bad := range []string{"nope", "staggered:x", "staggered:-1", "staggered:3,", ",simultaneous", "spoiler@5", "swap@3"} {
		if _, err := sweep.ParsePatterns(bad); err == nil {
			t.Errorf("bad pattern %q accepted", bad)
		}
	}
	// start overrides that families honor still resolve.
	honored, err := sweep.ParsePatterns("simultaneous@5,staggered:3@5,spoiler@0")
	if err != nil || len(honored) != 3 {
		t.Fatalf("start overrides rejected: %v", err)
	}
}

func TestParseInts(t *testing.T) {
	got, err := sweep.ParseInts("256, 1024")
	if err != nil || len(got) != 2 || got[1] != 1024 {
		t.Fatalf("parse: %v %v", err, got)
	}
	for _, bad := range []string{"", "x", "0", "-3"} {
		if _, err := sweep.ParseInts(bad); err == nil {
			t.Errorf("bad axis %q accepted", bad)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	res, err := countingGrid(2).Execute()
	if err != nil {
		t.Fatal(err)
	}
	text := res.Text()
	for _, want := range []string{"== sweep counting", "i", "trials", "success_rate"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + 3 cells
		t.Fatalf("csv has %d lines, want 4:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "i,trials,ok,") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "counting"`, `"cells"`, `"mean_rounds"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("json missing %q", want)
		}
	}
	if _, err := res.Render("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestCSVQuotesSpecialCells(t *testing.T) {
	g := countingGrid(1)
	g.Cells = [][]string{{`label,with"comma`}}
	res, err := g.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.CSV(), `"label,with""comma"`) {
		t.Errorf("csv quoting broken:\n%s", res.CSV())
	}
}

func TestTotalsSumAcrossCells(t *testing.T) {
	res, err := countingGrid(3).Execute()
	if err != nil {
		t.Fatal(err)
	}
	total := res.Totals()
	if total.Trials != 12 || total.Successes != 12 {
		t.Errorf("totals wrong: %+v", total)
	}
	var wantRounds int64
	for _, c := range res.Cells {
		wantRounds += c.Agg.Collisions // zero; counters checked below
		for _, s := range c.Samples {
			wantRounds += s.Rounds
		}
	}
	var gotRounds float64
	for _, r := range total.Rounds {
		gotRounds += r
	}
	if int64(gotRounds) != wantRounds {
		t.Errorf("rounds totals: got %v want %v", gotRounds, wantRounds)
	}
}
