// Package experiments contains one driver per table/figure in DESIGN.md §5.
// Each driver declares the workload grid its experiment prescribes against
// the internal/sweep orchestrator — which shards cells over a worker pool
// with derived RNG streams — and emits an aligned text table whose rows are
// what EXPERIMENTS.md records. The paper has no empirical
// tables — its evaluation is a set of theorems — so each experiment
// measures the *shape* a theorem promises: bounded ratios to the claimed
// bound, growth exponents, crossovers.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks sweeps and trial counts for CI / go test; the full
	// configuration is what cmd/wakeup-bench runs for EXPERIMENTS.md.
	Quick bool
	// Trials overrides the per-cell trial count (0 = experiment default).
	Trials int
	// Seed keys all randomness; tables are bit-reproducible given a seed.
	Seed uint64
	// Workers caps the parallel trial runner (0 = GOMAXPROCS).
	Workers int
	// Batch caps trials per sweep work item (0 = auto); like Workers it
	// tunes scheduling only and never changes a table's bytes.
	Batch int
}

// trials resolves the per-cell trial count.
func (c Config) trials(quickDef, fullDef int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quickDef
	}
	return fullDef
}

// seed derives a sub-seed for experiment component `tag`.
func (c Config) seed(tag uint64) uint64 { return rng.Derive(c.Seed^0x5eed, tag) }

// Table is an experiment's rendered result.
type Table struct {
	// ID matches DESIGN.md §5 (T1…T12).
	ID string
	// Title states what the experiment measures.
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	// Header and Rows hold the tabular payload.
	Header []string
	Rows   [][]string
	// Notes carry shape verdicts and caveats.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "   paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 comma-separated rows (header first; the
// ID, title, claim and notes travel in '#' comment lines so the payload
// stays machine-readable).
func (t *Table) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "# paper: %s\n", t.Claim)
	}
	w := csv.NewWriter(&sb)
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# note: %s\n", n)
	}
	return sb.String()
}

// jsonTable is the deterministic JSON shape of a table.
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

func (t *Table) jsonShape() jsonTable {
	return jsonTable{t.ID, t.Title, t.Claim, t.Header, t.Rows, t.Notes}
}

// JSON renders the table as deterministic indented JSON.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(t.jsonShape(), "", "  ")
}

// TablesJSON renders several tables as one JSON array, so multi-experiment
// output stays a single parseable document.
func TablesJSON(tables []*Table) ([]byte, error) {
	out := make([]jsonTable, len(tables))
	for i, t := range tables {
		out[i] = t.jsonShape()
	}
	return json.MarshalIndent(out, "", "  ")
}

// Emit renders the table in the named format: "text", "csv" or "json".
func (t *Table) Emit(format string) (string, error) {
	switch format {
	case "", "text":
		return t.Render(), nil
	case "csv":
		return t.CSV(), nil
	case "json":
		b, err := t.JSON()
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	default:
		return "", fmt.Errorf("experiments: unknown format %q (have text, csv, json)", format)
	}
}

// Experiment pairs an ID with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// All returns every experiment in DESIGN.md §5 order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Theorem 2.1 lower bound via swap adversary", T1LowerBound},
		{"T2", "Scenario A: wakeup_with_s = Θ(k log(n/k)+1)", T2WakeupWithS},
		{"T3", "Scenario B: wakeup_with_k = Θ(k log(n/k)+1)", T3WakeupWithK},
		{"T4", "Scenario C: wakeup(n) = O(k log n log log n)", T4WakeupC},
		{"T5", "Randomized RPD baselines (§6)", T5RPD},
		{"T6", "Head-to-head comparison and crossover", T6Comparison},
		{"T7", "Selective-family lengths", T7FamilySizes},
		{"T8", "Design ablations", T8Ablations},
		{"T9", "Komlós–Greenberg conflict resolution extension", T9ConflictResolution},
		{"T10", "Tree algorithm under collision detection", T10TreeCD},
		{"T11", "Seed robustness of the probabilistic constructions", T11SeedRobustness},
		{"T12", "Clock-skew sensitivity (global vs local synchrony)", T12ClockSkew},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// shared measurement helpers

// measured is one simulation outcome in a sweep.
type measured struct {
	rounds int64
	ok     bool
}

// runOnce executes a single simulation on the given pooled engine, mapping
// failure to horizon rounds. Drivers running inside a sweep pass the
// worker's engine; one-shot callers pass a fresh sim.NewEngine().
func runOnce(e *sim.Engine, algo model.Algorithm, p model.Params, w model.WakePattern, horizon int64) measured {
	if err := e.Reset(algo, p, w, sim.Options{Horizon: horizon, Seed: p.Seed}); err != nil {
		// Knowledge-inconsistent input is a driver bug; surface loudly.
		panic(fmt.Sprintf("experiments: %s rejected input: %v", algo.Name(), err))
	}
	res := e.Run()
	if !res.Succeeded {
		return measured{rounds: horizon, ok: false}
	}
	return measured{rounds: res.Rounds, ok: true}
}

// simultaneous draws into e's pattern buffer the pattern
// model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0) returns: k
// stations sampled from [1, n], all woken at slot 0.
func simultaneous(e *sim.Engine, n, k int, seed uint64) model.WakePattern {
	w := e.Pattern()
	*w = simultaneousAt0.Generate(*w, n, k, seed)
	return *w
}

// simultaneousAt0 is built once: its constructor formats the family's
// names.
var simultaneousAt0 = adversary.Simultaneous(0)

// sweepPatterns measures algo across a list of wake patterns on the sweep
// orchestrator (one cell per pattern), returning per-pattern rounds
// (failures at horizon) and the success count. Every pattern runs with the
// caller's p.Seed, as the drivers' seed discipline prescribes: trial
// diversity comes from the patterns, not the engine seed.
func sweepPatterns(cfg Config, algo model.Algorithm, p model.Params,
	pats []model.WakePattern, horizon int64) ([]int64, int) {

	cells := make([][]string, len(pats))
	for i := range pats {
		cells[i] = []string{strconv.Itoa(i)}
	}
	res, err := sweep.Grid{
		Name:    "patterns",
		Axes:    []string{"pattern"},
		Cells:   cells,
		Trials:  1,
		Seed:    p.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, cell, _ int, _ uint64) sweep.Sample {
			m := runOnce(e, algo, p, pats[cell], horizon)
			return sweep.Sample{OK: m.ok, Rounds: m.rounds}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: pattern sweep: %v", err))
	}
	rounds := make([]int64, len(res.Cells))
	okCount := 0
	for i, c := range res.Cells {
		rounds[i] = c.Samples[0].Rounds
		if c.Samples[0].OK {
			okCount++
		}
	}
	return rounds, okCount
}

// maxOf returns the max of a non-empty slice.
func maxOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// meanOf returns the mean of a non-empty slice.
func meanOf(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
