package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
)

// quickCfg is the CI configuration: small sweeps, fixed seed.
func quickCfg() Config { return Config{Quick: true, Seed: 7} }

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "TX", Title: "demo", Claim: "c",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 5)
	out := tbl.Render()
	for _, want := range []string{"== TX", "paper: c", "a", "bb", "333", "note: note 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
	}
	for i := 1; i <= 12; i++ {
		id := "T" + strconv.Itoa(i)
		if !ids[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, ok := Lookup("T4"); !ok {
		t.Error("Lookup(T4) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

// checkShape asserts a table ran, produced rows, and none of the notes
// reports a violation/failure.
func checkShape(t *testing.T, tbl *Table, allowFailNotes bool) {
	t.Helper()
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", tbl.ID)
	}
	if allowFailNotes {
		return
	}
	for _, n := range tbl.Notes {
		if strings.Contains(n, "VIOLATION") || strings.Contains(n, "FAILURES") {
			t.Errorf("%s reports a shape problem: %s", tbl.ID, n)
		}
	}
}

func TestT1LowerBoundQuick(t *testing.T) {
	tbl := T1LowerBound(quickCfg())
	checkShape(t, tbl, false)
	// Every row must certify both algorithms meet the bound.
	for _, row := range tbl.Rows {
		if row[5] != "true" || row[6] != "true" {
			t.Errorf("T1 row below the lower bound: %v", row)
		}
	}
}

func TestT2WakeupWithSQuick(t *testing.T) {
	tbl := T2WakeupWithS(quickCfg())
	checkShape(t, tbl, false)
	// Ratio column must stay bounded (constant-factor reproduction).
	for _, row := range tbl.Rows {
		ratio, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[6])
		}
		if ratio > 20 {
			t.Errorf("T2 ratio %v explodes for row %v", ratio, row)
		}
	}
}

func TestT3WakeupWithKQuick(t *testing.T) {
	tbl := T3WakeupWithK(quickCfg())
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		ratio, _ := strconv.ParseFloat(row[6], 64)
		if ratio > 20 {
			t.Errorf("T3 ratio %v explodes for row %v", ratio, row)
		}
	}
}

func TestT4WakeupCQuick(t *testing.T) {
	tbl := T4WakeupC(quickCfg())
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		ratio, _ := strconv.ParseFloat(row[6], 64)
		if ratio > 40 {
			t.Errorf("T4 ratio %v explodes for row %v", ratio, row)
		}
	}
}

func TestT5RPDQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 80
	tbl := T5RPD(cfg)
	checkShape(t, tbl, false)
	// E[rpd_k]/log k should be a modest constant for every cell.
	for _, row := range tbl.Rows {
		perLogK, _ := strconv.ParseFloat(row[6], 64)
		if perLogK > 30 {
			t.Errorf("T5 E[rpd_k]/log k = %v too large: %v", perLogK, row)
		}
	}
}

func TestT6ComparisonQuick(t *testing.T) {
	tbl := T6Comparison(quickCfg())
	checkShape(t, tbl, true) // LocalSSF may legitimately FAIL (heuristic)
	// The last row (k = n) must be won by round_robin (Corollary 2.1).
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[len(last)-1] != "round_robin" {
		t.Errorf("k=n winner = %q, want round_robin", last[len(last)-1])
	}
	// Small k must not be won by round_robin.
	first := tbl.Rows[0] // k = 1
	if first[len(first)-1] == "round_robin" && first[0] != "1" {
		t.Errorf("unexpected first row %v", first)
	}
}

func TestT7FamilySizesQuick(t *testing.T) {
	tbl := T7FamilySizes(quickCfg())
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		randRatio, _ := strconv.ParseFloat(row[4], 64)
		if randRatio > 4*8 { // DefaultSizeMult with slack
			t.Errorf("random family ratio %v too large: %v", randRatio, row)
		}
	}
}

func TestT8AblationsQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 2
	tbl := T8Ablations(cfg)
	checkShape(t, tbl, true) // ablations are SUPPOSED to report damage
	// The spoiler must hurt the ablated variants strictly more than the
	// originals (more rounds under attack).
	for _, row := range tbl.Rows {
		if row[3] == "rounds under attack" {
			std, err1 := strconv.ParseInt(row[4], 10, 64)
			abl, err2 := strconv.ParseInt(row[5], 10, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("bad spoiler cells: %v", row)
			}
			if abl <= std {
				t.Errorf("%s: ablated variant (%d) not worse than standard (%d) under spoiler",
					row[0], abl, std)
			}
		}
	}
	// The c sweep must be monotone: larger c → more rounds at large k.
	var cMeans []float64
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "(c)") {
			v, _ := strconv.ParseFloat(row[4], 64)
			cMeans = append(cMeans, v)
		}
	}
	if len(cMeans) != 3 {
		t.Fatalf("expected 3 c-sweep rows, got %d", len(cMeans))
	}
	if !(cMeans[0] < cMeans[2]) {
		t.Errorf("c sweep not increasing: %v", cMeans)
	}
}

func TestT9ConflictResolutionQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 2
	tbl := T9ConflictResolution(cfg)
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		if strings.Contains(row[6], "FAIL") {
			t.Errorf("T9 failure: %v", row)
		}
	}
}

func TestT10TreeCDQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 2
	tbl := T10TreeCD(cfg)
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		ratio, _ := strconv.ParseFloat(row[6], 64)
		if ratio > 16 {
			t.Errorf("T10 ratio %v too large: %v", ratio, row)
		}
	}
}

func TestT11SeedRobustnessQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 20
	tbl := T11SeedRobustness(cfg)
	checkShape(t, tbl, false)
	for _, row := range tbl.Rows {
		if row[4] != "0" {
			t.Errorf("T11 reports %s failing seeds for %s: the w.h.p. substitution is broken", row[4], row[0])
		}
	}
}

func TestT12ClockSkewQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 2
	tbl := T12ClockSkew(cfg)
	checkShape(t, tbl, true) // degradation under skew is the point
	// Find wakeup(n) large-k rows: skew must cost at least 1.5× mean.
	var base, skewed float64
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "wakeup(n) k=") {
			v, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatalf("bad mean cell %q", row[4])
			}
			if row[1] == "0" {
				base = v
			} else {
				skewed = v
			}
		}
	}
	if base == 0 || skewed == 0 {
		t.Fatal("missing large-k skew rows")
	}
	if skewed < base {
		t.Errorf("skew did not slow wakeup(n) at large k: base=%.1f skewed=%.1f", base, skewed)
	}
}

func TestTablesBitReproducible(t *testing.T) {
	// The highest-level determinism contract: identical Config produces
	// byte-identical tables, including across the parallel trial runner.
	cfg := Config{Quick: true, Trials: 2, Seed: 99, Workers: 3}
	for _, id := range []string{"T1", "T4", "T7"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		a := e.Run(cfg).Render()
		b := e.Run(cfg).Render()
		if a != b {
			t.Errorf("%s not bit-reproducible", id)
		}
	}
}

// quickTablesDigest is the SHA-256 of every quick table's Render, in All
// order, at seed 20130527: the text `wakeup-bench -quick` prints, and the
// digest the repository benchmark checks its paper_tables output against.
const quickTablesDigest = "c065fc93d1b20970a33e46ffc447ed02ec763e3848115fcb0f67793d24012b02"

// TestQuickTablesDigest pins T1–T12 byte for byte: any drift in a
// schedule, a pattern generator or the engine shows up here first.
func TestQuickTablesDigest(t *testing.T) {
	cfg := Config{Quick: true, Seed: 20130527, Workers: 2}
	sum := sha256.New()
	for _, e := range All() {
		sum.Write([]byte(e.Run(cfg).Render()))
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != quickTablesDigest {
		t.Errorf("quick tables digest %s, want %s", got, quickTablesDigest)
	}
}

func TestTablesWorkerCountInvariant(t *testing.T) {
	// The sweep orchestrator's guarantee surfaced at the table level: the
	// same seed renders byte-identically — in every output format — whether
	// the grid runs on one worker or eight.
	one := Config{Quick: true, Trials: 2, Seed: 41, Workers: 1}
	eight := Config{Quick: true, Trials: 2, Seed: 41, Workers: 8}
	for _, id := range []string{"T1", "T4", "T7", "T9"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		ta, tb := e.Run(one), e.Run(eight)
		for _, format := range []string{"text", "csv", "json"} {
			a, err := ta.Emit(format)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tb.Emit(format)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s %s output differs between 1 and 8 workers", id, format)
			}
		}
	}
}

func TestTableEmitFormats(t *testing.T) {
	tbl := &Table{ID: "TX", Title: "demo", Claim: "c", Header: []string{"a", "b"}}
	tbl.AddRow("1", `x,"y`)
	tbl.AddNote("n")
	csv, err := tbl.Emit("csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TX — demo", "a,b", `1,"x,""y"`, "# note: n"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing %q:\n%s", want, csv)
		}
	}
	js, err := tbl.Emit("json")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "TX"`, `"rows"`} {
		if !strings.Contains(js, want) {
			t.Errorf("json missing %q", want)
		}
	}
	if _, err := tbl.Emit("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestConfigTrials(t *testing.T) {
	if (Config{Quick: true}).trials(3, 9) != 3 {
		t.Error("quick default wrong")
	}
	if (Config{}).trials(3, 9) != 9 {
		t.Error("full default wrong")
	}
	if (Config{Trials: 5}).trials(3, 9) != 5 {
		t.Error("override wrong")
	}
}

func TestSeedDerivationStable(t *testing.T) {
	c := Config{Seed: 1}
	if c.seed(2) != c.seed(2) {
		t.Error("seed not deterministic")
	}
	if c.seed(2) == c.seed(3) {
		t.Error("seed ignores tag")
	}
}

func TestHelpers(t *testing.T) {
	if maxOf([]int64{3, 9, 1}) != 9 {
		t.Error("maxOf wrong")
	}
	if meanOf([]int64{2, 4}) != 3 {
		t.Error("meanOf wrong")
	}
}
