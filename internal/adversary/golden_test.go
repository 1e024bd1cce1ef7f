package adversary_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the spoiler goldens under testdata from the current code")

// goldenChannels is the channel axis of the spoiler golden table.
var goldenChannels = []string{"none", "cd", "ack", "noisy:0.1", "jam:2"}

// goldenRow is one spoiler run of the golden table.
type goldenRow struct {
	c     sweep.Case
	ch    model.ChannelModel
	n, k  int
	first int
	seed  uint64
	spoil adversary.SpoilerResult
	res   model.Result
}

// obliviousCases returns every registered case the spoiler can attack.
func obliviousCases(t testing.TB) []sweep.Case {
	t.Helper()
	var out []sweep.Case
	for _, name := range sweep.CaseNames() {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Adaptive {
			out = append(out, c)
		}
	}
	return out
}

// goldenInputs enumerates the table: every oblivious case × channel × first
// ID in {1, ⌈n/2⌉, n} at n ∈ {16, 64}, k ∈ {2, 4, 8}, plus the wakeupc run
// whose first spoil lands at slot 0 with an injected ID below the first
// station's (n=32, k=4, seed 1, noisy:0.1: ids=[9 2] wakes=[0 0]).
func goldenInputs(t testing.TB) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, c := range obliviousCases(t) {
		for _, chName := range goldenChannels {
			ch, err := sweep.ResolveChannel(chName)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{16, 64} {
				for _, k := range []int{2, 4, 8} {
					for _, first := range []int{1, (n + 1) / 2, n} {
						rows = append(rows, goldenRow{c: c, ch: ch, n: n, k: k, first: first, seed: uint64(n*100 + k*10 + first)})
					}
				}
			}
		}
	}
	c, err := sweep.ResolveCase("wakeupc")
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, goldenRow{c: c, ch: model.Noisy(0.1), n: 32, k: 4, first: 9, seed: 1})
}

// runGolden mounts the spoiler for one row.
func runGolden(t testing.TB, r *goldenRow) {
	t.Helper()
	algo := r.c.Algo(r.n, r.k)
	p := r.c.Params(r.n, r.k, r.seed)
	horizon := r.c.Horizon(r.n, r.k)
	var err error
	r.spoil, r.res, err = adversary.Spoiler(sim.NewEngine(), algo, p, r.k, r.first, sim.Options{Horizon: horizon, Seed: r.seed, Channel: r.ch})
	if err != nil {
		t.Fatalf("%s: %v", r.key(), err)
	}
}

func (r goldenRow) key() string {
	return fmt.Sprintf("%s %s n=%d k=%d first=%d seed=%d", r.c.Name, r.ch.Name(), r.n, r.k, r.first, r.seed)
}

// line renders the row: the spoiler's verdict in full and a digest of the
// engine Result of its run.
func (r goldenRow) line() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r.res)))
	return fmt.Sprintf("%s: ids=%v wakes=%v spoiled=%d rounds=%d ok=%v result=%x",
		r.key(), r.spoil.Pattern.IDs, r.spoil.Pattern.Wakes, r.spoil.Spoiled, r.spoil.Rounds, r.spoil.Succeeded, sum[:6])
}

// TestSpoilerGolden pins the spoiler's pattern, spoils, rounds and verdict,
// and the engine Result of its run, for every row of the golden table.
func TestSpoilerGolden(t *testing.T) {
	rows := goldenInputs(t)
	lines := make([]string, len(rows))
	results := make([]string, len(rows))
	for i := range rows {
		runGolden(t, &rows[i])
		lines[i] = rows[i].line()
		results[i] = fmt.Sprintf("result %+v", rows[i].res)
	}
	compareGolden(t, filepath.Join("testdata", "spoiler_golden.txt"), lines, results)
}
