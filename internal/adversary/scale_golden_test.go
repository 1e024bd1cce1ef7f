package adversary_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// scaleAlgo is one algorithm of the campaign-scale spoiler golden.
type scaleAlgo struct {
	name string
	algo interface {
		model.Algorithm
		Horizon(n, k int) int64
	}
	knowsK bool
}

// scaleAlgos are the wake-probing algorithms at every variant the paper's
// tables run: round-robin, rpd and rpdk, wakeupc at its default constant, at
// c=2 and without the window wait, and wait_and_go with and without its
// boundary wait.
var scaleAlgos = []scaleAlgo{
	{"roundrobin", core.NewRoundRobin(), false},
	{"rpd", core.NewRPD(), false},
	{"rpdk", core.NewRPDWithK(), true},
	{"wakeupc", core.NewWakeupC(), false},
	{"wakeupc(c=2)", &core.WakeupC{C: 2}, false},
	{"wakeupc(no-window-wait)", &core.WakeupC{DisableWindowWait: true}, false},
	{"wait_and_go", core.NewWaitAndGo(), true},
	{"wait_and_go(no-wait)", &core.WaitAndGo{DisableWait: true}, true},
}

// TestSpoilerScaleGolden pins the spoiler at the universe sizes campaign
// grids run, where the 721-row golden (n ≤ 64) cannot see an off-by-one in
// a candidate scan: every algorithm of scaleAlgos × n ∈ {256, 1024} ×
// k ∈ {4, 16, 64} × channel × first ID ∈ {1, n} × two seeds. A row holds
// the attack's spoils, rounds and verdict in full, and digests of its
// pattern and of the engine Result of its run.
func TestSpoilerScaleGolden(t *testing.T) {
	e := sim.NewEngine()
	var lines, results []string
	for _, a := range scaleAlgos {
		for _, chName := range []string{"none", "cd", "noisy:0.1", "jam:2"} {
			ch, err := sweep.ResolveChannel(chName)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{256, 1024} {
				for _, k := range []int{4, 16, 64} {
					for _, first := range []int{1, n} {
						for _, seed := range []uint64{uint64(n + k), 4242} {
							p := model.Params{N: n, S: -1, Seed: seed}
							if a.knowsK {
								p.K = k
							}
							opt := sim.Options{Horizon: a.algo.Horizon(n, k), Seed: seed, Channel: ch}
							sp, res, err := adversary.Spoiler(e, a.algo, p, k, first, opt)
							key := fmt.Sprintf("%s %s n=%d k=%d first=%d seed=%d", a.name, chName, n, k, first, seed)
							if err != nil {
								t.Fatalf("%s: %v", key, err)
							}
							pat := sha256.Sum256([]byte(fmt.Sprint(sp.Pattern.IDs, sp.Pattern.Wakes)))
							sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
							lines = append(lines, fmt.Sprintf("%s: spoiled=%d rounds=%d ok=%v pattern=%x result=%x",
								key, sp.Spoiled, sp.Rounds, sp.Succeeded, pat[:6], sum[:6]))
							results = append(results, fmt.Sprintf("pattern %+v result %+v", sp.Pattern, res))
						}
					}
				}
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "spoiler_scale_golden.txt"), lines, results)
}

// compareGolden checks the rendered rows against the golden file at path,
// or rewrites the file under -update. detail[i] is printed beside a
// mismatching row i.
func compareGolden(t *testing.T, path string, have, detail []string) {
	t.Helper()
	got := strings.Join(have, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s has %d rows, the table %d", path, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("%s row %d:\n got %s\nwant %s\n%s", path, i, have[i], want[i], detail[i])
		}
	}
}
