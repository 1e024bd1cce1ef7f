package experiments

import (
	"testing"

	"nsmac/internal/sweep"
)

// TestRegisteredCasesResolveAndRun checks the experiment variants registered
// in cases.go resolve by name and run on a tiny grid — the T8(a) ablation
// pair must reproduce its signature asymmetry under the spoiler attack.
func TestRegisteredCasesResolveAndRun(t *testing.T) {
	for _, entry := range []string{
		"waitandgo", "waitandgo_nowait", "wakeupc_nowindow", "wakeupc_c:2", "clockskew:16",
	} {
		if _, err := sweep.ResolveCase(entry); err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
	}
	if _, err := sweep.ResolveCase("wakeupc_c"); err == nil {
		t.Error("wakeupc_c without its required argument accepted")
	}
	if _, err := sweep.ResolveCase("waitandgo:3"); err == nil {
		t.Error("waitandgo with an argument accepted")
	}

	// The registered variants travel in a spec document like any other case.
	doc := sweep.SpecDoc{
		Name: "t8a", Cases: []string{"waitandgo", "waitandgo_nowait"}, Patterns: []string{"spoiler"},
		Ns: []int{64}, Ks: []int{8}, Trials: 2, Seed: 5,
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	std, abl := res.Cells[0].Agg.Summary(), res.Cells[1].Agg.Summary()
	if abl.Mean <= std.Mean {
		t.Errorf("ablated wait_and_go should suffer more under spoiler: std mean %.1f, ablated %.1f",
			std.Mean, abl.Mean)
	}
}
