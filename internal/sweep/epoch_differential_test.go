package sweep_test

import (
	"bytes"
	"strings"
	"testing"

	"nsmac/internal/sweep"
)

// epochDiffSpec builds a grid over the adaptive roster (tree_cd, kg) across
// the full channel spread: the collision-delivering models (cd, sender_cd),
// the collision-masking ones (none, ack), and the perturbing pair. tree_cd
// cells on the collision-masking and perturbing channels run in closed form
// (kernel.Run); the rest run on the engine.
func epochDiffSpec(t *testing.T, channels string) sweep.Spec {
	t.Helper()
	cases, err := sweep.CasesByName("tree_cd,kg")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sweep.ParsePatterns("simultaneous,staggered:3,uniform:16")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:     "epoch-diff",
		Cases:    cases,
		Patterns: gens,
		Ns:       []int{32, 64},
		Ks:       []int{1, 4, 16},
		Trials:   4,
		Seed:     0xe90cd1ff,
	}
	if channels != "" {
		chs, err := sweep.ChannelsByName(channels)
		if err != nil {
			t.Fatal(err)
		}
		spec.Channels = chs
	}
	return spec
}

// TestEpochRoutingByteIdentical: grids with closed-form cells render
// byte-identically (text, CSV and JSON) to the engine-only grid at worker
// counts {1,2,4,8} × batch {1,8,64}, across every channel regime.
func TestEpochRoutingByteIdentical(t *testing.T) {
	for _, channels := range []string{"", "none,cd,sender_cd,ack", "cd,noisy:0.1,jam:2"} {
		base := epochDiffSpec(t, channels)
		ref := base
		ref.DisableKernel = true
		ref.Workers = 1
		ref.Batch = 1
		refRes, err := ref.Execute()
		if err != nil {
			t.Fatal(err)
		}
		want := renderAll(t, refRes)

		for _, workers := range []int{1, 2, 4, 8} {
			for _, batch := range []int{1, 8, 64} {
				spec := base
				spec.Workers = workers
				spec.Batch = batch
				res, err := spec.Execute()
				if err != nil {
					t.Fatal(err)
				}
				if got := renderAll(t, res); !bytes.Equal(got, want) {
					t.Fatalf("channels=%q workers=%d batch=%d: epoch output differs from engine output",
						channels, workers, batch)
				}
			}
		}
	}
}

// TestEpochShardMergeByteIdentical: sharding a spec with closed-form cells
// and merging must reproduce the engine-only whole run byte for byte.
func TestEpochShardMergeByteIdentical(t *testing.T) {
	base := epochDiffSpec(t, "cd,none")
	base.Trials = 5

	ref := base
	ref.DisableKernel = true
	refRes, err := ref.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, refRes)

	const shards = 3
	parts := make([]*sweep.ShardResult, shards)
	for i := 0; i < shards; i++ {
		spec := base
		spec.Workers = 1 + i
		sr, err := spec.Shard(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		parts[i], err = sweep.DecodeShardResult(enc)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := sweep.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, merged); !bytes.Equal(got, want) {
		t.Fatal("sharded epoch run merged differently from the engine whole run")
	}
}

// TestAdaptiveSkipsWhiteBoxPatterns: an adaptive case crossed with a
// white-box family (whose pattern construction needs the oblivious Build)
// must be dropped with a skip line, never compiled into a panicking cell.
func TestAdaptiveSkipsWhiteBoxPatterns(t *testing.T) {
	cases, err := sweep.CasesByName("tree_cd")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sweep.ParsePatterns("simultaneous,spoiler")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:     "adaptive-whitebox",
		Cases:    cases,
		Patterns: gens,
		Channels: nil,
		Ns:       []int{16},
		Ks:       []int{4},
		Trials:   2,
		Seed:     7,
	}
	g, skipped, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 1 {
		t.Fatalf("got %d cells, want 1 (the simultaneous cell only)", len(g.Cells))
	}
	found := false
	for _, line := range skipped {
		if strings.Contains(line, "tree_cd×spoiler") && strings.Contains(line, "white-box") {
			found = true
		}
	}
	if !found {
		t.Fatalf("skip lines %q lack the adaptive×white-box drop", skipped)
	}
	if _, err := g.Execute(); err != nil {
		t.Fatal(err)
	}
}
