package sweep_test

import (
	"bytes"
	"testing"

	"nsmac/internal/sweep"
)

// kernelDiffSpec builds a grid that mixes closed-form cells (tree_cd on
// collision-silent channels) with engine-routed ones (the oblivious
// roundrobin, localssf, wakeupc, wakeup_with_k and rpd, and tree_cd on cd
// and sender_cd), so the differential covers per-cell routing inside one
// grid. Channels may include the perturbing noisy/jam models, which
// kernel.Run replays since they declare a model.KernelPerturber shape.
func kernelDiffSpec(t *testing.T, channels string) sweep.Spec {
	t.Helper()
	cases, err := sweep.CasesByName("roundrobin,wakeupc,wakeup_with_k,rpd,localssf,tree_cd")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sweep.ParsePatterns("staggered:3,simultaneous,uniform:16")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:     "kernel-diff",
		Cases:    cases,
		Patterns: gens,
		Ns:       []int{32, 64},
		Ks:       []int{1, 4, 16},
		Trials:   4,
		Seed:     0xd1ff5eed,
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

// renderAll returns the three render formats concatenated: "byte-identical
// output" means all of them, not just one.
func renderAll(t *testing.T, r *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(r.Text())
	buf.WriteString(r.CSV())
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(js)
	return buf.Bytes()
}

// TestKernelRoutingByteIdentical is the tentpole's acceptance criterion:
// kernel-routed grids render byte-identically to the engine-only grid at
// worker counts {1,2,4,8} × batch {1,8,64}, with and without a channel axis
// (including perturbing channels, which must fall back per cell).
func TestKernelRoutingByteIdentical(t *testing.T) {
	for _, channels := range []string{"", "none,cd,sender_cd,ack", "none,noisy:0.1,jam:2"} {
		base := kernelDiffSpec(t, channels)
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
					t.Fatalf("channels=%q workers=%d batch=%d: kernel output differs from engine output",
						channels, workers, batch)
				}
			}
		}
	}
}

// TestKernelShardMergeByteIdentical: sharding a kernel-routed spec and
// merging must reproduce the engine-only whole run byte for byte.
func TestKernelShardMergeByteIdentical(t *testing.T) {
	base := kernelDiffSpec(t, "none,noisy:0.1")
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
		spec.Workers = 1 + i // shard workers must not matter either
		sr, err := spec.Shard(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through the wire encoding, as the dispatcher does.
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
		t.Fatal("sharded kernel run merged differently from the engine whole run")
	}
}

// TestDisableKernelIsPureFallback: with the kernel disabled the spec layer
// must behave exactly as before the fast path existed — guarded here by
// comparing against the kernel-routed run, which the differentials above tie
// to the reference simulator.
func TestDisableKernelIsPureFallback(t *testing.T) {
	spec := kernelDiffSpec(t, "")
	on, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	spec.DisableKernel = true
	off, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, on), renderAll(t, off)) {
		t.Fatal("DisableKernel changed output bytes")
	}
}
