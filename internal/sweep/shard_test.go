package sweep_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"nsmac/internal/stats"
	"nsmac/internal/sweep"
)

// shardSpec is the workload the cross-process acceptance tests run: real
// algorithms including a randomized one, black-box and white-box patterns,
// and a trial count (5) that does not divide evenly into most shard counts.
func shardSpec(t *testing.T) sweep.Spec {
	t.Helper()
	cases, err := sweep.CasesByName("wakeupc,rpd")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sweep.ParsePatterns("staggered:3,uniform:16,spoiler")
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Spec{
		Name: "shards", Cases: cases, Patterns: gens,
		Ns: []int{64, 128}, Ks: []int{2, 8}, Trials: 5, Seed: 424242,
	}
}

// runShards executes every shard of an m-way plan through the full wire
// path — RunShard, Encode, Decode — and returns the decoded envelopes.
func runShards(t *testing.T, spec sweep.Spec, m int) []*sweep.ShardResult {
	t.Helper()
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*sweep.ShardResult, m)
	for i := 0; i < m; i++ {
		sr, err := g.RunShard(i, m)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := sweep.DecodeShardResult(data)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = back
	}
	return out
}

// TestShardMergeByteIdentical is the PR's acceptance criterion: a grid
// executed as m independent shards, shipped through the JSON envelope, and
// merged renders text, CSV, and JSON byte-identical to the same spec run in
// one process — at any worker count.
func TestShardMergeByteIdentical(t *testing.T) {
	spec := shardSpec(t)
	spec.Workers = 1
	base, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	baseText, _ := base.Render("text")
	baseCSV, _ := base.Render("csv")
	baseJSON, _ := base.Render("json")

	// The in-process guarantee extends across worker counts; the sharded
	// runs below must land on the same bytes.
	multi := shardSpec(t)
	multi.Workers = 4
	multiRes, err := multi.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if mt, _ := multiRes.Render("text"); mt != baseText {
		t.Fatal("workers=4 differs from workers=1 — in-process determinism broken")
	}

	for _, m := range []int{1, 2, 3, 8} {
		shards := runShards(t, shardSpec(t), m)
		merged, err := sweep.Merge(shards...)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		gotText, _ := merged.Render("text")
		gotCSV, _ := merged.Render("csv")
		gotJSON, _ := merged.Render("json")
		if gotText != baseText {
			t.Errorf("m=%d: merged text differs from in-process run:\n%s\nvs\n%s", m, gotText, baseText)
		}
		if gotCSV != baseCSV {
			t.Errorf("m=%d: merged CSV differs from in-process run", m)
		}
		if gotJSON != baseJSON {
			t.Errorf("m=%d: merged JSON differs from in-process run", m)
		}
	}

	// Merge order must not matter (shards arrive from machines in any order).
	shards := runShards(t, shardSpec(t), 3)
	merged, err := sweep.Merge(shards[2], shards[0], shards[1])
	if err != nil {
		t.Fatal(err)
	}
	if gotText, _ := merged.Render("text"); gotText != baseText {
		t.Error("merge is order-sensitive")
	}
}

// TestShardMoreShardsThanTrials: a plan wider than the trial count leaves
// some shards empty; the merge must still be exact.
func TestShardMoreShardsThanTrials(t *testing.T) {
	spec := shardSpec(t)
	spec.Trials = 2
	base, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	baseText, _ := base.Render("text")

	spec2 := shardSpec(t)
	spec2.Trials = 2
	shards := runShards(t, spec2, 8)
	for i := 2; i < 8; i++ {
		for _, c := range shards[i].Cells {
			if c.Agg.Trials != 0 || len(c.Agg.Rounds) != 0 {
				t.Fatalf("shard %d should be empty, has %+v", i, c.Agg)
			}
		}
	}
	merged, err := sweep.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if gotText, _ := merged.Render("text"); gotText != baseText {
		t.Error("merged output differs with empty shards")
	}
}

// TestShardTrialsPartition checks the striped plan covers every global trial
// exactly once at any shard count.
func TestShardTrialsPartition(t *testing.T) {
	for _, trials := range []int{1, 2, 5, 8, 100} {
		for _, m := range []int{1, 2, 3, 7, 150} {
			total := 0
			for i := 0; i < m; i++ {
				total += sweep.ShardTrials(trials, i, m)
			}
			if total != trials {
				t.Errorf("trials=%d m=%d: plan covers %d trials", trials, m, total)
			}
		}
	}

	// White-box coverage of the index mapping: a counting grid records which
	// (cell, trial, seed) coordinates each shard executed.
	type key struct{ cell, trial int }
	for _, m := range []int{1, 2, 3, 4} {
		seen := map[key]int{}
		g := countingGrid(2)
		for i := 0; i < m; i++ {
			sg, err := g.Shard(i, m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sg.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range res.Cells {
				for _, s := range c.Samples {
					// countingGrid encodes cell*100+trial in Rounds and the
					// derived seed (mod 1000) in Transmissions.
					cell, trial := int(s.Rounds)/100, int(s.Rounds)%100
					if cell != ci {
						t.Fatalf("m=%d shard %d: sample from cell %d landed in cell %d", m, i, cell, ci)
					}
					if trial%m != i {
						t.Fatalf("m=%d shard %d ran trial %d (not its stripe)", m, i, trial)
					}
					if want := sweep.TrialSeed(42, cell, trial) % 1000; s.Transmissions != int64(want) {
						t.Fatalf("m=%d shard %d: trial (%d,%d) ran with wrong derived seed", m, i, cell, trial)
					}
					seen[key{cell, trial}]++
				}
			}
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("m=%d: trial %+v ran %d times", m, k, n)
			}
		}
		if len(seen) != 3*4 {
			t.Fatalf("m=%d: plan covered %d of 12 trials", m, len(seen))
		}
	}
}

// TestAggregateWireMergeExactness is the codec half of the acceptance
// criterion: encode→decode→Merge of shard aggregates equals in-process
// merging, field for field, including the float samples bit-for-bit.
func TestAggregateWireMergeExactness(t *testing.T) {
	spec := shardSpec(t)
	base, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	shards := runShards(t, shardSpec(t), 3)
	for ci := range base.Cells {
		var merged stats.Aggregate
		for _, sr := range shards {
			wire := sr.Cells[ci].Agg
			data, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			var back stats.AggregateWire
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wire, back) {
				t.Fatalf("cell %d: wire aggregate changed across JSON: %+v vs %+v", ci, wire, back)
			}
			agg, err := back.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			merged.Merge(agg)
		}
		want := base.Cells[ci].Agg
		if merged.Trials != want.Trials || merged.Successes != want.Successes ||
			merged.Collisions != want.Collisions || merged.Silences != want.Silences ||
			merged.Transmissions != want.Transmissions {
			t.Fatalf("cell %d: merged counters diverge: %+v vs %+v", ci, merged, want)
		}
		if merged.Summary() != want.Summary() {
			t.Fatalf("cell %d: merged summary diverges (float samples not exact)", ci)
		}
	}
}

// TestMergeValidation drives the merge error paths: incomplete plans,
// duplicate shards, mixed grids, tampered envelopes.
func TestMergeValidation(t *testing.T) {
	spec := shardSpec(t)
	shards := runShards(t, spec, 3)

	if _, err := sweep.Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := sweep.Merge(shards[0], shards[1]); err == nil {
		t.Error("incomplete plan accepted")
	}
	if _, err := sweep.Merge(shards[0], shards[1], shards[1]); err == nil {
		t.Error("duplicate shard accepted")
	}

	other := spec
	other.Seed++
	otherShards := runShards(t, other, 3)
	if _, err := sweep.Merge(shards[0], shards[1], otherShards[2]); err == nil {
		t.Error("shards of different grids merged")
	}

	tampered := *shards[2]
	tampered.Cells = append([]sweep.ShardCell(nil), shards[2].Cells...)
	bad := tampered.Cells[0]
	bad.Agg.Rounds = bad.Agg.Rounds[:len(bad.Agg.Rounds)-1]
	tampered.Cells[0] = bad
	if _, err := sweep.Merge(shards[0], shards[1], &tampered); err == nil {
		t.Error("truncated shard aggregate accepted")
	}
}

// TestShardTrialsWiderPlans pins the striped plan's edge arithmetic when the
// plan is wider than the trial count: exactly the first `trials` shards get
// one trial, the rest get zero, and the zero-trial envelopes still validate.
func TestShardTrialsWiderPlans(t *testing.T) {
	for _, tc := range []struct {
		trials, index, count, want int
	}{
		{2, 0, 5, 1}, {2, 1, 5, 1}, {2, 2, 5, 0}, {2, 4, 5, 0},
		{1, 0, 8, 1}, {1, 7, 8, 0},
		{5, 0, 2, 3}, {5, 1, 2, 2}, // uneven split, striped
		{4, 3, 4, 1}, // exact split boundary
	} {
		if got := sweep.ShardTrials(tc.trials, tc.index, tc.count); got != tc.want {
			t.Errorf("ShardTrials(%d, %d, %d) = %d, want %d", tc.trials, tc.index, tc.count, got, tc.want)
		}
	}

	// A zero-trial shard's envelope survives the full wire path and the
	// hardened validation.
	spec := shardSpec(t)
	spec.Trials = 2
	sr, err := spec.Shard(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Validate(); err != nil {
		t.Fatalf("empty shard envelope invalid: %v", err)
	}
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.DecodeShardResult(data); err != nil {
		t.Fatalf("empty shard envelope rejected at decode: %v", err)
	}
}

// TestPlanEnvelope: the identity-only envelope matches what RunShard emits,
// minus the aggregates.
func TestPlanEnvelope(t *testing.T) {
	g, err := shardSpec(t).Grid()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.PlanEnvelope(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := g.RunShard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fingerprint != ran.Fingerprint || plan.Name != ran.Name ||
		plan.Shard != ran.Shard || plan.Shards != ran.Shards || plan.Trials != ran.Trials {
		t.Fatalf("plan identity %+v differs from run identity %+v", plan, ran)
	}
	if !reflect.DeepEqual(plan.Axes, ran.Axes) {
		t.Fatalf("axes %v vs %v", plan.Axes, ran.Axes)
	}
	if len(plan.Cells) != len(ran.Cells) {
		t.Fatalf("%d planned cells, %d run cells", len(plan.Cells), len(ran.Cells))
	}
	for i := range plan.Cells {
		if !reflect.DeepEqual(plan.Cells[i].Cell, ran.Cells[i].Cell) {
			t.Fatalf("cell %d labels %v vs %v", i, plan.Cells[i].Cell, ran.Cells[i].Cell)
		}
		if plan.Cells[i].Agg.Trials != 0 {
			t.Fatalf("plan envelope cell %d carries trials", i)
		}
	}
	if _, err := g.PlanEnvelope(3, 3); err == nil {
		t.Error("out-of-range plan accepted")
	}
	if _, err := g.PlanEnvelope(0, 0); err == nil {
		t.Error("zero-count plan accepted")
	}
}

// TestMergeRejectsOverlappingShards: shards whose coordinates overlap (the
// same stripe submitted under two indices, or an index outside the plan)
// cannot reassemble into a full grid.
func TestMergeRejectsOverlappingShards(t *testing.T) {
	spec := shardSpec(t)
	shards := runShards(t, spec, 3)

	// Same stripe under two indices: relabeling shard 0 as shard 2 makes
	// indices {0, 1, 2} but the per-cell trial counts no longer match the
	// plan for index 2 (striping gives shard 0 of 5 trials 2, shard 2 only
	// 1), so the merge must refuse.
	relabel := *shards[0]
	relabel.Shard = 2
	if _, err := sweep.Merge(shards[0], shards[1], &relabel); err == nil {
		t.Error("overlapping stripe accepted")
	}

	// An index outside the plan can never form 0..m-1.
	outside := *shards[2]
	outside.Shard = 7
	outside.Shards = 3
	if _, err := sweep.Merge(shards[0], shards[1], &outside); err == nil {
		t.Error("out-of-plan index accepted")
	}
}

// TestSpecShard exercises the Spec-level single-call form.
func TestSpecShard(t *testing.T) {
	sr, err := shardSpec(t).Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Shard != 1 || sr.Shards != 2 || sr.Trials != 5 {
		t.Fatalf("bad envelope: %+v", sr)
	}
	for _, c := range sr.Cells {
		if c.Agg.Trials != 2 { // trials 1 and 3 of 0..4
			t.Fatalf("shard 1/2 of 5 trials ran %d", c.Agg.Trials)
		}
	}
	if _, err := shardSpec(t).Shard(2, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := shardSpec(t).Shard(0, 0); err == nil {
		t.Error("zero-count plan accepted")
	}
}

// TestMergePartial: an honest mid-campaign snapshot — any subset of a
// plan's shards merges into a Result covering exactly the subset's trials,
// and grows into the full-merge bytes as the remaining shards land.
func TestMergePartial(t *testing.T) {
	spec := shardSpec(t)
	shards := runShards(t, spec, 3)

	base, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	baseText, _ := base.Render("text")

	// Subset {0, 2}: 5 trials stripe as shard0={0,3}, shard2={2}, so the
	// partial covers 3 trials per cell.
	part, err := sweep.MergePartial(shards[0], shards[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range part.Cells {
		if c.Agg.Trials != 3 {
			t.Fatalf("partial cell covers %d trials, want 3", c.Agg.Trials)
		}
	}
	if text, _ := part.Render("text"); text == baseText {
		t.Error("partial render claims to equal the full run")
	}

	// Order-insensitive, like Merge.
	swapped, err := sweep.MergePartial(shards[2], shards[0])
	if err != nil {
		t.Fatal(err)
	}
	a, _ := part.Render("json")
	b, _ := swapped.Render("json")
	if a != b {
		t.Error("partial merge is order-sensitive")
	}

	// The full subset reproduces Merge byte for byte.
	all, err := sweep.MergePartial(shards[0], shards[1], shards[2])
	if err != nil {
		t.Fatal(err)
	}
	if text, _ := all.Render("text"); text != baseText {
		t.Error("full-subset partial merge differs from one-process run")
	}
}

// TestMergePartialValidation: duplicates, cross-grid mixtures, and subsets
// that cover zero trials are refused.
func TestMergePartialValidation(t *testing.T) {
	spec := shardSpec(t)
	shards := runShards(t, spec, 3)

	if _, err := sweep.MergePartial(); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := sweep.MergePartial(shards[1], shards[1]); err == nil {
		t.Error("duplicate shard accepted")
	}
	other := spec
	other.Seed = 7
	foreign := runShards(t, other, 3)
	if _, err := sweep.MergePartial(shards[0], foreign[1]); err == nil {
		t.Error("cross-grid subset accepted")
	}

	// A plan wider than the trial count has empty shards; a subset of only
	// empty shards covers zero trials and cannot render.
	narrow := spec
	narrow.Trials = 2
	wide := runShards(t, narrow, 5)
	if _, err := sweep.MergePartial(wide[3], wide[4]); err == nil {
		t.Error("zero-trial subset accepted")
	}
	// But a mixed subset containing a covered stripe is fine.
	if _, err := sweep.MergePartial(wide[0], wide[4]); err != nil {
		t.Errorf("mixed subset rejected: %v", err)
	}
}
