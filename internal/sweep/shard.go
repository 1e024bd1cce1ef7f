package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"nsmac/internal/sim"
	"nsmac/internal/stats"
)

// This file is the cross-process half of the orchestrator: deterministic
// shard planning over the (cell, trial) space, a serializable per-shard
// result envelope, and the merge that reconstitutes the single-process
// result byte-for-byte.
//
// The plan is trial-striped: shard i of m runs, for every cell, exactly the
// trials t with t ≡ i (mod m). Striping (rather than contiguous trial
// blocks) balances expensive white-box cells across shards, and — because a
// trial's seed is a pure function of (grid seed, cell, global trial index) —
// a sharded trial computes the identical sample it would have computed
// in-process. Merging sums the counters and concatenates the round samples;
// every derived statistic is recomputed from the merged multiset (Summarize
// sorts before accumulating), so the text/CSV/JSON render of a merged run is
// byte-identical to the same grid executed in one process at any worker
// count.

// ShardTrials returns how many of `trials` per-cell trials shard `index` of
// `count` executes under the trial-striped plan: the number of t in
// [0, trials) with t ≡ index (mod count).
func ShardTrials(trials, index, count int) int {
	if index >= trials {
		return 0
	}
	return (trials - index + count - 1) / count
}

// Shard returns the grid restricted to shard index of count under the
// trial-striped plan. The returned grid runs ShardTrials(...) trials per
// cell; its trial function maps each local trial back to its global (cell,
// trial) coordinates and derives the unchanged global seed, so samples are
// bit-identical to the corresponding in-process trials. A shard with zero
// trials is expressible but not executable (Grid.Validate requires a trial);
// RunShard handles that case by emitting an empty envelope.
func (g Grid) Shard(index, count int) (Grid, error) {
	if count < 1 {
		return Grid{}, fmt.Errorf("sweep: shard count %d, want >= 1", count)
	}
	if index < 0 || index >= count {
		return Grid{}, fmt.Errorf("sweep: shard index %d out of [0, %d)", index, count)
	}
	sg := g
	sg.Trials = ShardTrials(g.Trials, index, count)
	global := func(local int) int { return index + local*count }
	if inner := g.RunEngine; inner != nil {
		sg.RunEngine = func(e *sim.Engine, cell, local int, _ uint64) Sample {
			t := global(local)
			return inner(e, cell, t, TrialSeed(g.Seed, cell, t))
		}
	}
	return sg, nil
}

// Fingerprint hashes the grid's identity — name, axes, cell labels, trial
// count, and seed — into a short hex string. Two grids with equal
// fingerprints enumerate the same (cell, trial) space with the same derived
// seeds, which is what Merge requires of its shards. Trial functions are
// closures and cannot be hashed; the fingerprint is a guard against mixing
// grids, not a proof the closures match.
func (g Grid) Fingerprint() string {
	// The hashed stream is fixed: the quoted name, then the axis count,
	// cell count, trial count and seed, each after a space, and a newline;
	// every quoted axis; and per cell a newline, its label count and its
	// quoted labels. Quoting is strconv.Quote (fmt's %q). Run stores name
	// their directories by the digest, so TestFingerprintGolden pins it.
	n := 64 + len(g.Name)
	for _, a := range g.Axes {
		n += len(a) + 2
	}
	for _, cell := range g.Cells {
		n += 4
		for _, label := range cell {
			n += len(label) + 2
		}
	}
	b := make([]byte, 0, n)
	b = strconv.AppendQuote(b, g.Name)
	for _, v := range []int{len(g.Axes), len(g.Cells), g.Trials} {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, g.Seed, 10)
	b = append(b, '\n')
	for _, a := range g.Axes {
		b = strconv.AppendQuote(b, a)
	}
	for _, cell := range g.Cells {
		b = append(b, '\n')
		b = strconv.AppendInt(b, int64(len(cell)), 10)
		for _, label := range cell {
			b = strconv.AppendQuote(b, label)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// ShardCell is one cell's contribution from one shard: its coordinates plus
// the exact wire aggregate of the trials the shard ran.
type ShardCell struct {
	Cell []string            `json:"cell"`
	Agg  stats.AggregateWire `json:"agg"`
}

// ShardResult is the serializable envelope one shard process emits: enough
// identity to validate the merge (fingerprint, shard geometry, full trial
// count) plus the per-cell wire aggregates.
type ShardResult struct {
	// Fingerprint identifies the full grid this shard was cut from; Merge
	// refuses shards with differing fingerprints.
	Fingerprint string   `json:"fingerprint"`
	Name        string   `json:"name"`
	Axes        []string `json:"axes"`
	// Shard and Shards are the plan coordinates: this envelope holds shard
	// Shard of Shards.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Trials is the FULL grid's per-cell trial count (not this shard's);
	// Merge checks the reassembled cells reach exactly this many trials.
	Trials int         `json:"trials"`
	Cells  []ShardCell `json:"cells"`
}

// Validate checks the envelope's internal consistency: legal plan
// coordinates, a non-empty fingerprint, and per-cell wire aggregates that
// pass the stats integrity check and carry exactly the trial count the
// striped plan assigns this shard. It does not (and cannot) prove the cells
// were computed by the right grid — that is what the fingerprint comparison
// in Merge and the dispatch driver is for.
func (r *ShardResult) Validate() error {
	if r.Shards < 1 {
		return fmt.Errorf("sweep: shard envelope declares %d shards", r.Shards)
	}
	if r.Shard < 0 || r.Shard >= r.Shards {
		return fmt.Errorf("sweep: shard index %d out of [0, %d)", r.Shard, r.Shards)
	}
	if r.Trials < 0 {
		return fmt.Errorf("sweep: shard envelope declares %d trials", r.Trials)
	}
	if r.Fingerprint == "" {
		return fmt.Errorf("sweep: shard envelope has no grid fingerprint")
	}
	want := ShardTrials(r.Trials, r.Shard, r.Shards)
	for i, c := range r.Cells {
		if err := c.Agg.Validate(); err != nil {
			return fmt.Errorf("sweep: shard %d cell %d: %w", r.Shard, i, err)
		}
		if c.Agg.Trials != want {
			return fmt.Errorf("sweep: shard %d cell %d carries %d trials, plan says %d",
				r.Shard, i, c.Agg.Trials, want)
		}
	}
	return nil
}

// PlanEnvelope builds the identity half of shard index of count's envelope —
// fingerprint, name, axes, plan coordinates, full trial count, and the cell
// labels with zero aggregates — without executing anything. RunShard fills
// the aggregates in (a zero-trial shard ships the bare envelope as is), and
// callers that need to know what an envelope for this grid must look like
// without running it can compare against these identity fields.
func (g Grid) PlanEnvelope(index, count int) (*ShardResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if count < 1 {
		return nil, fmt.Errorf("sweep: shard count %d, want >= 1", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("sweep: shard index %d out of [0, %d)", index, count)
	}
	out := &ShardResult{
		Fingerprint: g.Fingerprint(),
		Name:        g.Name,
		Axes:        append([]string(nil), g.Axes...),
		Shard:       index,
		Shards:      count,
		Trials:      g.Trials,
		Cells:       make([]ShardCell, len(g.Cells)),
	}
	for i, cell := range g.Cells {
		out.Cells[i] = ShardCell{Cell: append([]string(nil), cell...)}
	}
	return out, nil
}

// RunShard executes shard index of count of the grid and wraps the outcome
// in its serializable envelope. Shards with no trials (index >= Trials)
// return an envelope of zero aggregates without executing anything.
func (g Grid) RunShard(index, count int) (*ShardResult, error) {
	out, err := g.PlanEnvelope(index, count)
	if err != nil {
		return nil, err
	}
	sg, err := g.Shard(index, count)
	if err != nil {
		return nil, err
	}
	if sg.Trials == 0 {
		return out, nil
	}
	res, err := sg.Execute()
	if err != nil {
		return nil, err
	}
	for i, c := range res.Cells {
		out.Cells[i] = ShardCell{Cell: c.Cell, Agg: c.Agg.Wire()}
	}
	return out, nil
}

// Shard compiles the spec and executes shard index of count — the
// single-call form behind `wakeup-bench -spec grid.json -shard i/m`.
func (s Spec) Shard(index, count int) (*ShardResult, error) {
	g, err := s.Grid()
	if err != nil {
		return nil, err
	}
	return g.RunShard(index, count)
}

// Merge reassembles a full sweep Result from the complete set of shard
// envelopes of one grid. It validates that the shards agree on the grid
// identity (fingerprint, axes, cells, plan size), that exactly the shard
// indices 0..m-1 are present once each, and that every reassembled cell
// reaches the grid's full trial count. The merged result carries the cell
// aggregates only (per-trial samples stay in the shard processes); its
// text/CSV/JSON render is byte-identical to the single-process run because
// counters add exactly and every derived statistic is recomputed from the
// sorted union of round samples.
func Merge(shards ...*ShardResult) (*Result, error) {
	ordered, err := orderShards(shards)
	if err != nil {
		return nil, err
	}
	first := ordered[0]
	m := first.Shards
	if len(ordered) != m {
		return nil, fmt.Errorf("sweep: have %d shard files for a %d-shard plan", len(ordered), m)
	}
	for i, r := range ordered {
		if r.Shard != i {
			return nil, fmt.Errorf("sweep: shard indices are not exactly 0..%d (missing or duplicate shard %d)", m-1, i)
		}
	}
	return mergeOrdered(ordered, first.Trials)
}

// MergePartial reassembles a Result from any subset of one grid's shard
// envelopes — the incremental form a campaign server streams while shards
// are still in flight. The subset must be non-empty, hold distinct shard
// indices of one plan, and cover at least one trial; each cell's aggregate
// then carries exactly the trials of the shards present, so the render shows
// honest partial statistics. When the subset is the complete plan, the
// result — and its render — is identical to Merge's.
func MergePartial(shards ...*ShardResult) (*Result, error) {
	ordered, err := orderShards(shards)
	if err != nil {
		return nil, err
	}
	first := ordered[0]
	m := first.Shards
	if len(ordered) > m {
		return nil, fmt.Errorf("sweep: have %d shard files for a %d-shard plan", len(ordered), m)
	}
	trials := 0
	for i, r := range ordered {
		if i > 0 && r.Shard == ordered[i-1].Shard {
			return nil, fmt.Errorf("sweep: duplicate shard %d in partial merge", r.Shard)
		}
		trials += ShardTrials(first.Trials, r.Shard, m)
	}
	if trials == 0 {
		return nil, fmt.Errorf("sweep: partial merge covers no trials")
	}
	return mergeOrdered(ordered, trials)
}

// orderShards sorts a copy of the envelope set by shard index and validates
// the properties every merge needs: at least one envelope, a sane plan size,
// and agreement on the grid identity and plan geometry.
func orderShards(shards []*ShardResult) ([]*ShardResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: merge of zero shards")
	}
	ordered := append([]*ShardResult(nil), shards...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Shard < ordered[j].Shard })

	first := ordered[0]
	if first.Shards < 1 {
		return nil, fmt.Errorf("sweep: shard envelope declares %d shards", first.Shards)
	}
	for _, r := range ordered {
		if r.Fingerprint != first.Fingerprint {
			return nil, fmt.Errorf("sweep: shard %d is from a different grid (fingerprint %s vs %s)",
				r.Shard, r.Fingerprint, first.Fingerprint)
		}
		if r.Shards != first.Shards || r.Trials != first.Trials || len(r.Cells) != len(first.Cells) {
			return nil, fmt.Errorf("sweep: shard %d disagrees on the plan geometry", r.Shard)
		}
	}
	return ordered, nil
}

// mergeOrdered merges the validated, index-ordered envelopes cell by cell,
// requiring every reassembled cell to reach exactly wantTrials trials (the
// full grid count for Merge, the covered subset for MergePartial).
func mergeOrdered(ordered []*ShardResult, wantTrials int) (*Result, error) {
	first := ordered[0]
	m := first.Shards
	out := &Result{
		Name:  first.Name,
		Axes:  append([]string(nil), first.Axes...),
		Cells: make([]CellResult, len(first.Cells)),
	}
	for ci := range first.Cells {
		labels := first.Cells[ci].Cell
		var agg stats.Aggregate
		agg.Reserve(wantTrials)
		for _, r := range ordered {
			sc := r.Cells[ci]
			if !slices.Equal(sc.Cell, labels) {
				return nil, fmt.Errorf("sweep: shard %d cell %d labeled %v, want %v", r.Shard, ci, sc.Cell, labels)
			}
			part, err := sc.Agg.Aggregate()
			if err != nil {
				return nil, fmt.Errorf("sweep: shard %d cell %d: %w", r.Shard, ci, err)
			}
			if want := ShardTrials(first.Trials, r.Shard, m); part.Trials != want {
				return nil, fmt.Errorf("sweep: shard %d cell %d carries %d trials, plan says %d",
					r.Shard, ci, part.Trials, want)
			}
			agg.Merge(part)
		}
		if agg.Trials != wantTrials {
			return nil, fmt.Errorf("sweep: cell %d reassembled %d trials, want %d", ci, agg.Trials, wantTrials)
		}
		out.Cells[ci] = CellResult{Cell: append([]string(nil), labels...), Agg: agg}
	}
	return out, nil
}
