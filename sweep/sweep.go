// Package sweep is the public face of nsmac's grid orchestrator: declare an
// experiment grid (algorithms × wake-pattern families × {n, k} axes ×
// trials), run it over a bounded worker pool with per-(cell, trial) derived
// RNG streams, and render byte-identical text/CSV/JSON at any worker count —
// in one process, or sharded across many processes and merged.
//
// A grid is described by one thing, a SpecDoc: a JSON document that
// references algorithms, patterns and channels by registry name and resolves
// one way, to an executable Spec:
//
//	doc, _ := sweep.ParseSpecDoc([]byte(`{
//	    "name": "demo",
//	    "cases": ["wakeupc", "roundrobin"],
//	    "patterns": ["staggered:7", "simultaneous"],
//	    "ns": [256, 1024], "ks": [2, 8],
//	    "trials": 10, "seed": 1
//	}`))
//	spec, _ := doc.Resolve()     // compile names → executable Spec
//	res, _ := spec.Execute()     // run (workers default to GOMAXPROCS)
//	fmt.Print(res.Text())
//
// To fan the same grid out over m processes and reassemble the identical
// result:
//
//	shard, _ := spec.Shard(i, m)          // in process i of m
//	data, _ := shard.Encode()             // ship the envelope anywhere
//	...
//	res, _ := sweep.Merge(shards...)      // text/CSV/JSON == one-process run
//
// New workloads join the name layer with RegisterCase, RegisterPattern and
// RegisterChannel; a registered name must match ^[a-z][a-z0-9_]*$. The
// cmd/wakeup-bench and cmd/wakeup-sim CLIs resolve the same registries, the
// experiment drivers' ablation cases included: wakeup-bench's axis flags
// write a SpecDoc (-dump-spec prints it) and run it like a -spec document
// (-shard i/m, merge), and wakeup-sim runs one instance.
//
// This package re-exports nsmac/internal/sweep; the types are aliases, so
// values flow freely between the public API and the experiment drivers.
package sweep

import (
	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/stats"
	isweep "nsmac/internal/sweep"
)

// Core types (aliases into the internal orchestrator).
type (
	// Spec is the declarative sweep: cases × patterns × ns × ks × trials.
	Spec = isweep.Spec
	// SpecDoc is the serializable JSON description of a Spec.
	SpecDoc = isweep.SpecDoc
	// Case names an algorithm under sweep with its knowledge and horizon.
	Case = isweep.Case
	// CaseFactory builds a registered case from its optional entry argument.
	CaseFactory = isweep.CaseFactory
	// PatternFactory builds a registered pattern family from its entry.
	PatternFactory = isweep.PatternFactory
	// ChannelFactory builds a registered channel model from its entry.
	ChannelFactory = isweep.ChannelFactory
	// ChannelModel is the pluggable channel regime a sweep cell runs under
	// (feedback filtering plus optional noise/jam perturbation).
	ChannelModel = model.ChannelModel
	// Generator is a reproducible wake-pattern family (black- or white-box).
	Generator = adversary.Generator
	// Grid is the low-level sweep unit: explicit cells plus a trial func.
	Grid = isweep.Grid
	// Sample is one trial's outcome inside a cell.
	Sample = isweep.Sample
	// Result is a completed sweep; render with Text, CSV, JSON, or Render.
	Result = isweep.Result
	// CellResult pairs a cell's coordinates with its outcomes.
	CellResult = isweep.CellResult
	// ShardResult is the serializable envelope one shard process emits.
	ShardResult = isweep.ShardResult
	// ShardCell is one cell's contribution from one shard.
	ShardCell = isweep.ShardCell
	// Aggregate accumulates per-trial outcomes and merges across shards.
	Aggregate = stats.Aggregate
	// AggregateWire is the exact wire form of an Aggregate.
	AggregateWire = stats.AggregateWire
)

// ParseSpecDoc decodes a spec document strictly (unknown fields and trailing
// data are errors); resolve it with SpecDoc.Resolve.
func ParseSpecDoc(data []byte) (SpecDoc, error) { return isweep.ParseSpecDoc(data) }

// RegisterCase adds a named algorithm case factory to the registry, making
// it resolvable from -algos lists and SpecDoc case entries. It panics on a
// nil factory, a duplicate name, or a name that does not match
// ^[a-z][a-z0-9_]*$.
func RegisterCase(name string, f CaseFactory) { isweep.RegisterCase(name, f) }

// RegisterPattern adds a named wake-pattern family factory to the registry,
// making it resolvable from -patterns lists and SpecDoc pattern entries.
// Same contract as RegisterCase.
func RegisterPattern(name string, f PatternFactory) { isweep.RegisterPattern(name, f) }

// RegisterChannel adds a named channel-model factory to the registry, making
// it resolvable from -channels lists and SpecDoc channel entries. Same
// contract as RegisterCase.
func RegisterChannel(name string, f ChannelFactory) { isweep.RegisterChannel(name, f) }

// ResolveCase resolves one case entry (`name[:arg]`) against the registry.
func ResolveCase(entry string) (Case, error) { return isweep.ResolveCase(entry) }

// ResolveChannel resolves one channel entry (`name[:arg]`, e.g. "none",
// "noisy:0.05") against the registry.
func ResolveChannel(entry string) (ChannelModel, error) { return isweep.ResolveChannel(entry) }

// ResolvePattern resolves one pattern entry (`name[:arg][@start]`) against
// the registry; start is the first wake slot of an entry without "@start".
func ResolvePattern(entry string, start int64) (Generator, error) {
	return isweep.ResolvePattern(entry, start)
}

// CaseNames returns every registered case name in registration order.
func CaseNames() []string { return isweep.CaseNames() }

// PatternNames returns every registered pattern name in registration order.
func PatternNames() []string { return isweep.PatternNames() }

// ChannelNames returns every registered channel name in registration order.
func ChannelNames() []string { return isweep.ChannelNames() }

// StandardCaseNames returns the canonical algorithm name list ("all").
func StandardCaseNames() []string { return isweep.StandardCaseNames() }

// ParseInts parses a comma-separated positive integer axis ("256,1024").
func ParseInts(list string) ([]int, error) { return isweep.ParseInts(list) }

// Merge reassembles a full sweep Result from the complete set of shard
// envelopes of one grid; its text/CSV/JSON render is byte-identical to the
// single-process run of the same spec.
func Merge(shards ...*ShardResult) (*Result, error) { return isweep.Merge(shards...) }

// MergePartial reassembles a Result from any distinct subset of one grid's
// shard envelopes — the incremental merge a campaign server streams while
// shards are still in flight. A complete subset renders identically to Merge.
func MergePartial(shards ...*ShardResult) (*Result, error) { return isweep.MergePartial(shards...) }

// DecodeShardResult decodes one shard envelope strictly.
func DecodeShardResult(data []byte) (*ShardResult, error) { return isweep.DecodeShardResult(data) }

// ShardTrials returns how many of `trials` per-cell trials shard
// `index` of `count` executes under the trial-striped plan.
func ShardTrials(trials, index, count int) int { return isweep.ShardTrials(trials, index, count) }

// CellSeed returns the derived RNG stream key for a cell.
func CellSeed(gridSeed uint64, cell int) uint64 { return isweep.CellSeed(gridSeed, cell) }

// TrialSeed returns the derived seed for one (cell, trial) pair; it is a
// pure function of its arguments, which is what makes sharding exact.
func TrialSeed(gridSeed uint64, cell, trial int) uint64 {
	return isweep.TrialSeed(gridSeed, cell, trial)
}

// PatternSeed returns the stream a spec trial draws its wake pattern from.
func PatternSeed(trialSeed uint64) uint64 { return isweep.PatternSeed(trialSeed) }
