package sweep

import (
	"os"

	"nsmac/internal/campaign"
	"nsmac/internal/dispatch"
)

// Distributed shard dispatch (aliases into nsmac/internal/dispatch and
// nsmac/internal/campaign): run a spec document's trial-striped shard plan
// through a pluggable Executor — in-process (Local) or through a command
// template (Command: a wakeup-bench binary per shard, ssh, kubectl) —
// persist the envelopes in a RunStore that later runs resume from, and
// merge to output byte-identical to the single-process run. The Driver is
// an in-process campaign: a campaign server holding the plan and
// Concurrency workers leasing from it.
//
//	doc, _ := sweep.ParseSpecDoc(data)
//	d := &sweep.Driver{
//	    Exec:        sweep.Command{Argv: []string{"./wakeup-bench", "-spec", "-", "-shard", "{i}/{m}"}},
//	    Store:       &sweep.RunStore{Dir: "runs"}, // stored shards are not re-run
//	    Concurrency: 3,
//	}
//	res, _ := d.Run(ctx, doc, 8)   // 8-shard plan
//	fmt.Print(res.Text())          // == the one-process run, byte for byte
//
// The same machinery backs `wakeup-bench run -spec grid.json -shards m
// -exec ... -store dir`.
type (
	// Executor runs one shard of a plan and returns its envelope.
	Executor = dispatch.Executor
	// ShardPlan identifies one shard: spec document, grid fingerprint, and
	// plan coordinates.
	ShardPlan = dispatch.ShardPlan
	// Local executes shards in-process under a worker budget.
	Local = dispatch.Local
	// Command executes each shard through a user argv template (ssh,
	// kubectl, ...) that streams the envelope JSON over stdout.
	Command = dispatch.Command
	// RunStore persists shard envelopes under
	// <dir>/<grid-fingerprint>/<i>-of-<m>.json with atomic writes, making
	// runs resumable.
	RunStore = dispatch.RunStore
	// Driver executes a full shard plan as an in-process campaign:
	// Concurrency workers, per-shard attempt caps, store resume, the
	// workers' progress events, context cancellation.
	Driver = campaign.Driver
)

// PlanShards resolves the document and returns its count-shard plan plus
// the skip lines for dropped cell combinations.
func PlanShards(doc SpecDoc, count int) ([]ShardPlan, []string, error) {
	return dispatch.PlanShards(doc, count)
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// plus a rename, so a killed writer can never leave a truncated file — the
// discipline every shard-envelope writer (both CLIs included) follows.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return dispatch.WriteFileAtomic(path, data, perm)
}
