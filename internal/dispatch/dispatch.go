// Package dispatch is the distributed half of the sweep orchestrator: it
// takes a serializable grid document (sweep.SpecDoc), cuts it into the
// trial-striped shard plan, hands each shard to a pluggable Executor — in
// this process, or through a command template such as this binary, ssh or
// kubectl — and reassembles the shard envelopes with sweep.Merge,
// whose text/CSV/JSON render is byte-identical to the single-process run.
//
// Two layers:
//
//   - Executor runs ONE shard of a plan and returns its envelope. Local
//     compiles the grid in-process, checks its fingerprint against the
//     plan's and runs the shard under a worker budget; Command substitutes
//     the plan into an argv template and decodes the envelope from its
//     stdout. `wakeup-bench -exec subprocess[:bin]` is a Command whose
//     template re-runs a wakeup-bench binary on one shard.
//
//   - RunStore persists envelopes under <dir>/<grid-fingerprint>/
//     <i>-of-<m>.json with atomic writes, so a killed run can never leave a
//     truncated envelope behind, and a later run can detect completed shards
//     by fingerprint + plan coordinates and re-run only the missing or
//     corrupt ones.
//
// Running a whole plan — attempt caps, retries, resume from a RunStore,
// progress — is the campaign package's job: its Driver serves the plan
// from an in-process campaign Server to Workers that call an Executor per
// shard.
//
// Every envelope that crosses a process boundary is validated before it is
// trusted: internal consistency (ShardResult.Validate, which includes the
// stats wire integrity check) plus identity against the plan (fingerprint
// and shard coordinates), so a stale file from another grid or a truncated
// remote stream is an error, never a silent skew of the merged result.
package dispatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"nsmac/internal/sweep"
)

// ShardPlan identifies one shard of a grid: the serializable spec document,
// the resolved grid's fingerprint, and the plan coordinates. The fingerprint
// is carried alongside the document so executors and stores can name and
// validate the shard without re-resolving the spec.
type ShardPlan struct {
	// Doc is the grid document the shard is cut from.
	Doc sweep.SpecDoc
	// Fingerprint is the resolved grid's fingerprint (Grid.Fingerprint).
	Fingerprint string
	// Cells is the resolved grid's cell count; an envelope answering the
	// plan must carry exactly this many cells.
	Cells int
	// Index and Count are the plan coordinates: shard Index of Count.
	Index, Count int
}

// PlanShards resolves the document and returns the full shard plan — one
// ShardPlan per shard — plus the human-readable skip lines for every dropped
// cell combination. It is the single place the campaign server, its workers
// and the CLIs turn a document into dispatchable work.
func PlanShards(doc sweep.SpecDoc, count int) ([]ShardPlan, []string, error) {
	if count < 1 {
		return nil, nil, fmt.Errorf("dispatch: shard count %d, want >= 1", count)
	}
	spec, err := doc.Resolve()
	if err != nil {
		return nil, nil, err
	}
	g, skipped, err := spec.Compile()
	if err != nil {
		return nil, skipped, err
	}
	fp := g.Fingerprint()
	plans := make([]ShardPlan, count)
	for i := range plans {
		plans[i] = ShardPlan{Doc: doc, Fingerprint: fp, Cells: len(g.Cells), Index: i, Count: count}
	}
	return plans, skipped, nil
}

// CheckEnvelope verifies an envelope an executor produced (or a store held)
// actually answers the plan: internally consistent, same grid fingerprint,
// same shard coordinates, same full trial count.
func CheckEnvelope(r *sweep.ShardResult, plan ShardPlan) error {
	if r == nil {
		return fmt.Errorf("dispatch: executor returned no envelope")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if r.Fingerprint != plan.Fingerprint {
		return fmt.Errorf("dispatch: envelope is from a different grid (fingerprint %s, want %s)",
			r.Fingerprint, plan.Fingerprint)
	}
	if r.Shard != plan.Index || r.Shards != plan.Count {
		return fmt.Errorf("dispatch: envelope holds shard %d/%d, want %d/%d",
			r.Shard, r.Shards, plan.Index, plan.Count)
	}
	if r.Trials != plan.Doc.Trials {
		return fmt.Errorf("dispatch: envelope declares %d trials, spec says %d", r.Trials, plan.Doc.Trials)
	}
	// The fingerprint already pins the cell list, but only for envelopes the
	// honest writer produced; a truncated cell array would otherwise pass
	// (Validate loops over the cells that are present) and skew the merge.
	if len(r.Cells) != plan.Cells {
		return fmt.Errorf("dispatch: envelope carries %d cells, grid has %d", len(r.Cells), plan.Cells)
	}
	return nil
}

// Executor runs one shard of a plan and returns its envelope. The two
// implementations are Local and Command. Implementations must honor ctx
// where they can (Command kills the child; Local only checks for
// cancellation before starting, since an in-process grid is not abortable
// mid-trial) and must return an envelope whose fingerprint and coordinates
// match the plan — the campaign worker and server re-validate either way.
type Executor interface {
	Run(ctx context.Context, plan ShardPlan) (*sweep.ShardResult, error)
}

// Local executes shards in-process, bounded by a worker budget. It is the
// zero-dependency executor campaign workers default to. Before any trial
// runs it checks that the grid it compiled from the plan's document has the
// plan's fingerprint, so a planner that disagrees with this binary (version
// skew, a corrupted grant) runs nothing.
type Local struct {
	// Workers bounds the trial worker pool per shard (<= 0 selects
	// GOMAXPROCS). With Driver Concurrency > 1, the budgets multiply —
	// Concurrency shards × Workers goroutines each.
	Workers int
	// Batch caps trials per work item (<= 0 selects the grid default).
	Batch int
}

// Run implements Executor.
func (l Local) Run(ctx context.Context, plan ShardPlan) (*sweep.ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := plan.Doc.Resolve()
	if err != nil {
		return nil, err
	}
	spec.Workers, spec.Batch = l.Workers, l.Batch
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	out, err := g.PlanEnvelope(plan.Index, plan.Count)
	if err != nil {
		return nil, err
	}
	if out.Fingerprint != plan.Fingerprint {
		return nil, fmt.Errorf("dispatch: fingerprint mismatch: plan %s, compiled grid %s (version skew?)",
			plan.Fingerprint, out.Fingerprint)
	}
	return g.RunPlanned(out)
}

// Command executes each shard through a user-supplied argv template — ssh,
// kubectl exec, a cluster submit wrapper — that must stream the shard
// envelope JSON over its stdout. The spec document is provided two ways:
// the placeholder {spec} expands to the path of a local temp file holding
// it, and when no argv element contains {spec} the document is piped to the
// command's stdin instead (the remote-friendly form: `ssh host wakeup-bench
// -spec - -shard {i}/{m}`). {i} and {m} expand to the plan coordinates and
// {fingerprint} to the grid fingerprint.
type Command struct {
	// Argv is the command template; Argv[0] is the program. Placeholders
	// {spec}, {i}, {m}, {fingerprint} are substituted in every element.
	Argv []string
	// Stderr, when non-nil, receives the command's stderr. Nil discards it
	// except on error, where the tail is folded into the returned error.
	Stderr io.Writer
}

// Run implements Executor.
func (c Command) Run(ctx context.Context, plan ShardPlan) (*sweep.ShardResult, error) {
	if len(c.Argv) == 0 {
		return nil, fmt.Errorf("dispatch: empty command template")
	}
	doc, err := plan.Doc.Encode()
	if err != nil {
		return nil, err
	}

	needsFile := false
	for _, a := range c.Argv {
		if strings.Contains(a, "{spec}") {
			needsFile = true
			break
		}
	}
	specPath := "-"
	if needsFile {
		dir, err := os.MkdirTemp("", "nsmac-shard-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		specPath = filepath.Join(dir, "spec.json")
		if err := os.WriteFile(specPath, doc, 0o644); err != nil {
			return nil, err
		}
	}

	repl := strings.NewReplacer(
		"{spec}", specPath,
		"{i}", strconv.Itoa(plan.Index),
		"{m}", strconv.Itoa(plan.Count),
		"{fingerprint}", plan.Fingerprint,
	)
	argv := make([]string, len(c.Argv))
	for i, a := range c.Argv {
		argv[i] = repl.Replace(a)
	}

	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	if !needsFile {
		cmd.Stdin = strings.NewReader(string(doc))
	}
	var stderr strings.Builder
	if c.Stderr != nil {
		cmd.Stderr = c.Stderr
	} else {
		cmd.Stderr = &stderr
	}
	out, err := cmd.Output()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("dispatch: shard %d/%d command %q: %w%s",
			plan.Index, plan.Count, argv[0], err, stderrTail(stderr.String()))
	}
	r, err := sweep.DecodeShardResult(out)
	if err != nil {
		return nil, err
	}
	if err := CheckEnvelope(r, plan); err != nil {
		return nil, err
	}
	return r, nil
}

// stderrTail formats captured child stderr for error messages: the last few
// lines, indented, or nothing when the child was silent.
func stderrTail(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 4 {
		lines = lines[len(lines)-4:]
	}
	return "\n\tstderr: " + strings.Join(lines, "\n\tstderr: ")
}
