package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nsmac/internal/sweep"
)

// WriteFileAtomic writes data to path through a temp file in the same
// directory followed by a rename, so readers (and resumed runs) can never
// observe a truncated file: the path either holds the old content or the
// complete new content. The containing directory must exist. A path that
// exists and is not a regular file — /dev/stdout, a pipe, a device, the
// targets CLI -out flags legitimately point at — cannot be renamed onto, so
// it is written in place instead (such sinks have no torn-file failure mode
// a resume could observe).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if st, err := os.Stat(path); err == nil && !st.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// RunStore persists shard envelopes on disk so a run can be resumed: shard
// i of m of the grid with fingerprint fp lives at <dir>/<fp>/<i>-of-<m>.json.
// The fingerprint directory keys the whole layout, so stores are safely
// shared between different grids — a respecified grid gets a fresh
// directory, and stale envelopes can never be mistaken for current ones.
//
// Writes are atomic (temp file + rename), so a shard killed mid-write leaves
// either nothing or a complete envelope — never a truncated file a later
// run would trip over. Alongside the envelopes, attempts.log records one
// line per lease attempt, which is how a resumed run proves it re-ran only
// the missing shards.
type RunStore struct {
	// Dir is the store's root directory; it is created on first use.
	Dir string
}

// shardPath returns the envelope path for shard index of count of grid fp.
func (s RunStore) shardPath(fp string, index, count int) string {
	return filepath.Join(s.Dir, fp, fmt.Sprintf("%d-of-%d.json", index, count))
}

// Path returns the on-disk envelope path for a plan's shard (whether or not
// it exists yet).
func (s RunStore) Path(plan ShardPlan) string {
	return s.shardPath(plan.Fingerprint, plan.Index, plan.Count)
}

// Save atomically persists a validated envelope at its plan path.
func (s RunStore) Save(r *sweep.ShardResult) error {
	if err := r.Validate(); err != nil {
		return err
	}
	dir := filepath.Join(s.Dir, r.Fingerprint)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(s.shardPath(r.Fingerprint, r.Shard, r.Shards), data, 0o644)
}

// Load reads, decodes and validates the stored envelope for a plan's shard.
// A missing file returns an error wrapping os.ErrNotExist; a corrupt or
// mismatched one returns the validation error — callers treating both as
// "re-run this shard" need no distinction.
func (s RunStore) Load(plan ShardPlan) (*sweep.ShardResult, error) {
	data, err := os.ReadFile(s.Path(plan))
	if err != nil {
		return nil, err
	}
	r, err := sweep.DecodeShardResult(data)
	if err != nil {
		return nil, err
	}
	if err := CheckEnvelope(r, plan); err != nil {
		return nil, err
	}
	return r, nil
}

// LogAttemptAs appends one line to the grid's attempt log: which shard was
// leased, by which worker, which attempt it was, and how it ended. The log
// is an audit trail for humans and tests (a resumed run shows attempts only
// for the shards it actually re-ran); the envelopes alone carry the
// results. An empty worker writes an untagged line, the form older stores
// hold.
func (s RunStore) LogAttemptAs(fp string, index, count, attempt int, worker string, outcome error) error {
	dir := filepath.Join(s.Dir, fp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "attempts.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	status := "ok"
	if outcome != nil {
		status = "error: " + outcome.Error()
	}
	tag := ""
	if worker != "" {
		tag = " worker=" + worker
	}
	_, err = fmt.Fprintf(f, "%s shard %d/%d attempt %d%s: %s\n",
		//nsmac:nondeterminism-ok attempt timestamps are an operator audit trail, never parsed into results
		time.Now().UTC().Format(time.RFC3339), index, count, attempt, tag, status)
	return err
}

// AttemptLog returns the raw contents of the grid's attempt log (empty if no
// attempt was ever logged).
func (s RunStore) AttemptLog(fp string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.Dir, fp, "attempts.log"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// Attempt is one parsed attempts.log record.
type Attempt struct {
	// Shard and Shards are the plan coordinates the attempt dispatched.
	Shard, Shards int
	// Attempt is the 1-based lease number on the shard.
	Attempt int
	// Worker is the leasing worker, empty on an untagged line.
	Worker string
	// OK reports a successful attempt; Detail carries the error text
	// otherwise.
	OK     bool
	Detail string
}

// Attempts parses the grid's attempt log into records — the accounting view
// the store and campaign tests check retries and resumes against;
// campaign status counts attempts in memory and does not read the log. Lines that do not parse are
// reported as an error rather than skipped: the log is append-only and
// machine-written, so a malformed line means the store was tampered with or
// torn mid-write.
func (s RunStore) Attempts(fp string) ([]Attempt, error) {
	data, err := s.AttemptLog(fp)
	if err != nil || len(data) == 0 {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	out := make([]Attempt, 0, len(lines))
	for _, line := range lines {
		rec, err := parseAttemptLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// parseAttemptLine decodes one attempts.log line:
//
//	<RFC3339> shard <i>/<m> attempt <n>[ worker=<id>]: ok|error: <detail>
func parseAttemptLine(line string) (Attempt, error) {
	bad := func() (Attempt, error) {
		return Attempt{}, fmt.Errorf("dispatch: malformed attempts.log line %q", line)
	}
	head, status, ok := strings.Cut(line, ": ")
	if !ok {
		return bad()
	}
	fields := strings.Fields(head)
	// timestamp, "shard", i/m, "attempt", n, [worker=id]
	if len(fields) < 5 || fields[1] != "shard" || fields[3] != "attempt" {
		return bad()
	}
	iStr, mStr, ok := strings.Cut(fields[2], "/")
	if !ok {
		return bad()
	}
	var rec Attempt
	var err1, err2, err3 error
	rec.Shard, err1 = strconv.Atoi(iStr)
	rec.Shards, err2 = strconv.Atoi(mStr)
	rec.Attempt, err3 = strconv.Atoi(fields[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return bad()
	}
	if len(fields) == 6 {
		worker, ok := strings.CutPrefix(fields[5], "worker=")
		if !ok {
			return bad()
		}
		rec.Worker = worker
	} else if len(fields) > 6 {
		return bad()
	}
	if status == "ok" {
		rec.OK = true
	} else {
		detail, ok := strings.CutPrefix(status, "error: ")
		if !ok {
			return bad()
		}
		rec.Detail = detail
	}
	return rec, nil
}
