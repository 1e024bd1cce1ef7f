package dispatch

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("read back %q", got)
	}
	// Overwrite replaces the content whole.
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("read back %q", got)
	}
	// No temp droppings remain in the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.json" {
		t.Fatalf("directory holds %v, want only out.json", entries)
	}
	// A missing target directory is an error, not a silent success.
	if err := WriteFileAtomic(filepath.Join(dir, "nodir", "x"), []byte("x"), 0o644); err == nil {
		t.Error("write into a missing directory succeeded")
	}

	// A non-regular target (devices, pipes — what -out /dev/stdout points
	// at) cannot be renamed onto and is written in place instead.
	if err := WriteFileAtomic(os.DevNull, []byte("sink"), 0o644); err != nil {
		t.Errorf("write to %s: %v", os.DevNull, err)
	}
}

func TestRunStoreSaveLoad(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := spec.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}

	store := RunStore{Dir: filepath.Join(t.TempDir(), "runs")}
	if _, err := store.Load(plans[1]); err == nil {
		t.Fatal("load from an empty store succeeded")
	}
	if err := store.Save(sr); err != nil {
		t.Fatal(err)
	}

	// The layout is <dir>/<fingerprint>/<i>-of-<m>.json.
	wantPath := filepath.Join(store.Dir, sr.Fingerprint, "1-of-3.json")
	if store.Path(plans[1]) != wantPath {
		t.Fatalf("path %q, want %q", store.Path(plans[1]), wantPath)
	}
	if _, err := os.Stat(wantPath); err != nil {
		t.Fatal(err)
	}

	back, err := store.Load(plans[1])
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := sr.Encode()
	gotBytes, _ := back.Encode()
	if string(gotBytes) != string(wantBytes) {
		t.Error("stored envelope did not round-trip")
	}

	// The stored envelope answers only its own plan coordinates.
	if _, err := store.Load(plans[0]); err == nil {
		t.Error("shard 1 envelope satisfied a load for shard 0")
	}
}

// TestRunStoreRejectsPartialWrite is the resume half of the atomicity story:
// an envelope truncated mid-JSON (as a non-atomic writer could leave behind)
// must read as "missing", never as data.
func TestRunStoreRejectsPartialWrite(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := spec.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := RunStore{Dir: t.TempDir()}
	if err := store.Save(sr); err != nil {
		t.Fatal(err)
	}

	// Simulate the partial write: keep only the first half of the file.
	path := store.Path(plans[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err == nil {
		t.Fatal("truncated envelope loaded successfully")
	}

	// A syntactically valid envelope whose aggregates were tampered with is
	// equally rejected (the stats integrity check).
	tampered := strings.Replace(string(data), `"trials": 4`, `"trials": 5`, 1)
	if tampered == string(data) {
		t.Fatal("test setup: trials field not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err == nil {
		t.Fatal("tampered envelope loaded successfully")
	}
}

func TestRunStoreAttemptLog(t *testing.T) {
	store := RunStore{Dir: t.TempDir()}
	if data, err := store.AttemptLog("deadbeef"); err != nil || data != nil {
		t.Fatalf("empty log read as (%q, %v)", data, err)
	}
	if err := store.LogAttemptAs("deadbeef", 0, 3, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := store.LogAttemptAs("deadbeef", 1, 3, 2, "", os.ErrDeadlineExceeded); err != nil {
		t.Fatal(err)
	}
	data, err := store.AttemptLog("deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("log has %d lines: %q", len(lines), data)
	}
	if !strings.Contains(lines[0], "shard 0/3 attempt 1: ok") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "shard 1/3 attempt 2: error:") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestRunStoreAttemptsRoundTrip: the structured Attempts view parses back
// exactly what LogAttemptAs wrote — untagged lines (the form older stores
// hold) and worker-tagged lines side by side, error details with colons
// included.
func TestRunStoreAttemptsRoundTrip(t *testing.T) {
	store := RunStore{Dir: t.TempDir()}
	if recs, err := store.Attempts("feedface"); err != nil || recs != nil {
		t.Fatalf("empty store parsed as (%+v, %v)", recs, err)
	}
	if err := store.LogAttemptAs("feedface", 0, 2, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := store.LogAttemptAs("feedface", 1, 2, 1, "w1", errors.New("exec: exit status 1: killed")); err != nil {
		t.Fatal(err)
	}
	if err := store.LogAttemptAs("feedface", 1, 2, 2, "w2", nil); err != nil {
		t.Fatal(err)
	}
	recs, err := store.Attempts("feedface")
	if err != nil {
		t.Fatal(err)
	}
	want := []Attempt{
		{Shard: 0, Shards: 2, Attempt: 1, OK: true},
		{Shard: 1, Shards: 2, Attempt: 1, Worker: "w1", Detail: "exec: exit status 1: killed"},
		{Shard: 1, Shards: 2, Attempt: 2, Worker: "w2", OK: true},
	}
	if len(recs) != len(want) {
		t.Fatalf("parsed %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// TestRunStoreAttemptsRejectsMalformedLines: the log is machine-written and
// append-only, so a line that does not parse is evidence of tampering or a
// torn write — an error, never a silent skip.
func TestRunStoreAttemptsRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		"free-form text",
		"2026-01-01T00:00:00Z shard 0/2 attempt one: ok",
		"2026-01-01T00:00:00Z shard 02 attempt 1: ok",
		"2026-01-01T00:00:00Z shard 0/2 attempt 1 pid=7: ok",
		"2026-01-01T00:00:00Z shard 0/2 attempt 1: crashed",
	} {
		store := RunStore{Dir: t.TempDir()}
		if err := store.LogAttemptAs("abc123", 0, 2, 1, "", nil); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(store.Dir, "abc123", "attempts.log"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := store.Attempts("abc123"); err == nil {
			t.Errorf("malformed line %q parsed without error", line)
		}
	}
}

// TestRunStoreLoadDistinguishesMissingFromCorrupt: resume paths treat both
// as "re-run this shard", but only a missing file may wrap os.ErrNotExist —
// a corrupt one must surface a decode/validation error so operators can
// tell disk loss from tampering.
func TestRunStoreLoadDistinguishesMissingFromCorrupt(t *testing.T) {
	doc := testDoc(t)
	plans, _, err := PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := spec.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := RunStore{Dir: t.TempDir()}
	if err := store.Save(sr); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Load(plans[1]); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing envelope: %v, want os.ErrNotExist", err)
	}
	if err := os.WriteFile(store.Path(plans[0]), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Load(plans[0])
	if err == nil {
		t.Fatal("corrupt envelope loaded")
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt envelope misreported as missing: %v", err)
	}
}
