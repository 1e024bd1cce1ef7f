package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles wakeup-bench once per test binary into a temp dir and
// returns its path. Skips when no go toolchain is available (the test execs
// the real binary — that is the point: the subprocess executor and the
// resume path are exercised across true process boundaries).
func buildBench(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "wakeup-bench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run execs the built binary and returns stdout, failing the test on a
// non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", bin, args, err, stderr.String())
	}
	return stdout.String()
}

// TestRunSubcommandResumeByteIdentity is the PR's acceptance criterion, end
// to end across real processes: a 3-shard `wakeup-bench run` with the
// subprocess executor, "interrupted" after one shard (one envelope removed,
// as an atomic writer killed mid-shard would leave it), restarted with
// -resume — which must re-run ONLY the missing shard (verified by the
// store's envelope mtimes and attempt log) — and produce text/CSV/JSON
// byte-identical to the single-process run.
func TestRunSubcommandResumeByteIdentity(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	storeDir := filepath.Join(dir, "runs")

	// A small noisy-channel grid (exercises the channel axis and the
	// listens/energy wire fields across the process boundary).
	spec := run(t, bin, "-algos", "wakeupc,roundrobin", "-ns", "32,64", "-ks", "2,4",
		"-patterns", "staggered:3,simultaneous", "-channels", "noisy:0.1,jam:1",
		"-trials", "5", "-dump-spec")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	whole := map[string]string{}
	for _, format := range []string{"text", "csv", "json"} {
		whole[format] = run(t, bin, "-spec", specPath, "-format", format)
	}

	// Full 3-shard dispatch through the subprocess executor.
	got := run(t, bin, "run", "-spec", specPath, "-shards", "3",
		"-exec", "subprocess:"+bin, "-store", storeDir, "-quiet")
	if got != whole["text"] {
		t.Fatalf("dispatched text differs from single-process run:\n--- got\n%s--- want\n%s", got, whole["text"])
	}

	// The store holds shard envelopes under <fingerprint>/<i>-of-<m>.json.
	fps, err := os.ReadDir(storeDir)
	if err != nil || len(fps) != 1 {
		t.Fatalf("store layout: %v (%v)", fps, err)
	}
	fpDir := filepath.Join(storeDir, fps[0].Name())
	logPath := filepath.Join(fpDir, "attempts.log")
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(logBefore), "\n"); n != 3 {
		t.Fatalf("attempt log after first run has %d lines:\n%s", n, logBefore)
	}
	mtime := func(name string) int64 {
		st, err := os.Stat(filepath.Join(fpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st.ModTime().UnixNano()
	}
	keep0, keep2 := mtime("0-of-3.json"), mtime("2-of-3.json")

	// "Interrupt": shard 1's envelope never landed.
	if err := os.Remove(filepath.Join(fpDir, "1-of-3.json")); err != nil {
		t.Fatal(err)
	}

	// Resume re-runs only shard 1 and the merged output is unchanged, in
	// every format.
	for _, format := range []string{"text", "csv", "json"} {
		got := run(t, bin, "run", "-spec", specPath, "-shards", "3",
			"-exec", "subprocess:"+bin, "-store", storeDir, "-resume",
			"-format", format, "-quiet")
		if got != whole[format] {
			t.Fatalf("resumed %s output differs from single-process run", format)
		}
	}

	if mtime("0-of-3.json") != keep0 || mtime("2-of-3.json") != keep2 {
		t.Error("resume rewrote envelopes that were already complete")
	}
	logAfter, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh := strings.TrimPrefix(string(logAfter), string(logBefore))
	// The first resumed run re-ran shard 1 and restored its envelope; the
	// two later format reruns found the store complete and dispatched
	// nothing. Shards 0 and 2 must not appear in the new log lines at all.
	if n := strings.Count(fresh, "\n"); n != 1 {
		t.Fatalf("resume logged %d attempts, want 1 (shard 1 only):\n%s", n, fresh)
	}
	for _, line := range strings.Split(strings.TrimSpace(fresh), "\n") {
		if !strings.Contains(line, "shard 1/3") || !strings.Contains(line, ": ok") {
			t.Errorf("resume attempt line %q is not a clean shard-1 rerun", line)
		}
	}
}

// TestRunSubcommandLocalExecutor: the in-process executor path (no store)
// matches the single-process bytes too.
func TestRunSubcommandLocalExecutor(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	spec := run(t, bin, "-algos", "wakeupc", "-ns", "32", "-ks", "2,4",
		"-patterns", "staggered:3", "-trials", "4", "-dump-spec")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	whole := run(t, bin, "-spec", specPath, "-format", "csv")
	got := run(t, bin, "run", "-spec", specPath, "-shards", "4",
		"-exec", "local", "-concurrency", "2", "-format", "csv", "-quiet")
	if got != whole {
		t.Fatal("local-executor dispatch differs from single-process run")
	}
}

// TestSpecFromStdin: `-spec -` reads the document from stdin — the form
// remote command templates use (`ssh host wakeup-bench -spec - -shard ...`).
func TestSpecFromStdin(t *testing.T) {
	bin := buildBench(t)
	spec := run(t, bin, "-algos", "wakeupc", "-ns", "32", "-ks", "2",
		"-patterns", "simultaneous", "-trials", "3", "-dump-spec")

	cmd := exec.Command(bin, "-spec", "-", "-shard", "0/2")
	cmd.Stdin = strings.NewReader(spec)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !strings.Contains(string(out), `"shard": 0`) || !strings.Contains(string(out), `"shards": 2`) {
		t.Fatalf("stdin-spec shard did not emit an envelope:\n%s", out)
	}
}

// TestRunSubcommandProfiles: -cpuprofile/-memprofile land complete pprof
// files (gzip magic, non-empty) next to -out, with no leftover temp files.
func TestRunSubcommandProfiles(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	spec := run(t, bin, "-algos", "wakeupc", "-ns", "32", "-ks", "2",
		"-patterns", "simultaneous", "-trials", "3", "-dump-spec")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	run(t, bin, "run", "-spec", specPath, "-shards", "2", "-quiet",
		"-out", filepath.Join(dir, "out.txt"), "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		// pprof profiles are gzip-compressed protobufs.
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s is not a gzip-compressed profile (len %d)", path, len(data))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s after a clean exit", e.Name())
		}
	}
}

// TestGridFlagsNeedAGrid: the flags that act only on a grid run (-shard,
// -dump-spec, -no-kernel) are refused next to the experiment tables, with
// exit status 1 and nothing on stdout, instead of being silently ignored.
func TestGridFlagsNeedAGrid(t *testing.T) {
	bin := buildBench(t)
	for _, flags := range [][]string{{"-no-kernel"}, {"-shard", "0/2"}, {"-dump-spec"}} {
		cmd := exec.Command(bin, append(flags, "-only", "T1", "-quick")...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", flags, err)
		}
		if !strings.Contains(stderr.String(), "need a grid: pass -spec or -algos") || stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q; want only the need-a-grid error", flags, stdout.String(), stderr.String())
		}
	}
}
