package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSim compiles wakeup-sim into a temp dir and returns its path. Skips
// when no go toolchain is available: the tests exec the real binary, so exit
// codes and stdout are checked exactly as a user sees them.
func buildSim(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "wakeup-sim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runSim execs the binary and returns stdout, stderr and the exit code.
func runSim(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return out.String(), errOut.String(), code
}

// TestSingleRunGoldens pins the single-run report of every oblivious case
// against goldens in testdata/<case>.golden.
func TestSingleRunGoldens(t *testing.T) {
	bin := buildSim(t)
	for _, name := range []string{
		"roundrobin", "wakeup_with_s", "wakeup_with_k", "wakeupc",
		"rpd", "rpdk", "beb", "localssf",
	} {
		args := []string{"-algo", name, "-n", "64", "-k", "3", "-pattern", "staggered", "-gap", "3"}
		if name == "wakeup_with_s" {
			// A nonzero -s travels as the case argument wakeup_with_s:5.
			args = append(args, "-s", "5")
		}
		got, stderr, code := runSim(t, bin, args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s report differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}

// TestSingleRunAdaptiveCases: the adaptive cases run in single mode with
// feedback delivered, and a white-box pattern on them fails with the reason
// grid mode gives when it skips the cell.
func TestSingleRunAdaptiveCases(t *testing.T) {
	bin := buildSim(t)
	out, stderr, code := runSim(t, bin, "-algo", "tree_cd", "-n", "64", "-k", "3", "-channels", "cd")
	if code != 0 {
		t.Fatalf("tree_cd on cd: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(out, "algorithm : tree_cd") || !strings.Contains(out, "alone at slot") {
		t.Fatalf("tree_cd on cd did not resolve:\n%s", out)
	}
	// On the paper channel tree_cd never hears its collisions: the run fails
	// (exit 2), which is a result, not an error.
	if _, stderr, code := runSim(t, bin, "-algo", "tree_cd", "-n", "64", "-k", "3"); code != 2 {
		t.Fatalf("tree_cd on none: exit %d, want 2\n%s", code, stderr)
	}
	if _, stderr, code := runSim(t, bin, "-algo", "kg", "-n", "64", "-k", "3"); code != 0 {
		t.Fatalf("kg: exit %d\n%s", code, stderr)
	}

	_, single, code := runSim(t, bin, "-algo", "tree_cd", "-n", "64", "-k", "3", "-pattern", "spoiler")
	if code != 1 {
		t.Fatalf("tree_cd × spoiler: exit %d, want 1", code)
	}
	_, grid, _ := runSim(t, bin, "-algo", "tree_cd,wakeupc", "-n", "64", "-k", "3", "-pattern", "spoiler", "-trials", "2")
	const reason = "white-box pattern needs an oblivious schedule; tree_cd is adaptive"
	if !strings.Contains(single, reason) || !strings.Contains(grid, reason) {
		t.Fatalf("single and grid mode disagree on the skip reason:\nsingle: %sgrid: %s", single, grid)
	}
}

// TestSpoilerTranscriptGolden pins a single spoiler run on a noisy channel:
// its first spoil lands at slot 0 with an injected station whose ID is below
// the first station's, so the report's pattern, counters and transcript pin
// how a spoiled slot is resolved and recorded.
func TestSpoilerTranscriptGolden(t *testing.T) {
	bin := buildSim(t)
	got, stderr, code := runSim(t, bin,
		"-algo", "wakeupc", "-pattern", "spoiler", "-n", "32", "-k", "4", "-channels", "noisy:0.1", "-trace")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "spoiler_noisy.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report differs from its golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
