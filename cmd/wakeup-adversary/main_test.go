package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAdversary compiles wakeup-adversary into a temp dir and returns its
// path. Skips when no go toolchain is available: the tests exec the real
// binary, so exit codes and stdout are checked exactly as a user sees them.
func buildAdversary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "wakeup-adversary")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runAdversary execs the binary and returns stdout, stderr and the exit code.
func runAdversary(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
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

// TestSpoilerFirstOutOfRange: a -first outside [1, n] is rejected before
// anything is printed, the way a bad -k is.
func TestSpoilerFirstOutOfRange(t *testing.T) {
	bin := buildAdversary(t)
	for _, first := range []string{"0", "65", "-3"} {
		out, stderr, code := runAdversary(t, bin, "-attack", "spoiler", "-n", "64", "-k", "4", "-first", first)
		if code != 1 || out != "" || !strings.Contains(stderr, "first") {
			t.Errorf("-first %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout and a named error", first, code, out, stderr)
		}
	}
}

// TestUnknownAttack: an unknown -attack is rejected before anything is
// printed, with exit 1 and the attack named on stderr.
func TestUnknownAttack(t *testing.T) {
	bin := buildAdversary(t)
	out, stderr, code := runAdversary(t, bin, "-attack", "bogus", "-n", "64", "-k", "4")
	if code != 1 || out != "" || !strings.Contains(stderr, "bogus") {
		t.Errorf("-attack bogus: exit %d, stdout %q, stderr %q; want exit 1, no stdout and a named error", code, out, stderr)
	}
}

// TestSpoilerReport pins one in-range spoiler attack's report: the ablated
// wait_and_go hands the adversary its whole budget.
func TestSpoilerReport(t *testing.T) {
	bin := buildAdversary(t)
	out, stderr, code := runAdversary(t, bin,
		"-attack", "spoiler", "-algo", "wait_and_go_nowait", "-n", "64", "-k", "4", "-first", "7", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	want := `target    : wait_and_go(no-wait) (n=64, k=4)
thm 2.1   : min{k, n−k+1} = 4 slots

spoiler attack (first station 7):
  rounds under attack : 4
  successes spoiled   : 3 (budget 3)
  pattern             : ids=[7 1 5 4] wakes=[0 0 1 2]
`
	if out != want {
		t.Errorf("report differs:\n--- got\n%s--- want\n%s", out, want)
	}
}
