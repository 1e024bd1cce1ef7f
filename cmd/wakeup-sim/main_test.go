package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/sweep"
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
		args := []string{"-algo", name, "-n", "64", "-k", "3", "-pattern", "staggered:3"}
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
// feedback delivered, and a white-box pattern on them fails with the line a
// grid gives when it skips the cell.
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

	out, single, code := runSim(t, bin, "-algo", "tree_cd", "-n", "64", "-k", "3", "-pattern", "spoiler")
	if code != 1 || out != "" {
		t.Fatalf("tree_cd × spoiler: exit %d, stdout %q; want exit 1 and no stdout", code, out)
	}
	c, err := sweep.ResolveCase("tree_cd")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sweep.ResolvePattern("spoiler", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The grid keeps no cell, so Compile errors; its skip line is the point.
	_, skipped, _ := sweep.Spec{
		Cases: []sweep.Case{c}, Patterns: []sweep.Generator{gen}, Ns: []int{64}, Ks: []int{3}, Trials: 1, Seed: 1,
	}.Compile()
	if len(skipped) != 1 || single != "wakeup-sim: "+skipped[0]+"\n" {
		t.Fatalf("single mode and the grid disagree on the skip reason:\nsingle: %qgrid:   %q", single, skipped)
	}
}

// TestSpoilerReport pins the spoiler's attack on the ablated wait_and_go,
// which hands the adversary its whole budget. The expected rounds and
// pattern come from adversary.Spoiler started where the spoiler pattern
// starts it: at station 1 + rng.New(seed).Intn(n).
func TestSpoilerReport(t *testing.T) {
	bin := buildSim(t)
	const n, k, seed = 64, 4, 3
	out, stderr, code := runSim(t, bin,
		"-algo", "waitandgo_nowait", "-n", "64", "-k", "4", "-pattern", "spoiler", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	c, err := sweep.ResolveCase("waitandgo_nowait")
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := adversary.Spoiler(sim.NewEngine(), c.Algo(n, k), c.Params(n, k, seed), k,
		1+rng.New(seed).Intn(n), sim.Options{Horizon: c.Horizon(n, k), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Succeeded || sp.Spoiled != k-1 || len(sp.Pattern.IDs) != k {
		t.Fatalf("spoiler: succeeded %v, spoiled %d of budget %d, %d stations; want the whole budget spent on a run that still succeeds",
			sp.Succeeded, sp.Spoiled, k-1, len(sp.Pattern.IDs))
	}
	for _, line := range []string{
		"algorithm : wait_and_go(no-wait)\n",
		fmt.Sprintf("pattern   : spoiler  ids=%v wakes=%v\n", sp.Pattern.IDs, sp.Pattern.Wakes),
		fmt.Sprintf("rounds    : %d (", sp.Rounds),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("report lacks %q:\n%s", line, out)
		}
	}
}

// TestListFlagsNeedWakeupBench: wakeup-sim runs one instance. A list on an
// axis flag, or -algo all, exits 1 with no stdout and names the wakeup-bench
// flag that runs the grid.
func TestListFlagsNeedWakeupBench(t *testing.T) {
	bin := buildSim(t)
	for _, tc := range []struct {
		args  []string
		bench string
	}{
		{[]string{"-algo", "wakeupc,rpd"}, "-algos"},
		{[]string{"-algo", "all"}, "-algos"},
		{[]string{"-n", "256,1024"}, "-ns"},
		{[]string{"-k", "2,8"}, "-ks"},
		{[]string{"-pattern", "simultaneous,staggered"}, "-patterns"},
		{[]string{"-channels", "none,noisy:0.1"}, "-channels"},
	} {
		out, stderr, code := runSim(t, bin, tc.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, "wakeup-bench "+tc.bench) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout and wakeup-bench %s named",
				tc.args, code, out, stderr, tc.bench)
		}
	}
}

// TestRejectedRunPrintsNothing: a run rejected for its flags or by the
// engine exits 1 before the report's first line.
func TestRejectedRunPrintsNothing(t *testing.T) {
	bin := buildSim(t)
	for _, tc := range []struct {
		args []string
		why  string
	}{
		{[]string{"-algo", "rpd", "-n", "64", "-k", "3", "-render"}, "-render requires -algo wakeupc"},
		{[]string{"-algo", "wakeup_with_k", "-pattern", "staggered", "-s", "-4"}, "negative wake time -4"},
		{[]string{"-algo", "wakeupc", "-n", "64", "-k", "3", "-horizon", "-5"}, "-horizon -5"},
	} {
		out, stderr, code := runSim(t, bin, tc.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, tc.why) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout and %q",
				tc.args, code, out, stderr, tc.why)
		}
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
