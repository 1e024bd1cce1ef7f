// Command wakeup-sim runs contention-resolution instances. With a single
// algorithm, pattern, n, k and one trial it prints the detailed outcome,
// optionally with the channel transcript and the Figure 1/2 matrix
// renderings. Any flag accepting a comma-separated list (or -trials > 1)
// switches to grid mode: the cross product runs through the sweep
// orchestrator — which computes the persistent adaptive cells (tree_cd on
// the channels that deliver a collision as silence) in closed form, with
// the engine's output — and renders as an aligned table, CSV, or JSON;
// -dump-spec emits the grid as a spec document for wakeup-bench -spec /
// -shard.
//
// Examples:
//
//	wakeup-sim -algo wakeupc -n 1024 -k 8 -pattern staggered -gap 7
//	wakeup-sim -algo wakeup_with_k -n 4096 -k 16 -pattern uniform -trace
//	wakeup-sim -algo wakeupc -n 256 -k 3 -render
//	wakeup-sim -algo tree_cd -n 64 -k 3 -channels cd
//	wakeup-sim -algo wakeupc,rpd -n 256,1024 -k 2,8,32 -trials 5 -format csv
//	wakeup-sim -patterns spoiler,swap            # white-box adversary cells
//	wakeup-sim -channels none,noisy:0.05 -trials 10   # channel-model axis
//	wakeup-sim -algo all -trials 10 -dump-spec   # grid → spec document
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/trace"
	"nsmac/sweep"
)

func main() {
	var (
		algoList = flag.String("algo", "wakeupc", "algorithm entries, comma-separated: roundrobin | wakeup_with_s[:slot] | wakeup_with_k | wakeupc | rpd | rpdk | beb | localssf | tree_cd | kg | all")
		nList    = flag.String("n", "1024", "universe size(s), comma-separated (station IDs 1..n)")
		kList    = flag.String("k", "8", "number(s) of stations the adversary wakes, comma-separated")
		s        = flag.Int64("s", 0, "first wake-up slot")
		patList  = flag.String("pattern", "simultaneous", "wake pattern entries, comma-separated: simultaneous | staggered | uniform | bursts | spoiler | swap (see -patterns grammar)")
		patAlias = flag.String("patterns", "", "alias for -pattern")
		chList   = flag.String("channels", "", "channel-model entries, comma-separated: none | cd | sender_cd | ack | noisy:<p> | jam:<q>; empty keeps the paper channel and omits the channel axis")
		gap      = flag.Int64("gap", 7, "gap for staggered/bursts patterns")
		width    = flag.Int64("width", 64, "window width for the uniform pattern")
		seed     = flag.Uint64("seed", 1, "random seed (schedules and pattern)")
		horizon  = flag.Int64("horizon", 0, "simulation cap (0 = algorithm's own bound; single-run mode only)")
		trials   = flag.Int("trials", 1, "trials per grid cell (grid mode when > 1)")
		workers  = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		batch    = flag.Int("batch", 0, "trials per work item (0 = auto); tunes scheduling overhead, never output")
		format   = flag.String("format", "text", "grid-mode output format: text | csv | json")
		outFile  = flag.String("out", "", "grid mode: write the table (or -dump-spec document) to this file instead of stdout; the write is atomic (temp file + rename)")
		dumpSpec = flag.Bool("dump-spec", false, "grid mode: emit the grid as a reusable spec document and exit")
		showTr   = flag.Bool("trace", false, "print the channel transcript timeline (single-run mode)")
		render   = flag.Bool("render", false, "print the Figure 1/2 matrix renderings (single-run wakeupc only)")
	)
	flag.Parse()
	if *patAlias != "" {
		*patList = *patAlias
	}

	ns, err := sweep.ParseInts(*nList)
	if err != nil {
		fail("-n: %v", err)
	}
	ks, err := sweep.ParseInts(*kList)
	if err != nil {
		fail("-k: %v", err)
	}
	algos := strings.Split(*algoList, ",")
	pats := strings.Split(*patList, ",")
	channels, err := sweep.ChannelsByName(*chList)
	if err != nil {
		fail("-channels: %v", err)
	}

	gridMode := *dumpSpec || *trials > 1 || len(ns) > 1 || len(ks) > 1 ||
		len(algos) > 1 || len(pats) > 1 || len(channels) > 1
	if gridMode {
		runGrid(algos, pats, channels, ns, ks, *trials, *seed, *workers, *batch, *format, *outFile, *dumpSpec, *s, *gap, *width)
		return
	}
	if *outFile != "" {
		// Single-run output is a narrative report, not a machine artifact;
		// refusing beats silently ignoring the flag.
		fail("-out applies to grid mode (pass -trials > 1, multiple axis values, or -dump-spec)")
	}
	var ch model.ChannelModel
	if len(channels) == 1 {
		ch = channels[0]
	}
	runSingle(algos[0], pats[0], ch, ns[0], ks[0], *s, *gap, *width, *seed, *horizon, *showTr, *render)
}

// caseEntries rewrites the -algo list into registry entries: "all" expands
// to the standard set, and a nonzero -s travels as the scenario-A case
// argument ("wakeup_with_s:<s>") so the grid — and any spec document dumped
// from it — pins the known start slot by name.
func caseEntries(algos []string, s int64) []string {
	var out []string
	for _, a := range algos {
		a = strings.TrimSpace(a)
		if a == "all" {
			out = append(out, sweep.StandardCaseNames()...)
			continue
		}
		out = append(out, a) // empty entries fall through to CasesByName's error
	}
	if s != 0 {
		for i, a := range out {
			if a == "wakeup_with_s" {
				out[i] = fmt.Sprintf("wakeup_with_s:%d", s)
			}
		}
	}
	return out
}

// runGrid executes the cross product through the sweep orchestrator.
func runGrid(algos, pats []string, channels []model.ChannelModel, ns, ks []int, trials int, seed uint64,
	workers, batch int, format, outFile string, dumpSpec bool, s, gap, width int64) {

	cases, err := sweep.CasesByName(strings.Join(caseEntries(algos, s), ","))
	if err != nil {
		fail("%v", err)
	}
	gens, err := sweep.ParsePatternsAt(strings.Join(pats, ","), s, gap, width)
	if err != nil {
		fail("%v", err)
	}
	spec := sweep.Spec{
		Name:     "wakeup-sim",
		Cases:    cases,
		Patterns: gens,
		Channels: channels,
		Ns:       ns,
		Ks:       ks,
		Trials:   trials,
		Seed:     seed,
		Workers:  workers,
		Batch:    batch,
	}
	if dumpSpec {
		doc, err := spec.Doc()
		if err != nil {
			fail("%v", err)
		}
		data, err := doc.Encode()
		if err != nil {
			fail("%v", err)
		}
		emit(outFile, data)
		return
	}
	// One enumeration serves both the skip report and the executable grid.
	g, skipped, err := spec.Compile()
	if err != nil {
		fail("%v", err)
	}
	for _, sk := range skipped {
		fmt.Fprintf(os.Stderr, "wakeup-sim: skipping cell %s\n", sk)
	}
	res, err := g.Execute()
	if err != nil {
		fail("%v", err)
	}
	out, err := res.Render(format)
	if err != nil {
		fail("%v", err)
	}
	emit(outFile, []byte(out))
}

// emit writes output to the -out file, or stdout when none was given. File
// writes are atomic (temp file + rename in the target directory), so a
// killed process can never leave a truncated artifact behind.
func emit(outFile string, data []byte) {
	if outFile == "" {
		os.Stdout.Write(data)
		return
	}
	if err := sweep.WriteFileAtomic(outFile, data, 0o644); err != nil {
		fail("%v", err)
	}
}

// runSingle preserves the classic one-instance output with transcript and
// matrix renderings. ch is the channel model (nil for the paper default).
func runSingle(algoName, pattern string, ch model.ChannelModel, n, k int, s, gap, width int64,
	seed uint64, horizon int64, showTr, render bool) {

	if k < 1 || k > n {
		fail("need 1 <= k <= n")
	}

	// The single run resolves its algorithm through the same registry as grid
	// mode, so every registered case (the adaptive ones included) runs here
	// with the knowledge and horizon its grid cells get.
	entries := caseEntries([]string{algoName}, s)
	if len(entries) != 1 {
		fail("-algo %s needs grid mode; pass -trials > 1 or multiple axis values", algoName)
	}
	c, err := sweep.ResolveCase(entries[0])
	if err != nil {
		fail("%v", err)
	}
	algo := c.Algo(n, k)
	p := c.Params(n, k, seed)
	hor := c.Horizon(n, k)
	if horizon > 0 {
		hor = horizon
	}

	if pattern == "" || pattern == "suite" {
		fail("the pattern suite needs grid mode; pass -trials > 1 or multiple axis values")
	}
	gens, err := sweep.ParsePatternsAt(pattern, s, gap, width)
	if err != nil {
		fail("%v", err)
	}
	gen := gens[0]
	if c.Adaptive && gen.WhiteBox() {
		fail("%s×%s: white-box pattern needs an oblivious schedule; %s is adaptive", c.Name, gen.Name, c.Name)
	}
	// White-box families (spoiler, swap) run their attack inside the engine
	// against the selected algorithm and channel model; black-box families
	// draw from (n, k, seed).
	e := sim.NewEngine()
	opt := sim.Options{Horizon: hor, Seed: seed, RecordTrace: showTr, Channel: ch, Adaptive: c.Adaptive}
	var w model.WakePattern
	var res model.Result
	if gen.WhiteBox() {
		w, res, err = gen.VsAlgo(e, algo, p, k, seed, opt)
	} else {
		w = gen.Generate(n, k, seed)
		if err = e.Reset(algo, p, w, opt); err == nil {
			res = e.Run()
		}
	}

	fmt.Printf("algorithm : %s\n", algo.Name())
	fmt.Printf("universe  : n=%d, k=%d awake\n", n, k)
	fmt.Printf("pattern   : %s  ids=%v wakes=%v\n", gen.Name, w.IDs, w.Wakes)
	if ch != nil {
		fmt.Printf("channel   : %s\n", ch.Name())
	}
	fmt.Printf("horizon   : %d slots\n", hor)

	if err != nil {
		fail("run: %v", err)
	}
	fmt.Printf("result    : %s\n", res)
	if res.Succeeded {
		fmt.Printf("rounds    : %d (t−s, the paper's cost measure)\n", res.Rounds)
	}
	fmt.Printf("energy    : %d (%d transmissions + %d listening slots)\n",
		res.Energy(), res.Transmissions, res.Listens)

	if showTr {
		fmt.Println("\ntranscript:")
		fmt.Println(trace.Legend())
		fmt.Println(trace.TimelineOf(e.Channel(), 100))
	}

	if render {
		wc, ok := algo.(*core.WakeupC)
		if !ok {
			fail("-render requires -algo wakeupc")
		}
		spec := wc.Spec(p)
		fmt.Println("\nFigure 1 analogue — rows scanned over time:")
		to := res.SuccessSlot + 1
		if to < 40 {
			to = 40
		}
		step := (to - w.FirstWake()) / 16
		if step < 1 {
			step = 1
		}
		fmt.Print(trace.RowScan(spec, w.IDs, w.Wakes, w.FirstWake(), to, step))
		fmt.Println("\nFigure 2 analogue — vertical alignment at the success slot:")
		at := res.SuccessSlot
		if at < 0 {
			at = w.LastWake() + int64(spec.Window)
		}
		fmt.Print(trace.ColumnAlignment(spec, w.IDs, w.Wakes, at))
	}

	if !res.Succeeded {
		os.Exit(2)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wakeup-sim: "+format+"\n", args...)
	os.Exit(1)
}
