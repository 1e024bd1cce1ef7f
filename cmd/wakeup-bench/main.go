// Command wakeup-bench regenerates every experiment table (see README.md),
// or runs a sweep grid — declared either by axis flags or by a serializable
// spec document — optionally as one shard of a multi-process plan.
//
// Examples:
//
//	wakeup-bench                           # full experiment suite (minutes)
//	wakeup-bench -quick                    # CI-sized suite (seconds)
//	wakeup-bench -only T4,T6 -format csv   # a subset, as CSV
//	wakeup-bench -algos wakeupc,roundrobin -ns 256,1024 -ks 2,8,32 \
//	    -patterns staggered:7,simultaneous -trials 10 -format json
//	wakeup-bench -algos wakeupc -channels none,noisy:0.05 -trials 20
//	    # channel models as a grid axis (adds the energy column)
//
// Spec documents make a grid portable across processes and machines:
//
//	wakeup-bench -algos all -trials 20 -dump-spec > grid.json   # flags → doc
//	wakeup-bench -spec grid.json                                # doc → run
//	wakeup-bench -spec grid.json -shard 0/3 -out s0.json        # shard 0 of 3
//	wakeup-bench -spec grid.json -shard 1/3 -out s1.json
//	wakeup-bench -spec grid.json -shard 2/3 -out s2.json
//	wakeup-bench merge s0.json s1.json s2.json    # == the unsharded run
//
// The "run" subcommand drives the whole shard plan itself as an in-process
// campaign — a campaign server and -concurrency lease workers that run
// shards through a pluggable executor, with retries and an on-disk store
// that later runs resume from — and prints the merged result,
// byte-identical to the unsharded run:
//
//	wakeup-bench run -spec grid.json -shards 3 -exec subprocess -store runs
//	# ... killed mid-run? the same command re-runs only the missing shards
//	wakeup-bench run -spec grid.json -shards 4 \
//	    -exec 'cmd:ssh host wakeup-bench -spec - -shard {i}/{m}'
//
// Sweep-as-a-service serves the same campaign over HTTP: a long-lived
// server owns the shard queue and pull-based lease workers (any machine
// that can reach it) do the computing — with heartbeats, lease expiry, work
// stealing and shard autotuning. Merged results stream while shards are in
// flight and finish byte-identical to the one-process run:
//
//	wakeup-bench serve -addr :8080 -store runs &
//	wakeup-bench submit -server http://localhost:8080 -spec grid.json   # → c1
//	wakeup-bench work -server http://localhost:8080 &                   # × N workers
//	wakeup-bench status -server http://localhost:8080 -campaign c1
//	wakeup-bench status -server http://localhost:8080 -campaign c1 -grid grid
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nsmac/internal/experiments"
	"nsmac/sweep"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "merge":
			runMerge(os.Args[2:])
			return
		case "run":
			runDispatch(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "work":
			runWork(os.Args[2:])
			return
		case "submit":
			runSubmit(os.Args[2:])
			return
		case "status":
			runStatus(os.Args[2:])
			return
		}
	}

	var (
		quick    = flag.Bool("quick", false, "CI-sized sweeps")
		trials   = flag.Int("trials", 0, "override per-cell trial count")
		seed     = flag.Uint64("seed", 20130527, "experiment seed (default: IPDPS 2013 conference date)")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		workers  = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		format   = flag.String("format", "text", "output format: text | csv | json")
		algos    = flag.String("algos", "", "custom grid: comma-separated algorithm entries (or \"all\"); selecting this skips the experiment tables")
		ns       = flag.String("ns", "256,1024", "custom grid: universe sizes")
		ks       = flag.String("ks", "1,4,16,64", "custom grid: awake-station counts")
		patterns = flag.String("patterns", "suite", "custom grid: wake pattern entries (simultaneous, staggered[:gap], uniform[:width], bursts[:gap], spoiler, swap[:1=greedy], suite; @slot shifts the start)")
		channels = flag.String("channels", "", "custom grid: channel-model entries (none, cd, sender_cd, ack, noisy:<p>, jam:<q>); empty keeps the paper channel and omits the channel axis")
		specFile = flag.String("spec", "", "run the sweep described by this spec document (JSON; \"-\" reads stdin) instead of flag axes or experiment tables")
		shardArg = flag.String("shard", "", "run only shard i of m of the grid, as \"i/m\", and emit a shard envelope (requires -spec or -algos)")
		outFile  = flag.String("out", "", "write output to this file instead of stdout")
		dumpSpec = flag.Bool("dump-spec", false, "emit the selected grid as a reusable spec document and exit (requires -spec or -algos)")
		noKernel = flag.Bool("no-kernel", false, "step every trial slot by slot, including the ones the engine otherwise finishes in closed form (tree_cd on the channels that deliver a collision as silence: none, ack, noisy, jam); output is byte-identical either way — useful for differential checks and timing (requires -spec or -algos)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail("unexpected arguments %v (did you mean the \"merge\" subcommand?)", flag.Args())
	}

	gridMode := *specFile != "" || *algos != ""
	if gridMode && (*only != "" || *quick) {
		fail("-spec/-algos select a grid run; they cannot be combined with -only or -quick")
	}
	if (*shardArg != "" || *dumpSpec || *noKernel) && !gridMode {
		fail("-shard, -dump-spec and -no-kernel need a grid: pass -spec or -algos")
	}
	if *specFile != "" && *algos != "" {
		fail("-spec and -algos both describe the grid; pick one")
	}
	if *specFile != "" {
		// The document pins the whole grid; explicitly-set axis flags would
		// be silently ignored, so refuse them outright.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ns", "ks", "patterns", "channels", "trials", "seed":
				fail("-spec pins the grid; -%s cannot override it (edit the document instead)", f.Name)
			}
		})
	}

	if gridMode {
		doc := gridDoc(*specFile, *algos, *ns, *ks, *patterns, *channels, *trials, *seed)
		runGrid(doc, *workers, *noKernel, *shardArg, *dumpSpec, *format, *outFile)
		return
	}

	cfg := experiments.Config{Quick: *quick, Trials: *trials, Seed: *seed, Workers: *workers}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(id)
			if !ok {
				fail("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}

	text := *format == "text" || *format == ""
	if text {
		mode := "full"
		if *quick {
			mode = "quick"
		}
		fmt.Printf("# nsmac experiment suite — mode=%s seed=%d\n", mode, *seed)
		fmt.Printf("# reproducing De Marco & Kowalski (IPDPS 2013); see README.md\n\n")
	}

	// JSON output must stay one parseable document, so tables collect into
	// a single array instead of streaming.
	if *format == "json" {
		tables := make([]*experiments.Table, len(selected))
		for i, e := range selected {
			tables[i] = e.Run(cfg)
		}
		out, err := experiments.TablesJSON(tables)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
		return
	}

	for _, e := range selected {
		//nsmac:nondeterminism-ok run-progress timing, reported on stderr only
		start := time.Now()
		tbl := e.Run(cfg)
		out, err := tbl.Emit(*format)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(out)
		if text {
			// Timing goes to stderr: stdout carries only the reproducible
			// tables, so `wakeup-bench > out.txt` diffs byte-identically
			// across runs.
			//nsmac:nondeterminism-ok wall-clock duration prints to stderr, never into a table
			fmt.Fprintf(os.Stderr, "   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}
}

// readSpecDoc loads and decodes a spec document from a file, or from stdin
// when the path is "-" (the form remote executors use to stream a grid to a
// shard worker over ssh).
func readSpecDoc(path string) sweep.SpecDoc {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		fail("%v", err)
	}
	doc, err := sweep.ParseSpecDoc(data)
	if err != nil {
		fail("%v", err)
	}
	return doc
}

// gridDoc returns the grid's spec document: the -spec file, or the document
// the axis flags write. A flag run resolves that document exactly as a -spec
// run would, so -dump-spec prints what the run executes.
func gridDoc(specFile, algos, ns, ks, patterns, channels string, trials int, seed uint64) sweep.SpecDoc {
	if specFile != "" {
		return readSpecDoc(specFile)
	}
	nAxis, err := sweep.ParseInts(ns)
	if err != nil {
		fail("-ns: %v", err)
	}
	kAxis, err := sweep.ParseInts(ks)
	if err != nil {
		fail("-ks: %v", err)
	}
	if trials <= 0 {
		trials = 8
	}
	cases := sweep.StandardCaseNames()
	if algos != "all" {
		cases = entries(algos)
	}
	pats := entries(patterns)
	if pats == nil {
		pats = []string{"suite"}
	}
	return sweep.SpecDoc{
		Name:     "custom",
		Cases:    cases,
		Patterns: pats,
		Channels: entries(channels),
		Ns:       nAxis,
		Ks:       kAxis,
		Trials:   trials,
		Seed:     seed,
	}
}

// entries splits a comma-separated entry flag into its trimmed entries; an
// empty flag has none. An empty entry (a stray comma) is kept, so resolution
// rejects it instead of silently narrowing the grid.
func entries(list string) []string {
	if strings.TrimSpace(list) == "" {
		return nil
	}
	out := strings.Split(list, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

// runGrid executes the grid modes: dump the spec document, run one shard, or
// run (and render) the whole sweep.
func runGrid(doc sweep.SpecDoc, workers int, noKernel bool, shardArg string, dumpSpec bool, format, outFile string) {
	spec, err := doc.Resolve()
	if err != nil {
		fail("%v", err)
	}
	spec.Workers = workers
	spec.DisableKernel = noKernel

	// One enumeration serves both the skip report and the executable grid —
	// a shrunken grid (k > n, capped k) is never silent.
	g, skipped, err := spec.Compile()
	if err != nil {
		fail("%v", err)
	}
	if dumpSpec {
		data, err := doc.Encode()
		if err != nil {
			fail("%v", err)
		}
		emit(outFile, data)
		return
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "wakeup-bench: skipping cell %s\n", s)
	}

	if shardArg != "" {
		index, count, err := parseShard(shardArg)
		if err != nil {
			fail("%v", err)
		}
		sr, err := g.RunShard(index, count)
		if err != nil {
			fail("%v", err)
		}
		data, err := sr.Encode()
		if err != nil {
			fail("%v", err)
		}
		emit(outFile, data)
		return
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

// runMerge implements the "merge" subcommand: reassemble shard envelopes
// into the full sweep and render it.
func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text | csv | json")
	outFile := fs.String("out", "", "write output to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench merge [-format text|csv|json] [-out file] shard.json...\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fail("merge needs at least one shard file")
	}
	shards := make([]*sweep.ShardResult, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		sr, err := sweep.DecodeShardResult(data)
		if err != nil {
			fail("%s: %v", path, err)
		}
		shards = append(shards, sr)
	}
	res, err := sweep.Merge(shards...)
	if err != nil {
		fail("%v", err)
	}
	out, err := res.Render(*format)
	if err != nil {
		fail("%v", err)
	}
	emit(*outFile, []byte(out))
}

// runDispatch implements the "run" subcommand: execute a spec document's
// whole m-shard plan as an in-process campaign — lease workers calling a
// pluggable executor, with retries and an optional envelope store that
// later runs resume from — and render the merged result, byte-identical to
// the unsharded run.
func runDispatch(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		specFile = fs.String("spec", "", "grid spec document (JSON); \"-\" reads stdin (required)")
		shards   = fs.Int("shards", 0, "shard count m of the trial-striped plan (required, >= 1)")
		execSpec = fs.String("exec", "local", "executor: \"local\" (in-process), \"subprocess[:binary]\" (one process per shard: shorthand for cmd:<binary> -spec - -shard {i}/{m}, forwarding -workers; default binary: this one), or \"cmd:<template>\" (whitespace-split argv with {spec}/{i}/{m}/{fingerprint} substituted; envelope read from stdout, spec piped to stdin unless {spec} is used)")
		storeDir = fs.String("store", "", "persist shard envelopes under this directory (<dir>/<fingerprint>/<i>-of-<m>.json); shards whose stored envelope is complete and valid are not run again")
		retries  = fs.Int("retries", 3, "lease attempt cap per shard")
		conc     = fs.Int("concurrency", 1, "lease workers, and so shards in flight at once")
		workers  = fs.Int("workers", 0, "per-shard trial workers for local/subprocess executors (0 = GOMAXPROCS)")
		format   = fs.String("format", "text", "output format: text | csv | json")
		outFile  = fs.String("out", "", "write merged output to this file instead of stdout")
		progress = fs.String("progress", "text", "the lease workers' progress on stderr: text | json (one event per line) | none")
	)
	prof := addProfileFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench run -spec grid.json -shards m [-exec local|subprocess[:bin]|cmd:...] [-store dir] ...\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fail("run: unexpected arguments %v", fs.Args())
	}
	if *specFile == "" {
		fail("run: -spec is required")
	}
	if *shards < 1 {
		fail("run: -shards must be >= 1")
	}
	if *retries < 1 {
		fail("run: -retries must be >= 1 (1 = no retry, fail after the first attempt)")
	}
	switch *format {
	case "", "text", "csv", "json":
		// Validated before any shard is dispatched: a -format typo must not
		// cost the whole run's compute.
	default:
		fail("run: unknown format %q (have text, csv, json)", *format)
	}

	defer prof.start()()

	doc := readSpecDoc(*specFile)
	// Surface the dropped-cell report (and any resolve error) before any
	// shard is dispatched.
	_, skipped, err := sweep.PlanShards(doc, *shards)
	if err != nil {
		fail("%v", err)
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "wakeup-bench: skipping cell %s\n", s)
	}

	d := &sweep.Driver{
		Exec:        buildExecutor("run", *execSpec, *workers),
		MaxAttempts: *retries,
		Concurrency: *conc,
	}
	if *storeDir != "" {
		d.Store = &sweep.RunStore{Dir: *storeDir}
	}
	d.Progress = workerProgress("run", *progress)

	// SIGINT/SIGTERM cancel the dispatch context: in-flight subprocess
	// shards are killed, and — with a store — every completed envelope is
	// already on disk for a later run to resume from. Once the context is
	// canceled the signal handler is released, so a second ^C terminates the
	// process the default way (the local executor cannot abort a shard
	// mid-grid).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	res, err := d.Run(ctx, doc, *shards)
	if err != nil {
		fail("%v", err)
	}
	out, err := res.Render(*format)
	if err != nil {
		fail("%v", err)
	}
	emit(*outFile, []byte(out))
}

// buildExecutor resolves the -exec flag grammar of subcommand cmd into an
// executor. "subprocess[:bin]" is shorthand for the Command template that
// pipes the spec to `bin -spec - -shard {i}/{m}` (this binary by default)
// and reads the envelope from its stdout.
func buildExecutor(cmd, spec string, workers int) sweep.Executor {
	switch {
	case spec == "local":
		return sweep.Local{Workers: workers}
	case spec == "subprocess" || strings.HasPrefix(spec, "subprocess:"):
		bin, ok := strings.CutPrefix(spec, "subprocess:")
		switch {
		case !ok:
			self, err := os.Executable()
			if err != nil {
				fail("%s: -exec subprocess: cannot locate own binary: %v", cmd, err)
			}
			bin = self
		case bin == "":
			fail("%s: -exec subprocess: has an empty binary path", cmd)
		}
		argv := []string{bin}
		if workers != 0 {
			argv = append(argv, "-workers", strconv.Itoa(workers))
		}
		argv = append(argv, "-spec", "-", "-shard", "{i}/{m}")
		return sweep.Command{Argv: argv, Stderr: os.Stderr}
	case strings.HasPrefix(spec, "cmd:"):
		argv := strings.Fields(strings.TrimPrefix(spec, "cmd:"))
		if len(argv) == 0 {
			fail("%s: -exec cmd: has an empty template", cmd)
		}
		return sweep.Command{Argv: argv, Stderr: os.Stderr}
	default:
		fail("%s: unknown -exec %q (have local, subprocess[:binary], cmd:<template>)", cmd, spec)
		panic("unreachable")
	}
}

// parseShard parses the "-shard i/m" plan coordinate. Both halves must be
// clean integers — trailing garbage would silently select a different plan.
func parseShard(s string) (index, count int, err error) {
	iStr, mStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q, want \"i/m\" (e.g. 0/3)", s)
	}
	index, err1 := strconv.Atoi(iStr)
	count, err2 := strconv.Atoi(mStr)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -shard %q, want \"i/m\" (e.g. 0/3)", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < m", s)
	}
	return index, count, nil
}

// emit writes output to the -out file, or stdout when none was given. File
// writes are atomic (temp file + rename in the target directory), so a
// killed shard can never leave a truncated envelope behind for a later
// merge or resumed run to trip over.
func emit(outFile string, data []byte) {
	if outFile == "" {
		os.Stdout.Write(data)
		return
	}
	if err := sweep.WriteFileAtomic(outFile, data, 0o644); err != nil {
		fail("%v", err)
	}
}

func fail(formatStr string, args ...any) {
	fmt.Fprintf(os.Stderr, "wakeup-bench: "+formatStr+"\n", args...)
	os.Exit(1)
}
