package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nsmac/sweep"
)

// runServe implements the "serve" subcommand: a long-lived campaign server
// owning the shard queue, speaking the HTTP/JSON lease protocol.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		storeDir    = fs.String("store", "", "persist shard envelopes (and the worker-tagged attempt log) under this directory; campaigns resume from stored envelopes")
		lease       = fs.Duration("lease", 30*time.Second, "lease visibility timeout: a worker that stops heartbeating for this long loses its shard")
		stealAfter  = fs.Duration("steal-after", 0, "minimum lease age before a straggler's shard is offered to a second worker (0 = half the lease timeout)")
		maxAttempts = fs.Int("max-attempts", 5, "lease grants per shard before its grid fails")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench serve [-addr host:port] [-store dir] [-lease 30s] ...\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fail("serve: unexpected arguments %v", fs.Args())
	}

	opts := sweep.CampaignOptions{
		LeaseTimeout: *lease,
		StealAfter:   *stealAfter,
		MaxAttempts:  *maxAttempts,
	}
	if *storeDir != "" {
		opts.Store = &sweep.RunStore{Dir: *storeDir}
	}
	srv := sweep.NewCampaignServer(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("serve: %v", err)
	}
	// The bound address goes to stderr in a greppable form so scripts (and
	// the CI smoke job) can use -addr 127.0.0.1:0 and discover the port.
	fmt.Fprintf(os.Stderr, "wakeup-bench: serving campaigns on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: sweep.CampaignHandler(srv)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("serve: %v", err)
	}
}

// runWork implements the "work" subcommand: a pull-based lease worker that
// runs campaign shards through an executor and heartbeats the server.
func runWork(args []string) {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	var (
		server    = fs.String("server", "", "campaign server base URL (required), e.g. http://127.0.0.1:8080")
		id        = fs.String("id", "", "worker identity in leases and the attempt log (default: <hostname>-<pid>)")
		execSpec  = fs.String("exec", "local", "executor: \"local\", \"subprocess[:binary]\", or \"cmd:<template>\" (same grammar as `run -exec`)")
		workers   = fs.Int("workers", 0, "per-shard trial workers for local/subprocess executors (0 = GOMAXPROCS)")
		poll      = fs.Duration("poll", 500*time.Millisecond, "idle sleep between empty lease requests")
		maxLeases = fs.Int("max-leases", 0, "exit after this many leases (0 = run until interrupted)")
		hold      = fs.Duration("hold", 0, "pause between lease grant and shard execution (fault-injection hook for kill-mid-lease tests)")
		progress  = fs.String("progress", "text", "progress on stderr: text | json (one event per line) | none")
	)
	prof := addProfileFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench work -server URL [-id name] [-exec local|subprocess[:bin]|cmd:...] [-progress text|json|none] ...\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fail("work: unexpected arguments %v", fs.Args())
	}
	if *server == "" {
		fail("work: -server is required")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	defer prof.start()()

	w := &sweep.CampaignWorker{
		Client:    sweep.NewCampaignClient(*server, nil),
		ID:        *id,
		Exec:      buildExecutor("work", *execSpec, *workers),
		Poll:      *poll,
		MaxLeases: *maxLeases,
		Hold:      *hold,
		OnEvent:   workerProgress("work", *progress),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fail("work: %v", err)
	}
}

// workerProgress builds the lease workers' stderr progress hook for the
// -progress mode of subcommand cmd: human lines, one JSON event per line,
// or nothing.
func workerProgress(cmd, mode string) func(sweep.CampaignWorkerEvent) {
	switch mode {
	case "none":
		return nil
	case "json":
		return func(ev sweep.CampaignWorkerEvent) { emitJSONEvent(ev) }
	case "", "text":
		return func(ev sweep.CampaignWorkerEvent) {
			switch ev.Event {
			case "lease":
				verb := "leased"
				if ev.Steal {
					verb = "stealing"
				}
				fmt.Fprintf(os.Stderr, "wakeup-bench: %s shard %d/%d of %s/%s (attempt %d)\n",
					verb, ev.Shard, ev.Shards, ev.Campaign, ev.Grid, ev.Attempt)
			case "complete":
				fmt.Fprintf(os.Stderr, "wakeup-bench: shard %d/%d of %s/%s done\n",
					ev.Shard, ev.Shards, ev.Campaign, ev.Grid)
			case "stored":
				fmt.Fprintf(os.Stderr, "wakeup-bench: shard %d/%d of %s/%s already in store\n",
					ev.Shard, ev.Shards, ev.Campaign, ev.Grid)
			case "duplicate":
				fmt.Fprintf(os.Stderr, "wakeup-bench: shard %d/%d of %s/%s already completed elsewhere\n",
					ev.Shard, ev.Shards, ev.Campaign, ev.Grid)
			case "heartbeat_lost":
				fmt.Fprintf(os.Stderr, "wakeup-bench: lost lease on shard %d/%d of %s/%s\n",
					ev.Shard, ev.Shards, ev.Campaign, ev.Grid)
			case "fail":
				fmt.Fprintf(os.Stderr, "wakeup-bench: shard %d/%d of %s/%s failed: %s\n",
					ev.Shard, ev.Shards, ev.Campaign, ev.Grid, ev.Error)
			case "exit":
				fmt.Fprintf(os.Stderr, "wakeup-bench: worker %s exiting after %d leases\n", ev.Worker, ev.Leases)
			}
		}
	default:
		fail("%s: unknown -progress %q (have text, json, none)", cmd, mode)
		panic("unreachable")
	}
}

// runSubmit implements the "submit" subcommand: ship a campaign manifest
// (or a single spec document wrapped as one) and print the campaign ID.
func runSubmit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		server   = fs.String("server", "", "campaign server base URL (required)")
		manifest = fs.String("manifest", "", "campaign manifest (JSON; \"-\" reads stdin): {\"name\": ..., \"grids\": [{\"id\": ..., \"spec\": {...}, \"shards\": n}, ...]}")
		specFile = fs.String("spec", "", "single grid spec document to wrap as a one-grid campaign (JSON; \"-\" reads stdin)")
		name     = fs.String("name", "", "campaign name for -spec submissions")
		gridID   = fs.String("grid-id", "grid", "grid id for -spec submissions")
		shards   = fs.Int("shards", 0, "shard count for -spec submissions (0 = server autotunes from observed wall-clock)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench submit -server URL (-manifest campaign.json | -spec grid.json [-name x] [-grid-id g] [-shards n])\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fail("submit: unexpected arguments %v", fs.Args())
	}
	if *server == "" {
		fail("submit: -server is required")
	}
	if (*manifest == "") == (*specFile == "") {
		fail("submit: pass exactly one of -manifest or -spec")
	}

	var m sweep.CampaignManifest
	if *manifest != "" {
		data := readInput(*manifest)
		var err error
		m, err = sweep.ParseCampaignManifest(data)
		if err != nil {
			fail("submit: %v", err)
		}
	} else {
		m = sweep.NewCampaign(*name, *gridID, readSpecDoc(*specFile), *shards)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	id, err := sweep.NewCampaignClient(*server, nil).Submit(ctx, m)
	if err != nil {
		fail("submit: %v", err)
	}
	fmt.Println(id)
}

// runStatus implements the "status" subcommand: campaign progress, or — with
// -campaign and -grid — the grid's merged results so far (partial results
// are labeled on stderr; stdout stays byte-identical to the one-process run
// once the grid completes).
func runStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var (
		server     = fs.String("server", "", "campaign server base URL (required)")
		campaignID = fs.String("campaign", "", "campaign to report (default: all campaigns)")
		gridID     = fs.String("grid", "", "fetch this grid's merged results instead of status (requires -campaign)")
		format     = fs.String("format", "", "output format: for -grid results text | csv | json (default text); for status text | json (default text)")
		outFile    = fs.String("out", "", "write output to this file instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wakeup-bench status -server URL [-campaign id [-grid g]] [-format ...] [-out file]\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fail("status: unexpected arguments %v", fs.Args())
	}
	if *server == "" {
		fail("status: -server is required")
	}
	if *gridID != "" && *campaignID == "" {
		fail("status: -grid needs -campaign")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := sweep.NewCampaignClient(*server, nil)

	if *gridID != "" {
		out, complete, done, total, err := cl.Results(ctx, *campaignID, *gridID, *format)
		if err != nil {
			fail("status: %v", err)
		}
		if !complete {
			fmt.Fprintf(os.Stderr, "wakeup-bench: partial results: %d/%d shards merged\n", done, total)
		}
		emit(*outFile, []byte(out))
		return
	}

	var sts []*sweep.CampaignStatus
	if *campaignID != "" {
		st, err := cl.Status(ctx, *campaignID)
		if err != nil {
			fail("status: %v", err)
		}
		sts = []*sweep.CampaignStatus{st}
	} else {
		var err error
		sts, err = cl.Campaigns(ctx)
		if err != nil {
			fail("status: %v", err)
		}
	}

	switch *format {
	case "json":
		data, err := json.MarshalIndent(sts, "", "  ")
		if err != nil {
			fail("status: %v", err)
		}
		emit(*outFile, append(data, '\n'))
	case "", "text":
		var buf []byte
		for _, st := range sts {
			state := "running"
			switch {
			case st.Failed:
				state = "FAILED"
			case st.Done:
				state = "done"
			}
			buf = append(buf, fmt.Sprintf("%s  %q  %s\n", st.ID, st.Name, state)...)
			for _, g := range st.Grids {
				line := fmt.Sprintf("  grid %-12s %d/%d shards done, %d in flight, %d pending (%d attempts",
					g.ID, g.Done, g.Shards, g.InFlight, g.Pending, g.Attempts)
				if g.Shards == 0 {
					// An autotuned grid is planned at its first lease.
					line = fmt.Sprintf("  grid %-12s unplanned (%d attempts", g.ID, g.Attempts)
				}
				if g.Autotuned {
					line += ", autotuned"
				}
				line += ")"
				if g.Failed != "" {
					line += " FAILED: " + g.Failed
				}
				if g.StoreError != "" {
					line += " store-error: " + g.StoreError
				}
				buf = append(buf, (line + "\n")...)
			}
		}
		emit(*outFile, buf)
	default:
		fail("status: unknown -format %q (have text, json)", *format)
	}
}

// readInput reads a file argument, with "-" meaning stdin.
func readInput(path string) []byte {
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
	return data
}

// emitJSONEvent writes one JSON event per line on stderr — the
// machine-readable progress stream behind `-progress json`.
func emitJSONEvent(ev any) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	os.Stderr.Write(append(data, '\n'))
}
