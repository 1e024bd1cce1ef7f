// Command wakeup-sim runs one contention-resolution instance (one
// algorithm, one wake pattern, one n and k, one seed) and prints its
// report, optionally with the channel transcript and the Figure 1/2 matrix
// renderings. The white-box patterns (spoiler, swap) run their attack
// against the selected algorithm and channel. Grids are wakeup-bench's job:
// a comma list on -algo, -n, -k, -pattern or -channels, or -algo all, exits
// 1 naming the wakeup-bench flag that takes it.
//
// Examples:
//
//	wakeup-sim -algo wakeupc -n 1024 -k 8 -pattern staggered:7
//	wakeup-sim -algo wakeup_with_k -n 4096 -k 16 -pattern uniform -trace
//	wakeup-sim -algo wakeupc -n 256 -k 3 -render
//	wakeup-sim -algo tree_cd -n 64 -k 3 -channels cd
//	wakeup-sim -algo waitandgo_nowait -n 256 -k 8 -pattern spoiler
//	wakeup-sim -algo roundrobin -n 64 -k 12 -pattern swap:1   # greedy swap search
//	wakeup-sim -algo wakeupc -n 32 -k 4 -pattern spoiler -channels noisy:0.1 -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nsmac/internal/core"
	// Registers the experiment drivers' ablation cases (waitandgo,
	// waitandgo_nowait, wakeupc_nowindow, wakeupc_c:<C>, clockskew), so
	// -algo resolves the same names as wakeup-bench -algos.
	_ "nsmac/internal/experiments"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/trace"
	"nsmac/sweep"
)

func main() {
	var (
		algoName = flag.String("algo", "wakeupc", "algorithm entry: roundrobin | wakeup_with_s[:slot] | wakeup_with_k | wakeupc | rpd | rpdk | beb | localssf | tree_cd | kg | waitandgo | waitandgo_nowait | wakeupc_nowindow | wakeupc_c:<C> | clockskew[:s]")
		nStr     = flag.String("n", "1024", "universe size (station IDs 1..n)")
		kStr     = flag.String("k", "8", "number of stations the adversary wakes")
		s        = flag.Int64("s", 0, "first wake-up slot")
		pattern  = flag.String("pattern", "simultaneous", "wake pattern entry: simultaneous | staggered[:gap] | uniform[:width] | bursts[:gap] | spoiler | swap[:1=greedy]; @slot shifts the start")
		chName   = flag.String("channels", "", "channel-model entry: none | cd | sender_cd | ack | noisy:<p> | jam:<q>; empty keeps the paper channel")
		seed     = flag.Uint64("seed", 1, "random seed (schedules and pattern)")
		horizon  = flag.Int64("horizon", 0, "simulation cap (0 = algorithm's own bound)")
		showTr   = flag.Bool("trace", false, "print the channel transcript timeline")
		render   = flag.Bool("render", false, "print the Figure 1/2 matrix renderings (wakeupc only)")
	)
	flag.Parse()

	// A list on any axis is a grid, which wakeup-bench runs.
	for _, f := range []struct{ flag, bench, val string }{
		{"algo", "algos", *algoName}, {"n", "ns", *nStr}, {"k", "ks", *kStr},
		{"pattern", "patterns", *pattern}, {"channels", "channels", *chName},
	} {
		if strings.Contains(f.val, ",") || (f.flag == "algo" && strings.TrimSpace(f.val) == "all") {
			fail("-%s %s is a grid axis; run grids with wakeup-bench -%s (wakeup-sim runs one instance)", f.flag, f.val, f.bench)
		}
	}
	if p := strings.TrimSpace(*pattern); p == "" || p == "suite" {
		fail("the pattern suite is a grid axis; run it with wakeup-bench -patterns suite")
	}
	if *horizon < 0 {
		fail("-horizon %d: need >= 0 (0 = the algorithm's own bound)", *horizon)
	}
	ns, err := sweep.ParseInts(*nStr)
	if err != nil {
		fail("-n: %v", err)
	}
	ks, err := sweep.ParseInts(*kStr)
	if err != nil {
		fail("-k: %v", err)
	}
	n, k := ns[0], ks[0]
	if k > n {
		fail("need 1 <= k <= n")
	}
	var ch model.ChannelModel
	if strings.TrimSpace(*chName) != "" {
		if ch, err = sweep.ResolveChannel(*chName); err != nil {
			fail("-channels: %v", err)
		}
	}

	// The run resolves its algorithm through the sweep registry, so every
	// registered case runs here with the knowledge and horizon its grid
	// cells get. A nonzero -s travels as the scenario-A case argument.
	entry := strings.TrimSpace(*algoName)
	if entry == "wakeup_with_s" && *s != 0 {
		entry = fmt.Sprintf("wakeup_with_s:%d", *s)
	}
	c, err := sweep.ResolveCase(entry)
	if err != nil {
		fail("%v", err)
	}
	algo := c.Algo(n, k)
	p := c.Params(n, k, *seed)
	hor := c.Horizon(n, k)
	if *horizon > 0 {
		hor = *horizon
	}
	gen, err := sweep.ResolvePattern(*pattern, *s)
	if err != nil {
		fail("%v", err)
	}
	if c.Adaptive && gen.WhiteBox() {
		// The line a grid prints when it skips this cell.
		fail("%s×%s (white-box pattern needs an oblivious schedule; %s is adaptive)", c.Name, gen.Name, c.Name)
	}
	wc, isWakeupC := algo.(*core.WakeupC)
	if *render && !isWakeupC {
		fail("-render requires -algo wakeupc")
	}

	// White-box families (spoiler, swap) run their attack inside the engine
	// against the selected algorithm and channel model; black-box families
	// draw from (n, k, seed).
	e := sim.NewEngine()
	opt := sim.Options{Horizon: hor, Seed: *seed, RecordTrace: *showTr, Channel: ch, Adaptive: c.Adaptive}
	var w model.WakePattern
	var res model.Result
	if gen.WhiteBox() {
		w, res, err = gen.VsAlgo(e, algo, p, k, *seed, opt)
	} else {
		w = gen.Generate(model.WakePattern{}, n, k, *seed)
		if err = e.Reset(algo, p, w, opt); err == nil {
			res = e.Run()
		}
	}
	if err != nil {
		fail("run: %v", err)
	}

	fmt.Printf("algorithm : %s\n", algo.Name())
	fmt.Printf("universe  : n=%d, k=%d awake\n", n, k)
	fmt.Printf("pattern   : %s  ids=%v wakes=%v\n", gen.Name, w.IDs, w.Wakes)
	if ch != nil {
		fmt.Printf("channel   : %s\n", ch.Name())
	}
	fmt.Printf("horizon   : %d slots\n", hor)
	fmt.Printf("result    : %s\n", res)
	if res.Succeeded {
		fmt.Printf("rounds    : %d (t−s, the paper's cost measure)\n", res.Rounds)
	}
	fmt.Printf("energy    : %d (%d transmissions + %d listening slots)\n",
		res.Energy(), res.Transmissions, res.Listens)

	if *showTr {
		fmt.Println("\ntranscript:")
		fmt.Println(trace.Legend())
		fmt.Println(trace.TimelineOf(e.Channel(), 100))
	}

	if *render {
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
