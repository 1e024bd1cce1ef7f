// Command wakeup-adversary attacks an algorithm with the paper's lower
// bound machinery: the Theorem 2.1 swap adversary (find a witness set
// forcing min{k, n−k+1} rounds) and the white-box spoiler (wake a colliding
// partner at every would-be success).
//
// Examples:
//
//	wakeup-adversary -attack swap -algo roundrobin -n 64 -k 12
//	wakeup-adversary -attack swap -algo wakeup_with_k -n 256 -k 16 -greedy
//	wakeup-adversary -attack spoiler -algo wait_and_go_nowait -n 256 -k 8
package main

import (
	"flag"
	"fmt"
	"os"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/sim"
)

func main() {
	var (
		attack  = flag.String("attack", "swap", "attack: swap | spoiler")
		algoStr = flag.String("algo", "roundrobin", "target: roundrobin | wakeup_with_k | wakeupc | wait_and_go | wait_and_go_nowait | wakeupc_nomu")
		n       = flag.Int("n", 64, "universe size")
		k       = flag.Int("k", 12, "adversary's station budget")
		seed    = flag.Uint64("seed", 1, "seed")
		greedy  = flag.Bool("greedy", false, "swap: try every replacement candidate (slower, stronger)")
		first   = flag.Int("first", 1, "spoiler: initial station ID")
	)
	flag.Parse()

	if *attack != "swap" && *attack != "spoiler" {
		fail("unknown attack %q (have swap, spoiler)", *attack)
	}
	if *k < 1 || *k > *n {
		fail("need 1 <= k <= n")
	}
	if *attack == "spoiler" && (*first < 1 || *first > *n) {
		fail("need 1 <= first <= n")
	}

	p := model.Params{N: *n, S: -1, Seed: *seed}
	var algo model.Algorithm
	var horizon int64
	switch *algoStr {
	case "roundrobin":
		a := core.NewRoundRobin()
		algo, horizon = a, a.Horizon(*n, *k)
	case "wakeup_with_k":
		p.K = *k
		algo, horizon = core.NewWakeupWithK(), core.WakeupWithKHorizon(*n, *k)
	case "wakeupc":
		a := core.NewWakeupC()
		algo, horizon = a, a.Horizon(*n, *k)
	case "wakeupc_nomu":
		a := &core.WakeupC{DisableWindowWait: true}
		algo, horizon = a, a.Horizon(*n, *k)
	case "wait_and_go":
		p.K = *k
		a := core.NewWaitAndGo()
		algo, horizon = a, a.Horizon(*n, *k)
	case "wait_and_go_nowait":
		p.K = *k
		a := &core.WaitAndGo{DisableWait: true}
		algo, horizon = a, a.Horizon(*n, *k)
	default:
		fail("unknown algorithm %q", *algoStr)
	}

	fmt.Printf("target    : %s (n=%d, k=%d)\n", algo.Name(), *n, *k)
	fmt.Printf("thm 2.1   : min{k, n−k+1} = %d slots\n\n", mathx.BoundLowerMinKN(*n, *k))

	switch *attack {
	case "swap":
		res := adversary.Swap(algo, p, *k, horizon, *greedy)
		fmt.Printf("swap adversary (greedy=%v):\n", *greedy)
		fmt.Printf("  forced slots    : %d\n", res.ForcedRounds+1)
		fmt.Printf("  distinct rounds : %d over %d witness sets\n", res.DistinctRounds, res.Iterations)
		fmt.Printf("  witness         : %v\n", res.Witness)
		if res.ForcedRounds+1 >= res.TheoremBound {
			fmt.Println("  verdict         : theorem bound met or exceeded")
		} else {
			fmt.Println("  verdict         : BELOW theorem bound — model bug, please report")
			os.Exit(2)
		}
	case "spoiler":
		res, _, err := adversary.Spoiler(sim.NewEngine(), algo, p, *k, *first, sim.Options{Horizon: horizon, Seed: p.Seed})
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("spoiler attack (first station %d):\n", *first)
		fmt.Printf("  rounds under attack : %d\n", res.Rounds)
		fmt.Printf("  successes spoiled   : %d (budget %d)\n", res.Spoiled, *k-1)
		fmt.Printf("  pattern             : ids=%v wakes=%v\n", res.Pattern.IDs, res.Pattern.Wakes)
		if !res.Succeeded {
			fmt.Println("  verdict             : success fully suppressed within horizon")
			os.Exit(2)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wakeup-adversary: "+format+"\n", args...)
	os.Exit(1)
}
