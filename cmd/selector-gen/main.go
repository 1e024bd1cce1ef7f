// Command selector-gen builds (n,k)-selective families, reports their
// lengths against the Komlós–Greenberg optimum, and optionally verifies
// selectivity (exhaustively for small n, by sampling otherwise).
//
// Examples:
//
//	selector-gen -n 1024 -k 16                   # lengths only
//	selector-gen -n 14 -k 4 -verify              # exhaustive verification
//	selector-gen -n 65536 -k 64 -verify -trials 500
//	selector-gen -n 12 -k 3 -dump                # print the sets
package main

import (
	"flag"
	"fmt"
	"os"

	"nsmac/internal/mathx"
	"nsmac/internal/selectors"
)

func main() {
	var (
		n      = flag.Int("n", 1024, "universe size")
		k      = flag.Int("k", 16, "selectivity parameter")
		seed   = flag.Uint64("seed", 1, "seed for the random construction")
		verify = flag.Bool("verify", false, "verify selectivity (exhaustive for n <= 18, sampled otherwise)")
		trials = flag.Int("trials", 300, "sampling trials for large-n verification")
		dump   = flag.Bool("dump", false, "print every set (small n only)")
	)
	flag.Parse()

	if *k < 1 || *k > *n {
		fmt.Fprintln(os.Stderr, "selector-gen: need 1 <= k <= n")
		os.Exit(1)
	}

	i := max(1, mathx.Log2Ceil(max(2, *k)))
	random := selectors.NewRandomPow2(*n, i, *seed)
	ks := selectors.NewKautzSingleton(*n, *k)
	singles := selectors.NewSingletons(*n)
	bound := mathx.BoundKLogNK(*n, *k)

	fmt.Printf("universe n=%d, parameter k=%d (density rung i=%d)\n", *n, *k, i)
	fmt.Printf("KG optimum Θ(k log(n/k)+k): %d\n\n", bound)
	fmt.Printf("%-28s %12s %14s\n", "construction", "length", "length/bound")
	for _, f := range []selectors.Family{random, ks, singles} {
		fmt.Printf("%-28s %12d %14.2f\n", f.Name(), f.Length(), float64(f.Length())/float64(bound))
	}

	if *verify {
		fmt.Println()
		check := func(f selectors.Family) {
			var ok bool
			var w *selectors.Witness
			mode := "exhaustive"
			if *n <= 18 {
				ok, w = selectors.IsSelective(f, *k)
			} else {
				mode = fmt.Sprintf("sampled(%d)", *trials)
				ok, w = selectors.SampleSelective(f, *k, *trials, *seed+1)
			}
			if ok {
				fmt.Printf("%-28s %s: SELECTIVE\n", f.Name(), mode)
			} else {
				fmt.Printf("%-28s %s: VIOLATION %v\n", f.Name(), mode, w)
			}
		}
		check(random)
		check(ks)
		check(singles)
	}

	if *dump {
		if *n > 64 {
			fmt.Fprintln(os.Stderr, "selector-gen: -dump limited to n <= 64")
			os.Exit(1)
		}
		fmt.Println("\nrandom family sets:")
		e := selectors.Materialize(random)
		for j := int64(0); j < e.Length(); j++ {
			fmt.Printf("  F_%-3d = %s\n", j, e.Set(j))
		}
	}
}
