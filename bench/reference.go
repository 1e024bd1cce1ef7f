package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// The baseline box shares its memory system with other tenants, and for
// minutes at a time it runs the program's trials up to twice as slow. Medians
// within one run cannot remove a slowdown that lasts longer than the run, so
// a fixed reference task runs before and after every timed iteration, and
// the iteration's set-up and rep times are scaled by how fast the reference
// ran around them. The task is the benchmark's own code, not the program's,
// so no change to the program moves it; it makes the kinds of work the
// trials make — map updates, slice growth, sorting — so it slows down with
// them.

// referenceNominal is the reference task's wall time on the baseline box
// while its host is quiet. Scaled times are seconds at that speed.
const referenceNominal = 25 * time.Millisecond

// referenceExponent is how much of the reference task's slowdown the scaling
// removes. With the reference at 1.6–2.1× its quiet time, the workloads
// slowed by its slowdown raised to 0.7 (sweep_oblivious, whose bit scans stay
// in the small caches) up to 1.05 (sweep_adaptive). At 0.85 every workload's
// scaled time stayed within 16 % of its value on a quiet host.
const referenceExponent = 0.85

// referenceSink keeps the reference task's result alive.
var referenceSink uint64

// referenceTime runs the reference task from a collected heap and returns
// its wall time.
func referenceTime() time.Duration {
	runtime.GC()
	start := time.Now()
	referenceTask()
	return time.Since(start)
}

// referenceSpeed is the factor that turns a time measured between two runs
// of the reference task, taking before and after, into seconds at the
// baseline box's quiet speed.
func referenceSpeed(before, after time.Duration) float64 {
	return math.Pow(float64(2*referenceNominal)/float64(before+after), referenceExponent)
}

// referenceTask is a fixed mix of map updates, slice appends and sorts over
// an xorshift stream.
func referenceTask() {
	counts := map[uint64]uint64{}
	batch := make([]uint64, 0, 1024)
	var kept [][]uint64
	x := uint64(88172645463325252)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		counts[x&(1<<17-1)] += x
		batch = append(batch, x)
		if len(batch) == cap(batch) {
			slices.Sort(batch)
			kept = append(kept, slices.Clone(batch[:64]))
			batch = make([]uint64, 0, 1024)
		}
	}
	referenceSink += uint64(len(counts) + len(kept))
}
