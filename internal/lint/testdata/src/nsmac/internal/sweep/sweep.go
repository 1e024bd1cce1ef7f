// Package sweep is the fixture stub of nsmac/internal/sweep: a Grid whose
// methods are the one sanctioned goroutine site for the determinism
// analyzer.
package sweep

type Grid struct{ Workers int }

// Execute is the sanctioned worker pool: Grid methods may spawn goroutines.
func (g Grid) Execute() {
	for i := 0; i < g.Workers; i++ {
		go g.worker(i)
	}
	go func() { _ = g.Workers }()
}

func (g Grid) worker(i int) { _ = i }

func runAway() {
	go func() {}() // want "goroutine spawn outside the sanctioned sweep.Grid worker pool"
}
