package sweep

import "testing"

// TestBatchSize pins the work-item geometry Execute derives from the trial
// and worker counts: about eight items per cell per worker, never fewer
// than one trial an item. last is the size of each cell's final item, which
// is ragged whenever batch does not divide trials.
func TestBatchSize(t *testing.T) {
	for _, c := range []struct {
		trials, workers, batch, last int
	}{
		{1, 1, 1, 1},
		{5, 8, 1, 1},
		{7, 1, 1, 1},
		{16, 1, 2, 2},
		{17, 1, 2, 1},
		{64, 1, 8, 8},
		{64, 4, 2, 2},
		{77, 1, 9, 5},
		{77, 2, 4, 1},
		{77, 3, 3, 2},
		{77, 8, 1, 1},
		{1000, 2, 62, 8},
	} {
		b := batchSize(c.trials, c.workers)
		items := (c.trials + b - 1) / b
		if last := c.trials - (items-1)*b; b != c.batch || last != c.last {
			t.Errorf("trials=%d workers=%d: batch %d, last item %d; want %d, %d",
				c.trials, c.workers, b, last, c.batch, c.last)
		}
	}
}
