package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFeedbackString(t *testing.T) {
	// The named values, the first unknown value (the boundary right past
	// Collision), and the extremes of the underlying uint8 all format
	// without panicking and unambiguously.
	cases := map[Feedback]string{
		Silence:       "silence",
		Success:       "success",
		Collision:     "collision",
		Collision + 1: "feedback(3)",
		Feedback(9):   "feedback(9)",
		Feedback(255): "feedback(255)",
	}
	for fb, want := range cases {
		if got := fb.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(fb), got, want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := []Params{
		{N: 1},
		{N: 10, K: 5},
		{N: 10, K: 10, S: 0},
		{N: 10, S: -1},
		{N: 10, S: 12345},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good params %d rejected: %v", i, err)
		}
	}
	bad := []Params{
		{N: 0},
		{N: -1},
		{N: 5, K: 6},
		{N: 5, K: -1},
		{N: 5, S: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestParamsKnowledgeSwitches(t *testing.T) {
	a := Params{N: 10, S: 5}
	if !a.KnowsS() || a.KnowsK() {
		t.Error("scenario A knowledge switches wrong")
	}
	b := Params{N: 10, K: 4, S: -1}
	if b.KnowsS() || !b.KnowsK() {
		t.Error("scenario B knowledge switches wrong")
	}
	c := Params{N: 10, S: -1}
	if c.KnowsS() || c.KnowsK() {
		t.Error("scenario C knowledge switches wrong")
	}
}

func TestWakePatternValidate(t *testing.T) {
	good := []struct {
		name string
		w    WakePattern
	}{
		{"plain", WakePattern{IDs: []int{1, 5, 10}, Wakes: []int64{3, 0, 3}}},
		{"boundary ids", WakePattern{IDs: []int{1, 10}, Wakes: []int64{0, 0}}},
		{"zero wake", WakePattern{IDs: []int{7}, Wakes: []int64{0}}},
		{"unsorted ids", WakePattern{IDs: []int{10, 1, 5}, Wakes: []int64{0, 3, 3}}},
	}
	for _, tc := range good {
		if err := tc.w.Validate(10); err != nil {
			t.Errorf("%s: valid pattern rejected: %v", tc.name, err)
		}
	}
	// Each rejection must fire its OWN branch — asserted via the error text
	// — so the duplicate-ID and negative-wake checks can't silently hide
	// behind the range check.
	bad := []struct {
		name    string
		w       WakePattern
		wantErr string
	}{
		{"empty", WakePattern{}, "empty wake pattern"},
		{"length mismatch", WakePattern{IDs: []int{1}, Wakes: []int64{}}, "1 ids but 0 wake times"},
		{"id below range", WakePattern{IDs: []int{0}, Wakes: []int64{0}}, "out of [1,10]"},
		{"id above range", WakePattern{IDs: []int{11}, Wakes: []int64{0}}, "out of [1,10]"},
		{"duplicate id", WakePattern{IDs: []int{3, 3}, Wakes: []int64{0, 1}}, "duplicate station 3"},
		{"duplicate id late", WakePattern{IDs: []int{1, 2, 2}, Wakes: []int64{0, 0, 5}}, "duplicate station 2"},
		{"sorted adjacent duplicate", WakePattern{IDs: []int{2, 4, 4, 9}, Wakes: []int64{0, 0, 0, 0}}, "duplicate station 4"},
		{"unsorted duplicate", WakePattern{IDs: []int{9, 3, 5, 3}, Wakes: []int64{0, 1, 2, 3}}, "duplicate station 3"},
		{"negative wake", WakePattern{IDs: []int{1}, Wakes: []int64{-1}}, "negative wake time -1"},
		{"negative wake late", WakePattern{IDs: []int{1, 2}, Wakes: []int64{0, -7}}, "negative wake time -7"},
	}
	for _, tc := range bad {
		err := tc.w.Validate(10)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not name its branch (want %q)", tc.name, err, tc.wantErr)
		}
	}
}

// TestWakePatternValidateSortedAllocFree pins the fast path: strictly
// increasing IDs are checked without building the duplicate map.
func TestWakePatternValidateSortedAllocFree(t *testing.T) {
	w := WakePattern{IDs: []int{2, 3, 8, 40}, Wakes: []int64{0, 4, 4, 9}}
	if allocs := testing.AllocsPerRun(50, func() { _ = w.Validate(64) }); allocs != 0 {
		t.Errorf("Validate of a sorted pattern allocates %.0f objects, want 0", allocs)
	}
}

func TestWakePatternBounds(t *testing.T) {
	w := WakePattern{IDs: []int{4, 2, 9}, Wakes: []int64{7, 3, 11}}
	if w.K() != 3 {
		t.Errorf("K = %d, want 3", w.K())
	}
	if w.FirstWake() != 3 {
		t.Errorf("FirstWake = %d, want 3", w.FirstWake())
	}
	if w.LastWake() != 11 {
		t.Errorf("LastWake = %d, want 11", w.LastWake())
	}
}

func TestSorted(t *testing.T) {
	w := WakePattern{IDs: []int{4, 2, 9, 1}, Wakes: []int64{7, 3, 3, 0}}
	s := w.Sorted()
	wantIDs := []int{1, 2, 9, 4}
	wantWk := []int64{0, 3, 3, 7}
	for i := range wantIDs {
		if s.IDs[i] != wantIDs[i] || s.Wakes[i] != wantWk[i] {
			t.Fatalf("Sorted = %v/%v, want %v/%v", s.IDs, s.Wakes, wantIDs, wantWk)
		}
	}
	// Original untouched.
	if w.IDs[0] != 4 {
		t.Error("Sorted mutated the receiver")
	}
}

func TestSortedProperty(t *testing.T) {
	f := func(rawIDs []uint8) bool {
		// Build a duplicate-free pattern.
		seen := map[int]bool{}
		var ids []int
		var wakes []int64
		for i, r := range rawIDs {
			id := int(r)%100 + 1
			if seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
			wakes = append(wakes, int64(i%7))
		}
		if len(ids) == 0 {
			return true
		}
		w := WakePattern{IDs: ids, Wakes: wakes}
		s := w.Sorted()
		if s.K() != w.K() {
			return false
		}
		for i := 1; i < s.K(); i++ {
			if s.Wakes[i-1] > s.Wakes[i] {
				return false
			}
			if s.Wakes[i-1] == s.Wakes[i] && s.IDs[i-1] >= s.IDs[i] {
				return false
			}
		}
		// Same multiset of (id, wake) pairs.
		pairs := map[[2]int64]int{}
		for i := range w.IDs {
			pairs[[2]int64{int64(w.IDs[i]), w.Wakes[i]}]++
		}
		for i := range s.IDs {
			pairs[[2]int64{int64(s.IDs[i]), s.Wakes[i]}]--
		}
		for _, c := range pairs {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimultaneous(t *testing.T) {
	ids := []int{3, 1, 4}
	w := Simultaneous(ids, 9)
	if w.K() != 3 || w.FirstWake() != 9 || w.LastWake() != 9 {
		t.Fatalf("Simultaneous wrong: %+v", w)
	}
	// Defensive copy.
	ids[0] = 99
	if w.IDs[0] == 99 {
		t.Error("Simultaneous aliased the input slice")
	}
}

func TestResultString(t *testing.T) {
	ok := Result{Succeeded: true, Winner: 7, SuccessSlot: 41, Rounds: 41, Collisions: 3, Silences: 5}
	if s := ok.String(); !strings.Contains(s, "station 7") || !strings.Contains(s, "rounds=41") {
		t.Errorf("Result.String = %q", s)
	}
	fail := Result{Succeeded: false, Slots: 100, Collisions: 42}
	if s := fail.String(); !strings.Contains(s, "FAILED") || !strings.Contains(s, "100") {
		t.Errorf("failed Result.String = %q", s)
	}
}
