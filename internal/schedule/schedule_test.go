package schedule

import (
	"testing"
	"testing/quick"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// slotRecorder is a toy algorithm: station transmits iff t == wake + offset.
// It records what (params, wake) it was built with, to observe the clock
// mapping the combinator applies.
type slotRecorder struct {
	name       string
	offset     int64
	builtWakes map[int]int64
	builtS     int64
}

func newSlotRecorder(name string, offset int64) *slotRecorder {
	return &slotRecorder{name: name, offset: offset, builtWakes: map[int]int64{}, builtS: -99}
}

func (r *slotRecorder) Name() string { return r.name }

func (r *slotRecorder) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	r.builtWakes[id] = wake
	r.builtS = p.S
	return func(t int64) bool { return t == wake+r.offset }
}

func TestFirstAtOrAfter(t *testing.T) {
	cases := []struct{ t, parity, want int64 }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 1},
		{10, 0, 10}, {10, 1, 11}, {11, 0, 12}, {11, 1, 11},
	}
	for _, c := range cases {
		if got := FirstAtOrAfter(c.t, c.parity); got != c.want {
			t.Errorf("FirstAtOrAfter(%d,%d) = %d, want %d", c.t, c.parity, got, c.want)
		}
	}
}

func TestComponentGlobalRoundTrip(t *testing.T) {
	f := func(raw uint16, p bool) bool {
		parity := int64(0)
		if p {
			parity = 1
		}
		c := int64(raw)
		g := GlobalIndex(c, parity)
		return ComponentIndex(g, parity) == c && g%2 == parity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComponentIndexPanicsOnWrongParity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ComponentIndex(3, 0)
}

func TestClockHelperPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { FirstAtOrAfter(0, 2) },
		func() { FirstAtOrAfter(-1, 0) },
		func() { GlobalIndex(0, 2) },
		func() { GlobalIndex(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// drainSrc is an algorithm that records whether a random source arrived.
type drainSrc struct{ got []bool }

func (d *drainSrc) Name() string { return "drainSrc" }
func (d *drainSrc) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	d.got = append(d.got, src != nil)
	return func(int64) bool { return false }
}

func TestInterleavedDerivesComponentSources(t *testing.T) {
	// With a random source supplied, both components must receive derived
	// (non-nil) sources; with nil, both get nil.
	even, odd := &drainSrc{}, &drainSrc{}
	il := NewInterleaved("src", even, odd)
	il.Build(model.Params{N: 4, S: -1}, 1, 0, rng.New(1))
	if len(even.got) != 1 || !even.got[0] || len(odd.got) != 1 || !odd.got[0] {
		t.Error("components did not receive derived sources")
	}
	even2, odd2 := &drainSrc{}, &drainSrc{}
	il2 := NewInterleaved("nil", even2, odd2)
	il2.Build(model.Params{N: 4, S: -1}, 1, 0, nil)
	if even2.got[0] || odd2.got[0] {
		t.Error("nil source should propagate as nil")
	}
}

func TestMapParams(t *testing.T) {
	p := model.Params{N: 10, K: 3, S: 5, Seed: 1}
	even := MapParams(p, 0, 77)
	// First even slot >= 5 is 6, component index 3.
	if even.S != 3 {
		t.Errorf("even-mapped S = %d, want 3", even.S)
	}
	if even.Seed != 77 || even.N != 10 || even.K != 3 {
		t.Error("MapParams corrupted other fields")
	}
	odd := MapParams(p, 1, 78)
	// First odd slot >= 5 is 5, component index 2.
	if odd.S != 2 {
		t.Errorf("odd-mapped S = %d, want 2", odd.S)
	}
	// Unknown S passes through untouched.
	pc := model.Params{N: 10, S: -1}
	if got := MapParams(pc, 0, 1); got.S != -1 {
		t.Errorf("unknown S mapped to %d", got.S)
	}
}

func TestInterleavedDispatch(t *testing.T) {
	even := newSlotRecorder("even", 0) // transmits at its component wake slot
	odd := newSlotRecorder("odd", 0)
	il := NewInterleaved("test", even, odd)
	p := model.Params{N: 4, S: -1, Seed: 9}

	// Station 1 wakes at global 5 (odd). Even component wake: global 6 ->
	// index 3. Odd component wake: global 5 -> index 2.
	f := il.Build(p, 1, 5, nil)
	if even.builtWakes[1] != 3 {
		t.Errorf("even component wake = %d, want 3", even.builtWakes[1])
	}
	if odd.builtWakes[1] != 2 {
		t.Errorf("odd component wake = %d, want 2", odd.builtWakes[1])
	}
	// The recorder transmits at component slot == component wake:
	// even: index 3 -> global 6; odd: index 2 -> global 5.
	expect := map[int64]bool{5: true, 6: true}
	for gt := int64(5); gt < 12; gt++ {
		if got := f(gt); got != expect[gt] {
			t.Errorf("f(%d) = %v, want %v", gt, got, expect[gt])
		}
	}
}

func TestInterleavedNeverTransmitsBeforeComponentWake(t *testing.T) {
	// Offset -1 would fire one slot before wake if the combinator failed to
	// clamp; the clamp keeps pre-wake slots silent.
	even := newSlotRecorder("even", -1)
	odd := newSlotRecorder("odd", -1)
	il := NewInterleaved("clamp", even, odd)
	f := il.Build(model.Params{N: 4, S: -1}, 2, 8, nil)
	for gt := int64(8); gt < 20; gt++ {
		if f(gt) {
			t.Errorf("transmitted at %d despite offset placing shot pre-wake", gt)
		}
	}
}

func TestInterleavedMapsKnownS(t *testing.T) {
	even := newSlotRecorder("even", 0)
	odd := newSlotRecorder("odd", 0)
	il := NewInterleaved("s", even, odd)
	il.Build(model.Params{N: 4, S: 7, Seed: 3}, 1, 7, nil)
	// Even: first even >= 7 is 8 -> index 4. Odd: 7 -> index 3.
	if even.builtS != 4 {
		t.Errorf("even S = %d, want 4", even.builtS)
	}
	if odd.builtS != 3 {
		t.Errorf("odd S = %d, want 3", odd.builtS)
	}
}

func TestInterleavedName(t *testing.T) {
	il := NewInterleaved("wakeup_with_s", newSlotRecorder("a", 0), newSlotRecorder("b", 0))
	if il.Name() != "wakeup_with_s" {
		t.Error("name not preserved")
	}
	if il.Even().Name() != "a" || il.Odd().Name() != "b" {
		t.Error("component accessors wrong")
	}
}

func TestInterleavedNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewInterleaved("bad", nil, newSlotRecorder("b", 0))
}

func TestInterleavedParityIsolation(t *testing.T) {
	// An algorithm that always transmits, interleaved with one that never
	// does, must fire exactly on its own parity.
	always := algoFunc{"always", func(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
		return func(t int64) bool { return true }
	}}
	never := algoFunc{"never", func(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
		return func(t int64) bool { return false }
	}}
	il := NewInterleaved("ab", always, never)
	f := il.Build(model.Params{N: 2, S: -1}, 1, 0, nil)
	for t2 := int64(0); t2 < 50; t2++ {
		want := t2%2 == 0
		if got := f(t2); got != want {
			t.Fatalf("f(%d) = %v, want %v", t2, got, want)
		}
	}
}

type algoFunc struct {
	name  string
	build func(model.Params, int, int64, *rng.Source) model.TransmitFunc
}

func (a algoFunc) Name() string { return a.name }
func (a algoFunc) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	return a.build(p, id, wake, src)
}
