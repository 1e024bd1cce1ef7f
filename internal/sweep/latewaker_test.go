package sweep_test

import (
	"math"
	"slices"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// lateWaker is one run of the late-waker relation: registered case name on
// channel ch, with k of n stations woken by gen from the run seed.
type lateWaker struct {
	name string
	ch   string
	gen  adversary.Generator
	n, k int
	seed uint64
	high bool // the late station takes the largest unused ID, not the smallest
}

// check fails unless the late-waker relation holds for r: with Params and
// horizon held fixed (at K = k+1), adding a station with an unused ID that
// wakes in the slot after the first success leaves the Result unchanged —
// stepped slot by slot and, for the cells sim.ClosedForm admits, finished
// in closed form by Run. It reports whether the relation applied (the case
// takes k+1 stations and the run succeeded) and whether the closed form
// was checked too.
func (r lateWaker) check(t testing.TB, eng *sim.Engine) (checked, closedForm bool) {
	t.Helper()
	c, err := sweep.ResolveCase(r.name)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sweep.ResolveChannel(r.ch)
	if err != nil {
		t.Fatal(err)
	}
	n, k := r.n, r.k
	if c.MaxK > 0 && k+1 > c.MaxK {
		return false, false
	}
	algo := c.Algo(n, k+1)
	opt := sim.Options{Horizon: c.Horizon(n, k+1), Channel: ch, Adaptive: c.Adaptive, Seed: r.seed}
	p := c.Params(n, k+1, opt.Seed)
	w := r.gen.Generate(model.WakePattern{}, n, k, sweep.PatternSeed(opt.Seed))
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("%s × %s × %s: %v", r.name, r.ch, r.gen.Name, err)
	}
	eng.RunTo(math.MaxInt64)
	want := eng.Result()
	if !want.Succeeded {
		return false, false
	}
	id, step := 1, 1
	if r.high {
		id, step = n, -1
	}
	for slices.Contains(w.IDs, id) {
		id += step
	}
	late := model.WakePattern{
		IDs:   append(slices.Clone(w.IDs), id),
		Wakes: append(slices.Clone(w.Wakes), want.SuccessSlot+1),
	}
	if err := eng.Reset(algo, p, late, opt); err != nil {
		t.Fatal(err)
	}
	eng.RunTo(math.MaxInt64)
	if got := eng.Result(); got != want {
		t.Fatalf("%s × %s × %s n=%d k=%d seed=%#x: station %d waking at %d changed the engine's Result\n%#v\n%#v",
			r.name, r.ch, r.gen.Name, n, k, r.seed, id, want.SuccessSlot+1, got, want)
	}
	if !sim.ClosedForm(algo, opt) {
		return true, false
	}
	for _, pat := range []model.WakePattern{w, late} {
		if err := eng.Reset(algo, p, pat, opt); err != nil {
			t.Fatal(err)
		}
		if got := eng.Run(); got != want {
			t.Fatalf("%s × %s × %s n=%d k=%d seed=%#x: closed form %#v; stepped %#v",
				r.name, r.ch, r.gen.Name, n, k, r.seed, got, want)
		}
	}
	return true, true
}

// relationChannels are the built-in channel families the relations are
// checked on.
var relationChannels = []string{"none", "cd", "sender_cd", "ack", "noisy:0.1", "jam:2"}

// TestLateWakerLeavesResultUnchanged checks the late-waker relation of the
// model (see lateWaker.check) on every registered case and built-in channel
// family.
func TestLateWakerLeavesResultUnchanged(t *testing.T) {
	gens := testPatterns(t, "simultaneous", "staggered:3", "uniform:16", "bursts:4")
	eng := sim.NewEngine()
	runs, checks, closedForm := 0, 0, 0
	for _, name := range sweep.CaseNames() {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range relationChannels {
			for _, nk := range [][2]int{{8, 1}, {16, 4}, {64, 7}} {
				if c.MaxK > 0 && nk[1]+1 > c.MaxK {
					continue
				}
				for _, gen := range gens {
					for trial := 0; trial < 2; trial++ {
						r := lateWaker{name: name, ch: ch, gen: gen, n: nk[0], k: nk[1],
							seed: rng.Derive(0x1a7e, uint64(runs)), high: trial == 1}
						runs++
						checked, closed := r.check(t, eng)
						if checked {
							checks++
						}
						if closed {
							closedForm++
						}
					}
				}
			}
		}
	}
	if checks == 0 || closedForm == 0 {
		t.Fatalf("%d engine checks, %d closed-form checks: the table has lost its rows", checks, closedForm)
	}
	t.Logf("%d engine checks, %d closed-form checks", checks, closedForm)
}

// FuzzLateWaker checks the late-waker relation at fuzzed cases, channels,
// patterns, universe sizes, station counts and seeds.
func FuzzLateWaker(f *testing.F) {
	gens := testPatterns(f, "simultaneous", "staggered:1", "staggered:3", "uniform:16", "uniform:200", "bursts:4")
	names := sweep.CaseNames()
	f.Add(uint8(0), uint8(0), uint8(0), uint16(8), uint8(1), uint64(1), false)
	f.Add(uint8(3), uint8(4), uint8(2), uint16(64), uint8(7), uint64(2), true)
	f.Add(uint8(8), uint8(1), uint8(5), uint16(100), uint8(20), uint64(3), false)
	f.Add(uint8(9), uint8(5), uint8(4), uint16(2), uint8(0), uint64(4), true)
	f.Fuzz(func(t *testing.T, caseSel, chSel, genSel uint8, rawN uint16, rawK uint8, seed uint64, high bool) {
		n := int(rawN)%255 + 2
		r := lateWaker{
			name: names[int(caseSel)%len(names)],
			ch:   relationChannels[int(chSel)%len(relationChannels)],
			gen:  gens[int(genSel)%len(gens)],
			n:    n,
			k:    int(rawK)%min(n-1, 24) + 1,
			seed: seed,
			high: high,
		}
		r.check(t, sim.NewEngine())
	})
}
