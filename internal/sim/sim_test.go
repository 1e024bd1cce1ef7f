package sim

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// fixedSlot is a toy deterministic algorithm: station id transmits exactly
// at slot id*gap (a pre-agreed TDM grid), regardless of wake time.
type fixedSlot struct{ gap int64 }

func (f fixedSlot) Name() string { return "fixedSlot" }
func (f fixedSlot) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return t == int64(id)*f.gap }
}

// always transmits every slot from wake on: guarantees collision for k >= 2
// stations awake together.
type always struct{}

func (always) Name() string { return "always" }
func (always) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return true }
}

// never transmits.
type never struct{}

func (never) Name() string { return "never" }
func (never) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return false }
}

func TestRunFirstSuccess(t *testing.T) {
	// Stations 3 and 5 wake at 0; fixedSlot(2) puts them alone at slots 6
	// and 10; the run must stop at slot 6 with winner 3.
	p := model.Params{N: 8, S: -1}
	w := model.Simultaneous([]int{3, 5}, 0)
	res, ch, err := Run(fixedSlot{gap: 2}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Winner != 3 || res.SuccessSlot != 6 {
		t.Fatalf("result = %#v", res)
	}
	if res.Rounds != 6 {
		t.Errorf("rounds = %d, want 6 (s = 0)", res.Rounds)
	}
	if res.Silences != 6 {
		t.Errorf("silences = %d, want 6", res.Silences)
	}
	if ch.Successes() != 1 {
		t.Error("channel counted wrong successes")
	}
}

func TestRunRoundsMeasuredFromFirstWake(t *testing.T) {
	// First wake at s=4: rounds = successSlot - 4 (the paper's t - s).
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3}, Wakes: []int64{4}}
	res, _, err := Run(fixedSlot{gap: 2}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.SuccessSlot != 6 || res.Rounds != 2 {
		t.Fatalf("result = %#v, want success at slot 6 with rounds 2", res)
	}
}

func TestRunLateWakersJoin(t *testing.T) {
	// Station 1 would transmit at slot 2 but only wakes at slot 3; station
	// 2 transmits at slot 4. Slot 2 must be silent (1 not yet awake), and
	// the success goes to 2 at slot 4... except station 1 IS awake at 4?
	// fixedSlot makes 1 transmit only at t=2 which it misses, so winner=2.
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1, 2}, Wakes: []int64{3, 0}}
	res, _, err := Run(fixedSlot{gap: 2}, p, w, Options{Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Winner != 2 || res.SuccessSlot != 4 {
		t.Fatalf("result = %#v, want winner 2 at slot 4", res)
	}
}

func TestRunCollisionForever(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := Run(always{}, p, w, Options{Horizon: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatal("two always-transmitters cannot succeed")
	}
	if res.Collisions != 25 || res.Slots != 25 {
		t.Errorf("collisions=%d slots=%d, want 25/25", res.Collisions, res.Slots)
	}
}

func TestRunSingleAlwaysSucceedsImmediately(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{2}, Wakes: []int64{7}}
	res, _, err := Run(always{}, p, w, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Rounds != 0 || res.SuccessSlot != 7 {
		t.Fatalf("lone station should win at its wake slot: %#v", res)
	}
}

func TestRunValidation(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1}, 0)
	if _, _, err := Run(nil, p, w, Options{Horizon: 5}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, _, err := Run(never{}, model.Params{N: 0}, w, Options{Horizon: 5}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, _, err := Run(never{}, p, model.WakePattern{}, Options{Horizon: 5}); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := Run(never{}, p, w, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
	// K-knowledge consistency: pattern may not exceed declared K.
	pk := model.Params{N: 4, K: 1, S: -1}
	wk := model.Simultaneous([]int{1, 2}, 0)
	if _, _, err := Run(never{}, pk, wk, Options{Horizon: 5}); err == nil {
		t.Error("pattern larger than K accepted")
	}
	// S-knowledge consistency: pattern must start at declared S.
	ps := model.Params{N: 4, S: 3}
	if _, _, err := Run(never{}, ps, w, Options{Horizon: 5}); err == nil {
		t.Error("pattern starting before declared S accepted")
	}
}

// parityAdaptive is a toy adaptive algorithm: a station transmits every
// slot until it hears any success, then retires. With CD feedback stations
// also back off one slot after a collision (tested via observation log).
type parityAdaptive struct{}

func (parityAdaptive) Name() string { return "parityAdaptive" }
func (parityAdaptive) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("BuildAdaptive should be used")
}
func (parityAdaptive) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return &paStation{id: id}
}

type paStation struct {
	id      int
	retired bool
	backoff int64
}

func (s *paStation) WillTransmit(t int64) bool {
	if s.retired || t < s.backoff {
		return false
	}
	return true
}

func (s *paStation) Observe(t int64, fb model.Feedback, successID int) {
	switch fb {
	case model.Success:
		s.retired = true
	case model.Collision:
		// Deterministic split: lower IDs retry sooner.
		s.backoff = t + 1 + int64(s.id)
	}
}

func TestRunAdaptiveWithCD(t *testing.T) {
	// Two stations collide at slot 0; CD feedback splits them: station 1
	// retries at slot 2, station 2 at slot 3 -> success at slot 2 by 1.
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := Run(parityAdaptive{}, p, w, Options{
		Horizon: 20, Adaptive: true, Channel: model.CD(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Winner != 1 || res.SuccessSlot != 2 {
		t.Fatalf("adaptive CD run = %#v, want winner 1 at slot 2", res)
	}
}

func TestRunAdaptiveWithoutCDMasksCollisions(t *testing.T) {
	// Same protocol without CD: collisions are heard as silence, no one
	// backs off, they collide forever.
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := Run(parityAdaptive{}, p, w, Options{
		Horizon: 20, Adaptive: true, Channel: model.None(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatal("collision feedback leaked through a no-CD channel")
	}
}

func TestRunAdaptiveFallsBackToBuild(t *testing.T) {
	// Adaptive option with a non-adaptive algorithm silently uses Build.
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{3}, 0)
	res, _, err := Run(fixedSlot{gap: 1}, p, w, Options{Horizon: 10, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Winner != 3 {
		t.Fatalf("fallback run = %#v", res)
	}
}

// retireOnOwnSuccess: transmits at id-spaced slots until it hears its own
// success (conflict-resolution toy).
type retireOnOwnSuccess struct{ n int }

func (r retireOnOwnSuccess) Name() string { return "retire" }
func (r retireOnOwnSuccess) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (r retireOnOwnSuccess) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return &rosStation{id: id, n: int64(p.N)}
}

type rosStation struct {
	id      int
	n       int64
	retired bool
}

func (s *rosStation) WillTransmit(t int64) bool {
	return !s.retired && t%s.n == int64(s.id-1)
}
func (s *rosStation) Observe(t int64, fb model.Feedback, successID int) {
	if fb == model.Success && successID == s.id {
		s.retired = true
	}
}

func TestRunAllConflictResolution(t *testing.T) {
	p := model.Params{N: 5, S: -1}
	w := model.Simultaneous([]int{1, 3, 5}, 0)
	all, err := NewEngine().RunAll(retireOnOwnSuccess{}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Succeeded {
		t.Fatalf("conflict resolution failed: %+v", all)
	}
	if len(all.FirstSuccess) != 3 {
		t.Fatalf("FirstSuccess has %d entries, want 3", len(all.FirstSuccess))
	}
	// Round-robin grid: station 1 at slot 0, 3 at slot 2, 5 at slot 4.
	want := map[int]int64{1: 0, 3: 2, 5: 4}
	for id, slot := range want {
		if all.FirstSuccess[id] != slot {
			t.Errorf("station %d first success at %d, want %d", id, all.FirstSuccess[id], slot)
		}
	}
	if all.Slots != 5 {
		t.Errorf("total slots = %d, want 5", all.Slots)
	}
}

func TestRunAllRequiresAdaptive(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1}, 0)
	if _, err := NewEngine().RunAll(fixedSlot{gap: 1}, p, w, Options{Horizon: 5}); err == nil {
		t.Error("RunAll accepted a non-adaptive algorithm")
	}
}

func TestRunAllFailure(t *testing.T) {
	// never-style adaptive: nobody transmits, horizon exhausts.
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	all, err := NewEngine().RunAll(silentAdaptive{}, p, w, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if all.Succeeded || all.Slots != 10 {
		t.Errorf("failure run = %+v", all)
	}
}

type silentAdaptive struct{}

func (silentAdaptive) Name() string { return "silentAdaptive" }
func (silentAdaptive) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (silentAdaptive) BuildAdaptive(model.Params, int, int64, *rng.Source) model.AdaptiveStation {
	return silentStation{}
}

type silentStation struct{}

func (silentStation) WillTransmit(int64) bool            { return false }
func (silentStation) Observe(int64, model.Feedback, int) {}

// hashed is a pseudo-random but deterministic schedule (the differential
// tests' workhorse shape): station id transmits at t iff a seeded hash of
// (id, t) lands below the density threshold.
type hashed struct{ density int }

func (h hashed) Name() string { return "hashed" }
func (h hashed) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool {
		if t < wake {
			return false
		}
		return rng.Below(rng.Hash3(p.Seed, uint64(id), uint64(t), 3), h.density)
	}
}

// seeded draws its entire schedule decision from the per-station stream the
// engine hands Build, so any engine-reuse leak of RNG state changes results.
type seeded struct{}

func (seeded) Name() string { return "seeded" }
func (seeded) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	offset := int64(src.Intn(8))
	return func(t int64) bool { return (t-wake)%9 == offset }
}

// engineWorkloads is a battery of heterogeneous trials (different n, k,
// wake shapes, algorithms, horizons) used to cross-check engine reuse.
func engineWorkloads() []struct {
	algo model.Algorithm
	p    model.Params
	w    model.WakePattern
	opt  Options
} {
	return []struct {
		algo model.Algorithm
		p    model.Params
		w    model.WakePattern
		opt  Options
	}{
		{fixedSlot{gap: 2}, model.Params{N: 8, S: -1}, model.Simultaneous([]int{3, 5}, 0), Options{Horizon: 100}},
		{hashed{density: 2}, model.Params{N: 40, S: -1, Seed: 7}, model.WakePattern{IDs: []int{2, 9, 31, 40}, Wakes: []int64{5, 0, 3, 3}}, Options{Horizon: 200, Seed: 11}},
		{always{}, model.Params{N: 4, S: -1}, model.Simultaneous([]int{1, 2}, 0), Options{Horizon: 25}},
		{seeded{}, model.Params{N: 16, S: -1}, model.WakePattern{IDs: []int{4, 12}, Wakes: []int64{3, 14}}, Options{Horizon: 60, Seed: 0xfeed}},
		{never{}, model.Params{N: 4, S: -1}, model.Simultaneous([]int{1, 2}, 9), Options{Horizon: 12}},
		{hashed{density: 1}, model.Params{N: 12, S: -1, Seed: 3}, model.Simultaneous([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2), Options{Horizon: 80, Seed: 5, RecordTrace: true}},
	}
}

func TestEngineReuseMatchesFreshRun(t *testing.T) {
	// One engine Reset across wildly different trials must reproduce what a
	// fresh sim.Run produces for each — including the channel counters —
	// regardless of what ran on the engine before.
	e := NewEngine()
	loads := engineWorkloads()
	// Two passes: the second pass re-runs every workload on a now-warm
	// engine whose buffers were stretched by every other workload.
	for pass := 0; pass < 2; pass++ {
		for i, l := range loads {
			want, wantCh, err := Run(l.algo, l.p, l.w, l.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Reset(l.algo, l.p, l.w, l.opt); err != nil {
				t.Fatalf("pass %d workload %d: Reset: %v", pass, i, err)
			}
			got := e.Run()
			if got != want {
				t.Fatalf("pass %d workload %d: engine %#v != fresh %#v", pass, i, got, want)
			}
			ch := e.Channel()
			if ch.Slots() != wantCh.Slots() || ch.Successes() != wantCh.Successes() ||
				ch.Collisions() != wantCh.Collisions() || ch.Silences() != wantCh.Silences() {
				t.Fatalf("pass %d workload %d: channel counters diverge", pass, i)
			}
			if len(ch.Trace()) != len(wantCh.Trace()) {
				t.Fatalf("pass %d workload %d: trace %d events, want %d",
					pass, i, len(ch.Trace()), len(wantCh.Trace()))
			}
		}
	}
}

func TestEngineStepAndRunTo(t *testing.T) {
	l := engineWorkloads()[1]
	want, _, err := Run(l.algo, l.p, l.w, l.opt)
	if err != nil {
		t.Fatal(err)
	}

	// Step-by-step must land on the same result.
	e := NewEngine()
	if err := e.Reset(l.algo, l.p, l.w, l.opt); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !e.Step() {
		steps++
		if int64(steps) > l.opt.Horizon+1 {
			t.Fatal("Step never finished")
		}
	}
	if got := e.Result(); got != want {
		t.Fatalf("stepped result %#v != run result %#v", got, want)
	}
	if !e.Done() || !e.Step() {
		t.Error("a finished engine must stay done")
	}

	// RunTo pauses mid-run, then resumes to the same result.
	if err := e.Reset(l.algo, l.p, l.w, l.opt); err != nil {
		t.Fatal(err)
	}
	mid := l.w.FirstWake() + 3
	if done := e.RunTo(mid); done && want.Slots > 3 {
		t.Fatalf("RunTo(%d) finished a %d-slot run early", mid, want.Slots)
	}
	if e.Slot() != mid {
		t.Errorf("paused at slot %d, want %d", e.Slot(), mid)
	}
	if got := e.Run(); got != want {
		t.Fatalf("paused+resumed result %#v != %#v", got, want)
	}
}

func TestEngineResetValidation(t *testing.T) {
	// Reset must reject exactly what Run rejects, and a failed Reset must
	// leave the engine usable for the next valid trial.
	e := NewEngine()
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1}, 0)
	if err := e.Reset(nil, p, w, Options{Horizon: 5}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if err := e.Reset(never{}, p, w, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
	if err := e.Reset(never{}, p, model.WakePattern{}, Options{Horizon: 5}); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := e.Reset(always{}, p, w, Options{Horizon: 5}); err != nil {
		t.Fatalf("valid trial rejected after failed resets: %v", err)
	}
	if res := e.Run(); !res.Succeeded || res.Winner != 1 {
		t.Fatalf("engine broken after failed resets: %#v", res)
	}
}
