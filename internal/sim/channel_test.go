package sim

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// This file drives the pluggable channel models through the engine: role-
// dependent delivery (sender_cd, ack), perturbation determinism (noisy,
// jam), energy accounting, and the nil-Channel default.

// TestOptionsChannelFallback: a nil Channel is the paper's channel. The
// engine runs Options{Channel: nil} exactly as Options{Channel: model.None()}
// and a recording run reports the none model on its channel.
func TestOptionsChannelFallback(t *testing.T) {
	if got := (Options{}).ChannelModel().Name(); got != "none" {
		t.Fatalf("nil Channel resolved to %q, want none", got)
	}
	if got := (Options{Channel: model.CD()}).ChannelModel().Name(); got != "cd" {
		t.Fatalf("explicit Channel resolved to %q, want cd", got)
	}

	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	// parityAdaptive resolves only when collision feedback reaches it, so a
	// nil Channel that leaked collisions would succeed here.
	nilRes, nilCh, err := Run(parityAdaptive{}, p, w, Options{Horizon: 20, Adaptive: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	noneRes, _, err := Run(parityAdaptive{}, p, w, Options{Horizon: 20, Adaptive: true, RecordTrace: true, Channel: model.None()})
	if err != nil {
		t.Fatal(err)
	}
	if nilRes != noneRes {
		t.Fatalf("nil Channel %#v differs from model.None %#v", nilRes, noneRes)
	}
	if nilRes.Succeeded {
		t.Fatalf("nil Channel delivered collision feedback: %#v", nilRes)
	}
	if got := nilCh.Model().Name(); got != "none" {
		t.Fatalf("nil Channel ran on %q, want none", got)
	}
}

// echoStation records the feedback delivered to it, slot by slot.
type echoAlgo struct{}

func (echoAlgo) Name() string { return "echo" }
func (echoAlgo) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (echoAlgo) Fleet(model.Params, model.Fleet) model.Fleet {
	return &FixtureFleet{New: func(id int, _ int64) FixtureStation { return &echoStation{id: id} }}
}

// echoLog collects (station, slot, feedback) observations across stations.
var echoLog []echoObs

type echoObs struct {
	id   int
	slot int64
	fb   model.Feedback
	win  int
}

type echoStation struct{ id int }

// Stations 1 and 2 transmit at slots 0 and 2 (collision at 0 is impossible:
// both transmit at 0 → collision; station 1 alone at 2 → success).
func (s *echoStation) Transmits(t int64) bool {
	if t == 0 {
		return true
	}
	return t == 2 && s.id == 1
}
func (s *echoStation) Hear(t int64, fb model.Feedback, successID int) {
	echoLog = append(echoLog, echoObs{s.id, t, fb, successID})
}

// find returns the feedback station id heard at slot t.
func find(t *testing.T, id int, slot int64) echoObs {
	t.Helper()
	for _, o := range echoLog {
		if o.id == id && o.slot == slot {
			return o
		}
	}
	t.Fatalf("no observation for station %d slot %d in %+v", id, slot, echoLog)
	return echoObs{}
}

// runEcho runs the two-station echo workload under ch and returns the run.
func runEcho(t *testing.T, ch model.ChannelModel) model.Result {
	t.Helper()
	echoLog = echoLog[:0]
	p := model.Params{N: 4, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := Run(echoAlgo{}, p, w, Options{Horizon: 10, Adaptive: true, Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSenderCDDeliversByRole: in the collision slot both transmitted, so
// both hear the collision; a sender_cd channel with a pure listener needs a
// third station — covered at the channel layer — but the success slot shows
// the pass-through side.
func TestSenderCDDeliversByRole(t *testing.T) {
	res := runEcho(t, model.SenderCD())
	if !res.Succeeded || res.SuccessSlot != 2 || res.Winner != 1 {
		t.Fatalf("run = %#v", res)
	}
	// Slot 0: both stations transmitted into the collision → both hear it.
	if find(t, 1, 0).fb != model.Collision || find(t, 2, 0).fb != model.Collision {
		t.Error("sender_cd hid the collision from its transmitters")
	}
	// Slot 1: nobody transmits → silence for everyone.
	if find(t, 1, 1).fb != model.Silence {
		t.Error("empty slot not silent")
	}
	// Slot 2: success passes to everyone (sender_cd only masks collisions).
	if find(t, 1, 2).fb != model.Success || find(t, 2, 2).fb != model.Success {
		t.Error("sender_cd masked the success")
	}
}

// TestSenderCDListenerMasked adds a pure listener to the collision slot: it
// must hear silence while the transmitters hear the collision.
func TestSenderCDListenerMasked(t *testing.T) {
	echoLog = echoLog[:0]
	p := model.Params{N: 4, S: -1}
	// Station 3 wakes but transmits in no echo slot pattern (id != 1, and
	// at slot 0 every station transmits... so use wake 1: it misses slot 0).
	w := model.WakePattern{IDs: []int{1, 2, 3}, Wakes: []int64{0, 0, 1}}
	if _, _, err := Run(echoAlgo{}, p, w, Options{Horizon: 10, Adaptive: true, Channel: model.SenderCD()}); err != nil {
		t.Fatal(err)
	}
	// Slot 1: station 3 is awake and silent; 1 and 2 are silent too →
	// silence everywhere. Slot 2: station 1 transmits alone; station 3
	// listens. Under sender_cd the success still reaches listeners.
	if find(t, 3, 2).fb != model.Success {
		t.Error("sender_cd masked a success from the listener")
	}
	// Now the interesting slot: rerun with all three colliding at slot 0.
	echoLog = echoLog[:0]
	w = model.Simultaneous([]int{1, 2, 3}, 0)
	if _, _, err := Run(echoAlgo{}, p, w, Options{Horizon: 1, Adaptive: true, Channel: model.SenderCD()}); err != nil {
		t.Fatal(err)
	}
	// All three transmitted at slot 0, so all hear the collision...
	if find(t, 3, 0).fb != model.Collision {
		t.Error("a colliding transmitter heard silence under sender_cd")
	}
}

// TestAckDeliversOnlyToWinner: the success is heard by station 1 (the
// winner) alone; station 2 hears silence in every slot, collision included.
func TestAckDeliversOnlyToWinner(t *testing.T) {
	res := runEcho(t, model.Ack())
	if !res.Succeeded || res.Winner != 1 {
		t.Fatalf("run = %#v", res)
	}
	if o := find(t, 1, 2); o.fb != model.Success || o.win != 1 {
		t.Errorf("winner heard %+v, want its own success", o)
	}
	if o := find(t, 2, 2); o.fb != model.Silence || o.win != 0 {
		t.Errorf("loser heard %+v, want silence with no winner id", o)
	}
	if find(t, 1, 0).fb != model.Silence || find(t, 2, 0).fb != model.Silence {
		t.Error("ack leaked collision feedback")
	}
}

// TestListensAccounting checks the energy split on a hand-countable run:
// fixedSlot(2) with stations 3 and 5 awake from slot 0, success at slot 6.
// 7 slots stepped × 2 stations = 14 station-slots; 2 of them transmitted
// (station 3 at 6... station 5 would transmit at 10, station 3 at 6) — so
// exactly 1 transmission and 13 listens.
func TestListensAccounting(t *testing.T) {
	p := model.Params{N: 8, S: -1}
	w := model.Simultaneous([]int{3, 5}, 0)
	res, _, err := Run(fixedSlot{gap: 2}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.SuccessSlot != 6 {
		t.Fatalf("run = %#v", res)
	}
	if res.Transmissions != 1 || res.Listens != 13 {
		t.Errorf("tx=%d listens=%d, want 1/13", res.Transmissions, res.Listens)
	}
	if res.Energy() != 14 {
		t.Errorf("energy = %d, want 14 (7 slots × 2 stations)", res.Energy())
	}

	// Late waker: the station listens only from its wake slot on.
	w = model.WakePattern{IDs: []int{3, 5}, Wakes: []int64{0, 4}}
	res, _, err = Run(fixedSlot{gap: 2}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Station 3 alone at slot 6; station 5 awake slots 4-6 (3 slots).
	// Station-slots: 7 (station 3) + 3 (station 5) = 10; 1 transmission.
	if res.Transmissions != 1 || res.Listens != 9 {
		t.Errorf("late-waker tx=%d listens=%d, want 1/9", res.Transmissions, res.Listens)
	}
}

// TestNoisyZeroEquivalence: noisy:0 must reproduce the paper channel slot
// for slot, counter for counter — the engine-level half of the sweep's
// differential guarantee.
func TestNoisyZeroEquivalence(t *testing.T) {
	for _, l := range engineWorkloads() {
		base, _, err := Run(l.algo, l.p, l.w, l.opt)
		if err != nil {
			t.Fatal(err)
		}
		optNoisy := l.opt
		optNoisy.Channel = model.Noisy(0)
		noisy, _, err := Run(l.algo, l.p, l.w, optNoisy)
		if err != nil {
			t.Fatal(err)
		}
		if base != noisy {
			t.Fatalf("noisy:0 diverged: %#v vs %#v", noisy, base)
		}
	}
}

// TestNoisyDeterminismAndEffect: the same seed reproduces a noisy run
// exactly; noise actually suppresses successes (noisy:1 never resolves).
func TestNoisyDeterminismAndEffect(t *testing.T) {
	p := model.Params{N: 16, S: -1, Seed: 5}
	w := model.Simultaneous([]int{2, 9, 14}, 0)
	opt := Options{Horizon: 300, Seed: 11, Channel: model.Noisy(0.4)}

	a, _, err := Run(hashed{density: 2}, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(hashed{density: 2}, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("noisy run not reproducible: %#v vs %#v", a, b)
	}

	opt.Channel = model.Noisy(1)
	full, _, err := Run(hashed{density: 2}, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.Succeeded {
		t.Fatalf("noisy:1 let a success through: %#v", full)
	}
	if full.Collisions != 0 || full.Silences != 300 {
		t.Errorf("noisy:1 counters: %#v (every slot should be erased)", full)
	}

	// Different run seeds draw different noise.
	opt.Channel = model.Noisy(0.4)
	opt.Seed = 12
	c, _, err := Run(hashed{density: 2}, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("noise ignored the run seed (identical run despite new seed)")
	}
}

// TestJamDelaysResolution: a jammer with budget q pushes the first success
// past q would-be successes; a single always-transmitter succeeds at its
// (q+1)-th slot.
func TestJamDelaysResolution(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{2}, Wakes: []int64{0}}
	res, _, err := Run(always{}, p, w, Options{Horizon: 10, Channel: model.Jam(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.SuccessSlot != 3 {
		t.Fatalf("jam:3 run = %#v, want success at slot 3", res)
	}
	if res.Collisions != 3 {
		t.Errorf("jammed slots recorded as %d collisions, want 3", res.Collisions)
	}

	// Budget larger than the horizon suppresses resolution entirely.
	res, _, err = Run(always{}, p, w, Options{Horizon: 10, Channel: model.Jam(100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded || res.Collisions != 10 {
		t.Fatalf("jam:100 run = %#v, want 10 jammed slots and no success", res)
	}
}

// TestRunAllTimeoutSlots is the RunAll failure-reporting fix: a timed-out
// conflict-resolution run reports the slots the engine actually stepped from
// the first wake — Result.Slots semantics — in both the all-fail and the
// partial-progress case, and a late first wake does not inflate it.
func TestRunAllTimeoutSlots(t *testing.T) {
	p := model.Params{N: 5, S: -1}

	// Nobody ever transmits: all horizon slots stepped.
	w := model.Simultaneous([]int{1, 2}, 7) // first wake deliberately late
	all, err := NewEngine().RunAll(silentAdaptive{}, p, w, Options{Horizon: 12})
	if err != nil {
		t.Fatal(err)
	}
	if all.Succeeded || all.Slots != 12 {
		t.Fatalf("all-fail run = %+v, want Slots == 12 (stepped from first wake)", all)
	}

	// Partial progress: stations 1 and 3 resolve, station 5's residue slot
	// is jammed away by an exhausted horizon — Slots still reports stepped
	// slots, and FirstSuccess keeps the partial successes.
	w = model.Simultaneous([]int{1, 3, 5}, 0)
	all, err = NewEngine().RunAll(retireOnOwnSuccess{}, p, w, Options{Horizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if all.Succeeded {
		t.Fatalf("horizon 4 cannot resolve station 5 (needs slot 4): %+v", all)
	}
	if all.Slots != 4 {
		t.Errorf("partial run Slots = %d, want 4 stepped slots", all.Slots)
	}
	if len(all.FirstSuccess) != 2 {
		t.Errorf("partial run kept %d successes, want 2", len(all.FirstSuccess))
	}

	// And the success arm still counts from the first wake.
	all, err = NewEngine().RunAll(retireOnOwnSuccess{}, p, w, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Succeeded || all.Slots != 5 {
		t.Errorf("success run = %+v, want Slots 5", all)
	}
}

// TestEngineSlotsAccurateMidRun: Result().Slots tracks the stepped count
// after every Step, not only at termination.
func TestEngineSlotsAccurateMidRun(t *testing.T) {
	l := engineWorkloads()[1]
	e := NewEngine()
	if err := e.Reset(l.algo, l.p, l.w, l.opt); err != nil {
		t.Fatal(err)
	}
	s := l.w.FirstWake()
	for i := int64(1); i <= 5 && !e.Done(); i++ {
		e.Step()
		if got := e.Result().Slots; got != e.Slot()-s {
			t.Fatalf("after %d steps Result().Slots = %d, want %d", i, got, e.Slot()-s)
		}
	}
}

// TestChannelStreamIndependence: perturbation draws must come from the
// derived channel stream, not the station streams — two runs differing only
// in channel model must hand the algorithm identical per-station bits.
func TestChannelStreamIndependence(t *testing.T) {
	p := model.Params{N: 16, S: -1, Seed: 3}
	w := model.Simultaneous([]int{4, 12}, 0)
	opt := Options{Horizon: 200, Seed: 0xfeed}

	base, _, err := Run(seeded{}, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	optJam := opt
	optJam.Channel = model.Jam(1)
	jammed, _, err := Run(seeded{}, p, w, optJam)
	if err != nil {
		t.Fatal(err)
	}
	// The jammer delays the first success but must not change the
	// schedules: the jammed run's success is the base schedule's SECOND
	// solo slot for the same winner pattern — at minimum, the first
	// base-success slot must be a collision-recorded jam in the new run.
	if jammed.Succeeded && jammed.SuccessSlot <= base.SuccessSlot {
		t.Fatalf("jam did not delay: base %#v vs jammed %#v", base, jammed)
	}
	if jammed.Collisions != base.Collisions+1 {
		t.Errorf("jammed run collisions = %d, want base+1 = %d (schedules disturbed?)",
			jammed.Collisions, base.Collisions+1)
	}
}
