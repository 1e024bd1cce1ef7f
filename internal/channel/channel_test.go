package channel

import (
	"strings"
	"testing"

	"nsmac/internal/model"
)

func TestResolveOutcomes(t *testing.T) {
	c := New(model.None(), false)

	truth, winner := c.Resolve(0, nil)
	if truth != model.Silence || winner != 0 {
		t.Errorf("empty slot: (%v,%d)", truth, winner)
	}

	truth, winner = c.Resolve(1, []int{7})
	if truth != model.Success || winner != 7 {
		t.Errorf("solo slot: (%v,%d)", truth, winner)
	}

	truth, winner = c.Resolve(2, []int{3, 9})
	if truth != model.Collision || winner != 0 {
		t.Errorf("collision slot: (%v,%d)", truth, winner)
	}

	if c.Slots() != 3 || c.Successes() != 1 || c.Collisions() != 1 || c.Silences() != 1 {
		t.Errorf("counters: slots=%d succ=%d coll=%d sil=%d",
			c.Slots(), c.Successes(), c.Collisions(), c.Silences())
	}
}

func TestDeliverFollowsChannelModel(t *testing.T) {
	noCD := New(model.None(), false)
	if noCD.Deliver(model.Collision, false, false) != model.Silence {
		t.Error("no-CD channel leaked collision feedback")
	}
	cd := New(model.CD(), false)
	if cd.Deliver(model.Collision, false, false) != model.Collision {
		t.Error("CD channel suppressed collision feedback")
	}
	if noCD.Model().Name() != "none" || cd.Model().Name() != "cd" {
		t.Error("Model accessor wrong")
	}
	// A nil model is the paper default.
	if def := New(nil, false); def.Model().Name() != "none" {
		t.Errorf("nil model resolved to %q, want none", def.Model().Name())
	}

	// Role-dependent delivery: under sender_cd only the transmitter learns
	// of the collision; under ack only the winner hears the success.
	scd := New(model.SenderCD(), false)
	if scd.Deliver(model.Collision, true, false) != model.Collision {
		t.Error("sender_cd hid the collision from its transmitter")
	}
	if scd.Deliver(model.Collision, false, false) != model.Silence {
		t.Error("sender_cd leaked the collision to a listener")
	}
	ack := New(model.Ack(), false)
	if ack.Deliver(model.Success, true, true) != model.Success {
		t.Error("ack hid the success from its sender")
	}
	if ack.Deliver(model.Success, false, false) != model.Silence {
		t.Error("ack leaked the success to a listener")
	}
}

// TestPerturbingChannel drives the noisy and jam models through Resolve:
// outcomes, counters and winners must reflect the effective (perturbed)
// slot, and identical seeds must reproduce identical perturbations.
func TestPerturbingChannel(t *testing.T) {
	// noisy:1 erases every non-silent slot.
	c := New(model.Noisy(1), true)
	if truth, winner := c.Resolve(0, []int{7}); truth != model.Silence || winner != 0 {
		t.Errorf("noisy:1 solo slot = (%v,%d), want erased", truth, winner)
	}
	if truth, _ := c.Resolve(1, []int{1, 2}); truth != model.Silence {
		t.Errorf("noisy:1 collision slot = %v, want erased", truth)
	}
	if c.Silences() != 2 || c.Successes() != 0 || c.Collisions() != 0 {
		t.Errorf("noisy counters: succ=%d coll=%d sil=%d", c.Successes(), c.Collisions(), c.Silences())
	}
	if tr := c.Trace(); len(tr) != 2 || tr[0].Truth != model.Silence || tr[0].Winner != 0 {
		t.Errorf("trace records physical truth, want effective: %+v", tr)
	}

	// noisy:0 never perturbs.
	c.Reset(model.Noisy(0), false, 9)
	if truth, winner := c.Resolve(0, []int{7}); truth != model.Success || winner != 7 {
		t.Errorf("noisy:0 solo slot = (%v,%d)", truth, winner)
	}

	// jam:q collides the first q successes, then runs dry.
	c.Reset(model.Jam(2), false, 9)
	for i := int64(0); i < 2; i++ {
		if truth, winner := c.Resolve(i, []int{3}); truth != model.Collision || winner != 0 {
			t.Fatalf("jam slot %d = (%v,%d), want collision", i, truth, winner)
		}
	}
	if truth, winner := c.Resolve(2, []int{3}); truth != model.Success || winner != 3 {
		t.Errorf("exhausted jammer still jamming: (%v,%d)", truth, winner)
	}
	if c.Collisions() != 2 || c.Successes() != 1 {
		t.Errorf("jam counters: coll=%d succ=%d", c.Collisions(), c.Successes())
	}

	// Identical seeds reproduce identical noise; different seeds diverge
	// somewhere over enough slots.
	outcomes := func(seed uint64) []model.Feedback {
		ch := New(nil, false)
		ch.Reset(model.Noisy(0.5), false, seed)
		out := make([]model.Feedback, 64)
		for i := range out {
			out[i], _ = ch.Resolve(int64(i), []int{5})
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	for i, fb := range outcomes(43) {
		if fb != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("noise ignores the seed")
	}
}

func TestTraceRecording(t *testing.T) {
	c := New(model.None(), true)
	c.Resolve(10, []int{1, 2})
	c.Resolve(11, nil)
	c.Resolve(12, []int{5})
	tr := c.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d, want 3", len(tr))
	}
	if tr[0].Truth != model.Collision || tr[0].Slot != 10 || len(tr[0].Transmitters) != 2 {
		t.Errorf("event 0 wrong: %+v", tr[0])
	}
	if tr[2].Truth != model.Success || tr[2].Winner != 5 {
		t.Errorf("event 2 wrong: %+v", tr[2])
	}
	// Transmitter slice must be a copy, immune to caller reuse.
	buf := []int{1, 2}
	c2 := New(model.None(), true)
	c2.Resolve(0, buf)
	buf[0] = 99
	if c2.Trace()[0].Transmitters[0] == 99 {
		t.Error("trace aliased the caller's transmitter buffer")
	}
}

func TestTraceDisabled(t *testing.T) {
	c := New(model.None(), false)
	c.Resolve(0, []int{1})
	if c.Trace() != nil {
		t.Error("trace recorded despite record=false")
	}
}

func TestTraceBounded(t *testing.T) {
	c := New(model.None(), true)
	for i := int64(0); i < maxTrace+100; i++ {
		c.Resolve(i, nil)
	}
	if got := len(c.Trace()); got != maxTrace {
		t.Errorf("trace grew to %d, want cap %d", got, maxTrace)
	}
	if c.Slots() != maxTrace+100 {
		t.Error("slot counter must keep counting past the trace cap")
	}
	if !c.Truncated() {
		t.Error("Truncated() must report the dropped events")
	}
}

func TestTraceTruncationBoundary(t *testing.T) {
	// Fill the transcript exactly to the cap, then push events of every
	// outcome past it: the trace must keep the first maxTrace events (last
	// kept slot is maxTrace-1) while every statistics counter keeps counting.
	c := New(model.None(), true)
	for i := int64(0); i < maxTrace; i++ {
		c.Resolve(i, nil)
	}
	if got := len(c.Trace()); got != maxTrace {
		t.Fatalf("trace holds %d events at the cap, want %d", got, maxTrace)
	}
	if c.Truncated() {
		t.Error("exactly-full transcript must not report truncation: no event was dropped")
	}
	c.Resolve(maxTrace, []int{7})      // success, beyond the cap
	c.Resolve(maxTrace+1, []int{1, 2}) // collision, beyond the cap
	c.Resolve(maxTrace+2, nil)         // silence, beyond the cap
	tr := c.Trace()
	if len(tr) != maxTrace {
		t.Errorf("trace grew past the cap: %d events", len(tr))
	}
	if last := tr[len(tr)-1]; last.Slot != maxTrace-1 {
		t.Errorf("last kept event is slot %d, want %d", last.Slot, int64(maxTrace-1))
	}
	if c.Slots() != maxTrace+3 || c.Successes() != 1 || c.Collisions() != 1 || c.Silences() != maxTrace+1 {
		t.Errorf("stats stopped at the trace cap: slots=%d succ=%d coll=%d sil=%d",
			c.Slots(), c.Successes(), c.Collisions(), c.Silences())
	}
	if !c.Truncated() {
		t.Error("Truncated() must flip once an event is dropped at the cap")
	}
	c.Reset(model.None(), true, 0)
	if c.Truncated() {
		t.Error("Reset must clear the truncation flag")
	}
	if TraceCap() != maxTrace {
		t.Errorf("TraceCap() = %d, want %d", TraceCap(), maxTrace)
	}
}

func TestResetRecyclesChannel(t *testing.T) {
	c := New(model.None(), true)
	c.Resolve(0, []int{1, 2})
	c.Resolve(1, []int{5})
	c.Resolve(2, nil)
	if c.Slots() != 3 || len(c.Trace()) != 3 {
		t.Fatalf("setup run wrong: slots=%d trace=%d", c.Slots(), len(c.Trace()))
	}

	c.Reset(model.CD(), true, 0)
	if c.Slots() != 0 || c.Successes() != 0 || c.Collisions() != 0 || c.Silences() != 0 {
		t.Errorf("Reset left counters: slots=%d succ=%d coll=%d sil=%d",
			c.Slots(), c.Successes(), c.Collisions(), c.Silences())
	}
	if len(c.Trace()) != 0 {
		t.Errorf("Reset left %d trace events", len(c.Trace()))
	}
	if c.Model().Name() != "cd" {
		t.Error("Reset did not switch the channel model")
	}
	if c.Deliver(model.Collision, false, false) != model.Collision {
		t.Error("feedback model not live after Reset")
	}

	// The recycled channel behaves like a fresh one.
	truth, winner := c.Resolve(0, []int{9})
	if truth != model.Success || winner != 9 || c.Slots() != 1 || len(c.Trace()) != 1 {
		t.Errorf("recycled channel misbehaves: truth=%v winner=%d slots=%d trace=%d",
			truth, winner, c.Slots(), len(c.Trace()))
	}

	// Reset with recording off: no new events are kept.
	c.Reset(model.None(), false, 0)
	c.Resolve(0, []int{1})
	if len(c.Trace()) != 0 {
		t.Error("non-recording channel kept events after Reset")
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Slot: 3, Truth: model.Silence}, "silence"},
		{Event{Slot: 4, Truth: model.Success, Winner: 9}, "station 9"},
		{Event{Slot: 5, Truth: model.Collision, Transmitters: []int{1, 2}}, "collision"},
	}
	for _, c := range cases {
		if got := c.ev.String(); !strings.Contains(got, c.want) {
			t.Errorf("Event.String() = %q, want containing %q", got, c.want)
		}
	}
}

// drawsOnSilence perturbs outside the model.ReplayablePerturber contract: it
// draws from the channel stream on every slot.
type drawsOnSilence struct{}

func (drawsOnSilence) Name() string { return "draws_on_silence" }
func (drawsOnSilence) Deliver(truth model.Feedback, _, _ bool) model.Feedback {
	return truth
}
func (drawsOnSilence) Perturb(truth model.Feedback, st *model.ChannelState) model.Feedback {
	st.Src.Uint64()
	return truth
}

// TestSkipSilent checks that SkipSilent counts exactly what resolving the
// same silent slots one by one counts, leaving the perturbation stream where
// it was, and that it is refused on a recording channel and on a perturber
// that may act on silence.
func TestSkipSilent(t *testing.T) {
	for _, m := range []model.ChannelModel{model.None(), model.CD(), model.Ack(), model.Noisy(0.3), model.Jam(1)} {
		var skipped, resolved Channel
		skipped.Reset(m, false, 42)
		resolved.Reset(m, false, 42)
		if !skipped.SkipsSilence() {
			t.Fatalf("%s: SkipsSilence = false", m.Name())
		}
		skipped.Resolve(0, []int{1, 2})
		resolved.Resolve(0, []int{1, 2})
		skipped.SkipSilent(5)
		for slot := int64(1); slot <= 5; slot++ {
			resolved.Resolve(slot, nil)
		}
		// The next non-silent slot sees the same stream and budget.
		a, wa := skipped.Resolve(6, []int{3})
		b, wb := resolved.Resolve(6, []int{3})
		if a != b || wa != wb {
			t.Fatalf("%s: after the skip (%v,%d), after resolving (%v,%d)", m.Name(), a, wa, b, wb)
		}
		if skipped.Slots() != resolved.Slots() || skipped.Silences() != resolved.Silences() ||
			skipped.Collisions() != resolved.Collisions() || skipped.Successes() != resolved.Successes() {
			t.Fatalf("%s: skipped counters %d/%d/%d/%d, resolved %d/%d/%d/%d", m.Name(),
				skipped.Slots(), skipped.Silences(), skipped.Collisions(), skipped.Successes(),
				resolved.Slots(), resolved.Silences(), resolved.Collisions(), resolved.Successes())
		}
	}
	for name, c := range map[string]*Channel{
		"recording":        New(model.None(), true),
		"draws on silence": New(drawsOnSilence{}, false),
	} {
		if c.SkipsSilence() {
			t.Errorf("%s: SkipsSilence = true", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SkipSilent did not panic", name)
				}
			}()
			c.SkipSilent(1)
		}()
	}
}

// TestSpoil: spoiling the last resolved slot moves it from successes to
// collisions and rewrites its transcript event, leaving earlier events
// alone; past the transcript bound only the counters move.
func TestSpoil(t *testing.T) {
	c := New(model.None(), true)
	c.Resolve(0, []int{4})
	c.Resolve(1, []int{9})
	c.Spoil(1, []int{2, 9})
	if c.Successes() != 1 || c.Collisions() != 1 || c.Slots() != 2 {
		t.Fatalf("counters: %d successes, %d collisions, %d slots", c.Successes(), c.Collisions(), c.Slots())
	}
	tr := c.Trace()
	if tr[0].Truth != model.Success || tr[0].Winner != 4 {
		t.Errorf("earlier event rewritten: %+v", tr[0])
	}
	if ev := tr[1]; ev.Slot != 1 || ev.Truth != model.Collision || ev.Winner != 0 || len(ev.Transmitters) != 2 || ev.Transmitters[0] != 2 {
		t.Errorf("spoiled event: %+v", ev)
	}

	full := New(model.None(), true)
	for s := int64(0); s < int64(TraceCap()); s++ {
		full.Resolve(s, nil)
	}
	full.Resolve(int64(TraceCap()), []int{3})
	full.Spoil(int64(TraceCap()), []int{3, 5})
	if last := full.Trace()[TraceCap()-1]; last.Truth != model.Silence || full.Collisions() != 1 || full.Successes() != 0 {
		t.Errorf("spoil past the bound: last event %+v, %d collisions, %d successes", last, full.Collisions(), full.Successes())
	}
}
