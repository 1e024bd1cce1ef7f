package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"nsmac/internal/channel"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// denseOnly exposes only model.Algorithm of the algorithm it wraps, hiding
// model.Batched, so the engine steps its Build closures slot by slot.
type denseOnly struct{ model.Algorithm }

// sparseAlgos are the algorithms whose cohort names its next attempt, so
// that the engine skips the silent slots before it. (BEB's does too;
// batchedAlgos covers it.)
func sparseAlgos() []model.Algorithm {
	return []model.Algorithm{core.NewRoundRobin(), core.NewLocalSSF()}
}

// differentialChannels are the channels on which a silent slot is pure
// bookkeeping: the inert feedback regimes and the kernel-shaped overlays.
func differentialChannels() []model.ChannelModel {
	return []model.ChannelModel{model.None(), model.CD(), model.SenderCD(), model.Ack(),
		model.Noisy(0), model.Noisy(0.1), model.Noisy(1), model.Jam(2)}
}

// diffPattern draws k of n stations woken simultaneously, staggered or
// uniformly over a window.
func diffPattern(src *rng.Source, shape string, n, k int) model.WakePattern {
	ids := src.Sample(nil, n, k)
	wakes := make([]int64, k)
	gap := 1 + src.Int63n(40)
	start := src.Int63n(10)
	for i := range wakes {
		switch shape {
		case "simultaneous":
			wakes[i] = start
		case "staggered":
			wakes[i] = start + int64(i)*gap
		default:
			wakes[i] = start + src.Int63n(300)
		}
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

// channelCounters is what the channel itself counted.
func channelCounters(ch *channel.Channel) [4]int64 {
	return [4]int64{ch.Slots(), ch.Successes(), ch.Collisions(), ch.Silences()}
}

// resetPair resets a sparse engine on algo and a dense one on the same
// algorithm behind denseOnly, and checks each took its path.
func resetPair(t *testing.T, sparse, dense *sim.Engine, algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	if err := sparse.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if err := dense.Reset(denseOnly{algo}, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if !sparse.SteppingSparse() || dense.SteppingSparse() {
		t.Fatalf("%s on %s: sparse engine steps sparsely: %v, dense engine: %v",
			algo.Name(), opt.ChannelModel().Name(), sparse.SteppingSparse(), dense.SteppingSparse())
	}
}

// samePlace fails unless both engines stand at the same slot with the same
// result and channel counters.
func samePlace(t *testing.T, name string, sparse, dense *sim.Engine) {
	t.Helper()
	if sparse.Slot() != dense.Slot() || sparse.Done() != dense.Done() {
		t.Fatalf("%s: sparse at slot %d (done %v), dense at %d (done %v)",
			name, sparse.Slot(), sparse.Done(), dense.Slot(), dense.Done())
	}
	if sparse.Result() != dense.Result() {
		t.Fatalf("%s: sparse %#v != dense %#v", name, sparse.Result(), dense.Result())
	}
	if a, b := channelCounters(sparse.Channel()), channelCounters(dense.Channel()); a != b {
		t.Fatalf("%s: sparse channel counters %v != dense %v", name, a, b)
	}
}

// TestSparseMatchesDense runs every sparse algorithm on every channel on
// which the engine may skip silent slots, under simultaneous, staggered and
// uniform wakes, once to the end and once cut into random Step and RunTo
// pieces: the sparse engine must agree with the dense one on the whole
// result, listens, silences and slots included, on the channel's own
// counters, and on Slot() after every cut.
func TestSparseMatchesDense(t *testing.T) {
	src := rng.New(0x5ba5e)
	sparse, dense := sim.NewEngine(), sim.NewEngine()
	for _, algo := range sparseAlgos() {
		for _, ch := range differentialChannels() {
			for _, shape := range []string{"simultaneous", "staggered", "uniform"} {
				for round := 0; round < 4; round++ {
					n := []int{2, 3, 64, 256}[round]
					k := 1 + src.Intn(min(n, 12))
					w := diffPattern(src, shape, n, k)
					seed := src.Uint64()
					p := model.Params{N: n, S: -1, Seed: seed}
					opt := sim.Options{Horizon: 50 + src.Int63n(3000), Channel: ch, Seed: seed}
					name := fmt.Sprintf("%s on %s, %s n=%d k=%d", algo.Name(), ch.Name(), shape, n, k)

					resetPair(t, sparse, dense, algo, p, w, opt)
					sparse.Run()
					dense.Run()
					samePlace(t, name, sparse, dense)

					resetPair(t, sparse, dense, algo, p, w, opt)
					for cut := 0; !dense.Done(); cut++ {
						if src.Intn(3) == 0 {
							if sparse.Step() != dense.Step() {
								t.Fatalf("%s: Step %d disagrees on done", name, cut)
							}
						} else {
							u := dense.Slot() + src.Int63n(200)
							if sparse.RunTo(u) != dense.RunTo(u) {
								t.Fatalf("%s: RunTo(%d) disagrees on done", name, u)
							}
						}
						samePlace(t, fmt.Sprintf("%s, cut %d", name, cut), sparse, dense)
					}
					if !sparse.Done() {
						t.Fatalf("%s: the dense engine finished, the sparse one did not", name)
					}
				}
			}
		}
	}
}

// TestRecordTraceStepsDensely checks that a recorded run resolves every
// slot — one transcript event per stepped slot — and records exactly the
// dense engine's transcript and result.
func TestRecordTraceStepsDensely(t *testing.T) {
	algo := core.NewLocalSSF()
	w := model.WakePattern{IDs: []int{3, 9, 40, 41}, Wakes: []int64{0, 0, 7, 30}}
	p := model.Params{N: 64, S: -1, Seed: 8}
	opt := sim.Options{Horizon: 2000, Seed: 8, RecordTrace: true}
	recorded, dense := sim.NewEngine(), sim.NewEngine()
	if err := recorded.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if err := dense.Reset(denseOnly{algo}, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if recorded.SteppingSparse() {
		t.Fatal("a recorded run steps sparsely")
	}
	r := recorded.Run()
	if want := dense.Run(); r != want {
		t.Fatalf("recorded %#v != dense %#v", r, want)
	}
	trace := recorded.Channel().Trace()
	if int64(len(trace)) != r.Slots {
		t.Fatalf("transcript holds %d events for %d slots", len(trace), r.Slots)
	}
	if !slices.EqualFunc(trace, dense.Channel().Trace(), func(a, b channel.Event) bool {
		return a.Slot == b.Slot && a.Truth == b.Truth && a.Winner == b.Winner && slices.Equal(a.Transmitters, b.Transmitters)
	}) {
		t.Fatal("recorded transcript differs from the dense engine's")
	}
	opt.RecordTrace = false
	if err := recorded.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if got := recorded.Run(); !recorded.SteppingSparse() || got != r {
		t.Fatalf("unrecorded run (sparse %v): %#v, recorded %#v", recorded.SteppingSparse(), got, r)
	}
}

// silenceEater perturbs outside the model.ReplayablePerturber contract: every
// second silent slot becomes a collision, so skipping silent slots in closed
// form would miscount them.
type silenceEater struct{}

func (silenceEater) Name() string { return "silence_eater" }
func (silenceEater) Deliver(truth model.Feedback, _, _ bool) model.Feedback {
	return truth
}
func (silenceEater) Perturb(truth model.Feedback, st *model.ChannelState) model.Feedback {
	if truth == model.Silence {
		st.Used++
		if st.Used%2 == 0 {
			return model.Collision
		}
	}
	return truth
}

// TestNonKernelPerturberStepsDensely fails if a perturbing model outside the
// model.ReplayablePerturber contract ever takes the sparse path.
func TestNonKernelPerturberStepsDensely(t *testing.T) {
	w := model.Simultaneous([]int{4, 7, 10, 13}, 0)
	e, dense := sim.NewEngine(), sim.NewEngine()
	for _, algo := range sparseAlgos() {
		eaten := int64(0)
		for seed := uint64(1); seed <= 8; seed++ {
			p := model.Params{N: 16, S: -1, Seed: seed}
			opt := sim.Options{Horizon: 400, Channel: silenceEater{}, Seed: seed}
			if err := e.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			if err := dense.Reset(denseOnly{algo}, p, w, opt); err != nil {
				t.Fatal(err)
			}
			if e.SteppingSparse() {
				t.Fatalf("%s: steps sparsely on a non-kernel perturber", algo.Name())
			}
			e.Run()
			dense.Run()
			samePlace(t, algo.Name(), e, dense)
			eaten += e.Result().Collisions
		}
		if eaten == 0 {
			t.Fatalf("%s: the perturber never fired", algo.Name())
		}
	}
}
