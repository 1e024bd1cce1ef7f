package kernel_test

import (
	"errors"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// adaptiveEntry mirrors rosterEntry for the adaptive roster: tree_cd, which
// declares model.EpochOblivious and routes onto the word scan on
// collision-silent channels when Options.Adaptive is set, and kg, which
// declares no epochs and stays on the engine.
type adaptiveEntry struct {
	name    string
	algo    func(n, k int) model.Algorithm
	params  func(n, k int, seed uint64) model.Params
	horizon func(n, k int) int64
}

func adaptiveRoster() []adaptiveEntry {
	return []adaptiveEntry{
		{
			name:    "tree_cd",
			algo:    func(n, k int) model.Algorithm { return core.NewTreeCD() },
			params:  func(n, k int, seed uint64) model.Params { return model.Params{N: n, S: -1, Seed: seed} },
			horizon: func(n, k int) int64 { return core.TreeCD{}.Horizon(n, k) },
		},
		{
			name:    "kg",
			algo:    func(n, k int) model.Algorithm { return core.NewKGConflictResolution() },
			params:  func(n, k int, seed uint64) model.Params { return model.Params{N: n, K: k, S: -1, Seed: seed} },
			horizon: func(n, k int) int64 { return (&core.KGConflictResolution{}).Horizon(n, k) },
		},
	}
}

// epochChannels is the full channel-model spread of the epoch tests: the
// collision-silent models the epoch executor must match the engine on (none,
// ack, and the perturbing pair) and the collision-delivering ones it must
// refuse (cd, sender_cd).
func epochChannels() []model.ChannelModel {
	return []model.ChannelModel{
		model.None(),
		model.CD(),
		model.SenderCD(),
		model.Ack(),
		model.Noisy(0.15),
		model.Jam(2),
	}
}

// epochRouted reports whether the kernel must accept an adaptive pairing:
// tree_cd is the only algorithm that declares epochs, and only channels that
// deliver a collision as silence to every role keep its renders valid.
func epochRouted(name string, ch model.ChannelModel) bool {
	switch ch.Name() {
	case "cd", "sender_cd":
		return false
	}
	return name == "tree_cd"
}

// resetEpoch resets the kernel on an adaptive pairing and reports whether the
// pairing runs there. A pairing that must stay on the engine fails the test
// unless Reset refuses it with the ineligibility error.
func resetEpoch(t *testing.T, kn *kernel.Kernel, name string, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options) bool {
	t.Helper()
	err := kn.Reset(algo, p, w, opt)
	if !epochRouted(name, opt.Channel) {
		if !errors.Is(err, kernel.ErrIneligible) || kernel.Eligible(algo, opt) {
			t.Fatalf("kernel.Reset(%s, %s) = %v, want the ineligibility error", name, opt.Channel.Name(), err)
		}
		return false
	}
	if err != nil {
		t.Fatalf("kernel reset: %v", err)
	}
	return true
}

// TestEpochKernelMatchesEngine is the adaptive differential: for tree_cd on
// every collision-silent channel, random workloads — simultaneous and
// staggered wakes alike — must produce a model.Result identical in every
// field to the slot-by-slot engine's, with both executors warm across
// trials. The kernel must refuse kg, and tree_cd on cd and sender_cd.
func TestEpochKernelMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		for _, ch := range epochChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xe90c, model.ConfigString(entry.name+ch.Name())))
				eng := sim.NewEngine()
				kn := kernel.New()
				for round := 0; round < 30; round++ {
					n := 2 + src.Intn(40)
					k := 1 + src.Intn(n)
					seed := src.Uint64()
					// Half the rounds wake everyone at once (TreeCD's intended
					// regime, where the replicated stacks stay coherent); half
					// stagger the wakes to stress activation mid-word.
					spread := int64(1)
					if round%2 == 1 {
						spread = 1 + int64(src.Intn(100))
					}
					w := randomPattern(n, k, spread, seed)
					p := entry.params(n, k, seed)
					opt := sim.Options{
						Horizon:  entry.horizon(n, k),
						Seed:     seed,
						Channel:  ch,
						Adaptive: true,
					}
					if !resetEpoch(t, kn, entry.name, entry.algo(n, k), p, w, opt) {
						return
					}
					if err := eng.Reset(entry.algo(n, k), p, w, opt); err != nil {
						t.Fatalf("round %d: engine reset: %v", round, err)
					}
					want := eng.Run()
					got := kn.Run()
					if got != want {
						t.Fatalf("round %d (n=%d k=%d seed=%#x spread=%d):\nkernel %+v\nengine %+v",
							round, n, k, seed, spread, got, want)
					}
				}
			})
		}
	}
}

// TestEpochKernelMidRunMatchesEngine locks the partial-horizon API on the
// epoch path: after RunTo(u) for arbitrary u, (Result, Slot, Done) must match
// the engine's — mid-word stops force re-entrant renders of the same word.
// The pairings the kernel refuses must stay refused.
func TestEpochKernelMidRunMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD(), model.None()} {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0x3a17, model.ConfigString(entry.name+ch.Name())))
				eng := sim.NewEngine()
				kn := kernel.New()
				for round := 0; round < 20; round++ {
					n := 2 + src.Intn(24)
					k := 1 + src.Intn(n)
					seed := src.Uint64()
					w := randomPattern(n, k, 1+int64(src.Intn(40)), seed)
					p := entry.params(n, k, seed)
					opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch, Adaptive: true}

					if !resetEpoch(t, kn, entry.name, entry.algo(n, k), p, w, opt) {
						return
					}
					if err := eng.Reset(entry.algo(n, k), p, w, opt); err != nil {
						t.Fatal(err)
					}
					u := w.FirstWake()
					for !eng.Done() || !kn.Done() {
						u += 1 + int64(src.Intn(70)) // strides straddle word boundaries
						ed := eng.RunTo(u)
						kd := kn.RunTo(u)
						if ed != kd || eng.Done() != kn.Done() || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
							t.Fatalf("round %d RunTo(%d):\nkernel done=%v slot=%d %+v\nengine done=%v slot=%d %+v",
								round, u, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
						}
					}
					eng.RunTo(u + 100)
					kn.RunTo(u + 100)
					if eng.Result() != kn.Result() || eng.Slot() != kn.Slot() {
						t.Fatalf("round %d: post-done divergence", round)
					}
				}
			})
		}
	}
}

// TestEpochKernelStepMatchesEngine drives both executors one slot at a time —
// the worst case for the epoch path, which re-renders the word on every
// single-slot window — on a noisy channel, so every step also runs the
// overlay's per-slot draws. kg must be refused.
func TestEpochKernelStepMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		t.Run(entry.name, func(t *testing.T) {
			eng := sim.NewEngine()
			kn := kernel.New()
			n, k := 12, 5
			seed := uint64(0x57e9)
			w := randomPattern(n, k, 9, seed)
			p := entry.params(n, k, seed)
			opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: model.Noisy(0.15), Adaptive: true}
			if !resetEpoch(t, kn, entry.name, entry.algo(n, k), p, w, opt) {
				return
			}
			if err := eng.Reset(entry.algo(n, k), p, w, opt); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400 && (!eng.Done() || !kn.Done()); i++ {
				ed, kd := eng.Step(), kn.Step()
				if ed != kd || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
					t.Fatalf("step %d: kernel (done=%v slot=%d %+v) != engine (done=%v slot=%d %+v)",
						i, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
				}
			}
		})
	}
}

// nonEpochAdaptive is Adaptive but not EpochOblivious — the eligibility gate
// must keep it on the engine under Options.Adaptive.
type nonEpochAdaptive struct{}

func (nonEpochAdaptive) Name() string { return "non_epoch_adaptive" }
func (nonEpochAdaptive) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (nonEpochAdaptive) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return silentStation{}
}

type silentStation struct{}

func (silentStation) WillTransmit(int64) bool            { return false }
func (silentStation) Observe(int64, model.Feedback, int) {}

// TestEpochEligibilityGate pins the fallback edges of the epoch routing: an
// adaptive algorithm without the epoch capability stays on the engine, and so
// does an epoch algorithm on a channel that delivers collisions to some role.
func TestEpochEligibilityGate(t *testing.T) {
	opt := sim.Options{Horizon: 10, Adaptive: true}
	if kernel.Eligible(nonEpochAdaptive{}, opt) {
		t.Error("Adaptive without EpochOblivious must stay on the engine")
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD()} {
		if kernel.Eligible(core.NewTreeCD(), sim.Options{Horizon: 10, Adaptive: true, Channel: ch}) {
			t.Errorf("tree_cd on %s hears collisions and must stay on the engine", ch.Name())
		}
	}
	// The epoch class is seed-sensitive by fiat: live station state is the
	// trial, so nothing may memoize across trials.
	cls, ok := kernel.Class(core.NewTreeCD(), opt)
	if !ok || !cls.SeedSensitive {
		t.Errorf("epoch class = %+v ok=%v, want seed-sensitive and eligible", cls, ok)
	}
	// Without Options.Adaptive the same algorithms advertise no oblivious
	// schedule and must stay ineligible (pinned also in TestKernelEligibility).
	if kernel.Eligible(core.NewTreeCD(), sim.Options{Horizon: 10}) {
		t.Error("non-adaptive TreeCD run must stay on the engine")
	}
}

// FuzzEpochScan drives the epoch executor and the engine in lockstep Step
// parity over fuzzer-chosen workloads, checking every counter at every slot —
// single-slot stepping visits every station activation and every overlay
// draw. Pairings the kernel refuses must be refused for every workload.
func FuzzEpochScan(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(0), uint8(5))
	f.Add(uint64(2), uint8(16), uint8(7), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(30), uint8(12), uint8(4), uint8(60))
	f.Add(uint64(4), uint8(5), uint8(5), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, nb, kb, chb, spreadb uint8) {
		n := 2 + int(nb)%50
		k := 1 + int(kb)%n
		chs := epochChannels()
		ch := chs[int(chb)%len(chs)]
		spread := 1 + int64(spreadb)
		w := randomPattern(n, k, spread, seed)
		for _, entry := range adaptiveRoster() {
			p := entry.params(n, k, seed)
			opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch, Adaptive: true}
			eng := sim.NewEngine()
			kn := kernel.New()
			if !resetEpoch(t, kn, entry.name, entry.algo(n, k), p, w, opt) {
				continue
			}
			if err := eng.Reset(entry.algo(n, k), p, w, opt); err != nil {
				t.Fatal(err)
			}
			for i := 0; !eng.Done() || !kn.Done(); i++ {
				ed, kd := eng.Step(), kn.Step()
				if ed != kd || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
					t.Fatalf("%s/%s step %d (n=%d k=%d seed=%#x):\nkernel done=%v slot=%d %+v\nengine done=%v slot=%d %+v",
						entry.name, ch.Name(), i, n, k, seed,
						kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
				}
			}
		}
	})
}
