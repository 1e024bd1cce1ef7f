package kernel_test

import (
	"math"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// adaptiveEntry mirrors rosterEntry for the adaptive roster: tree_cd, which
// declares model.Persistent and finishes in closed form on collision-silent
// channels when Options.Adaptive is set, and kg, which is not persistent and
// is always stepped.
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

// epochChannels is the full channel-model spread of the adaptive tests: the
// collision-silent models the closed form must match the stepped engine on
// (none, ack, and the perturbing pair) and the collision-delivering ones it
// must refuse (cd, sender_cd).
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

// epochRouted reports whether the closed form must admit an adaptive
// pairing: tree_cd is the only persistent algorithm, and only channels that
// deliver a collision as silence to every role keep it transmitting.
func epochRouted(name string, ch model.ChannelModel) bool {
	switch ch.Name() {
	case "cd", "sender_cd":
		return false
	}
	return name == "tree_cd"
}

// resetEpoch resets ref on an adaptive pairing and reports whether the
// closed form serves it. A pairing it must refuse fails the test unless
// Engine.Run steps it.
func resetEpoch(t *testing.T, ref *sim.Engine, name string, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options) bool {
	t.Helper()
	if !epochRouted(name, opt.Channel) {
		stepped(t, ref, algo, p, w, opt)
		return false
	}
	if err := ref.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("engine reset: %v", err)
	}
	return true
}

// TestEpochKernelMatchesEngine is the adaptive differential: for tree_cd on
// every collision-silent channel, random workloads — simultaneous and
// staggered wakes alike — must finish in closed form with a model.Result
// identical in every field to the stepped engine's, with both engines warm
// across trials. kg, and tree_cd on cd and sender_cd, must be stepped.
func TestEpochKernelMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		for _, ch := range epochChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xe90c, nameStream(entry.name+ch.Name())))
				ref, cf := sim.NewEngine(), sim.NewEngine()
				for round := 0; round < 30; round++ {
					n := 2 + src.Intn(40)
					k := 1 + src.Intn(n)
					seed := src.Uint64()
					// Half the rounds wake everyone at once (TreeCD's intended
					// regime, where the first two stations tie); half stagger
					// the wakes, which opens a solo window.
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
					algo := entry.algo(n, k)
					if !resetEpoch(t, ref, entry.name, algo, p, w, opt) {
						return
					}
					cutMatches(t, round, ref, cf, algo, p, w, opt, math.MaxInt64)
				}
			})
		}
	}
}

// TestEpochKernelMidRunMatchesEngine locks the cut horizons on the adaptive
// roster: the closed form with the horizon ending at u must return the
// stepped engine's Result after RunTo(u), at strides of up to 70 slots. The
// pairings the closed form refuses must stay stepped.
func TestEpochKernelMidRunMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD(), model.None()} {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0x3a17, nameStream(entry.name+ch.Name())))
				ref, cf := sim.NewEngine(), sim.NewEngine()
				for round := 0; round < 20; round++ {
					n := 2 + src.Intn(24)
					k := 1 + src.Intn(n)
					seed := src.Uint64()
					w := randomPattern(n, k, 1+int64(src.Intn(40)), seed)
					p := entry.params(n, k, seed)
					opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch, Adaptive: true}
					algo := entry.algo(n, k)
					if !resetEpoch(t, ref, entry.name, algo, p, w, opt) {
						return
					}
					u := w.FirstWake()
					for !ref.Done() {
						u += 1 + int64(src.Intn(70))
						cutMatches(t, round, ref, cf, algo, p, w, opt, u)
					}
					cutMatches(t, round, ref, cf, algo, p, w, opt, u+100)
				}
			})
		}
	}
}

// TestEpochKernelStepMatchesEngine cuts the horizon at every slot on a noisy
// channel, so every cut replays the noise's per-slot draws up to it. kg must
// be stepped.
func TestEpochKernelStepMatchesEngine(t *testing.T) {
	for _, entry := range adaptiveRoster() {
		t.Run(entry.name, func(t *testing.T) {
			ref, cf := sim.NewEngine(), sim.NewEngine()
			n, k := 12, 5
			seed := uint64(0x57e9)
			w := randomPattern(n, k, 9, seed)
			p := entry.params(n, k, seed)
			opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: model.Noisy(0.15), Adaptive: true}
			algo := entry.algo(n, k)
			if !resetEpoch(t, ref, entry.name, algo, p, w, opt) {
				return
			}
			for u := w.FirstWake() + 1; u < w.FirstWake()+400 && !ref.Done(); u++ {
				cutMatches(t, int(u), ref, cf, algo, p, w, opt, u)
			}
		})
	}
}

// nonPersistentAdaptive is an adaptive algorithm with its Persistent
// capability hidden — the closed form must refuse it under
// Options.Adaptive.
type nonPersistentAdaptive struct{ model.Adaptive }

// TestEpochEligibilityGate pins the fallback edges of sim.ClosedForm: an
// adaptive algorithm without the Persistent capability is stepped, and so
// is a persistent algorithm on a channel that delivers collisions to some
// role.
func TestEpochEligibilityGate(t *testing.T) {
	opt := sim.Options{Horizon: 10, Adaptive: true}
	if sim.ClosedForm(nonPersistentAdaptive{core.NewTreeCD()}, opt) {
		t.Error("Adaptive without Persistent must be stepped")
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD()} {
		if sim.ClosedForm(core.NewTreeCD(), sim.Options{Horizon: 10, Adaptive: true, Channel: ch}) {
			t.Errorf("tree_cd on %s hears collisions and must be stepped", ch.Name())
		}
	}
	// A closed-form pairing is seed-sensitive by fiat: each trial's outcome
	// comes from its own pattern and channel draws.
	cls, ok := kernel.Class(core.NewTreeCD(), opt)
	if !ok || !cls.SeedSensitive {
		t.Errorf("persistent class = %+v ok=%v, want seed-sensitive and closed-form", cls, ok)
	}
	// Without Options.Adaptive TreeCD builds no stations that hear feedback
	// and must be stepped (pinned also in TestKernelEligibility).
	if sim.ClosedForm(core.NewTreeCD(), sim.Options{Horizon: 10}) {
		t.Error("non-adaptive TreeCD run must be stepped")
	}
}

// FuzzEpochScan fuzzes the closed form against the stepped engine over
// fuzzer-chosen workloads, channels and cut horizons: one engine steps to
// the fuzzed cut (past the horizon when the cut byte is 255), and Run on a
// second engine at the matching horizon must finish in closed form with the
// same Result. Pairings the closed form refuses must be stepped for every
// workload.
func FuzzEpochScan(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(0), uint8(5), uint8(255))
	f.Add(uint64(2), uint8(16), uint8(7), uint8(1), uint8(0), uint8(3))
	f.Add(uint64(3), uint8(30), uint8(12), uint8(4), uint8(60), uint8(40))
	f.Add(uint64(4), uint8(5), uint8(5), uint8(2), uint8(90), uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, nb, kb, chb, spreadb, cutb uint8) {
		n := 2 + int(nb)%50
		k := 1 + int(kb)%n
		chs := epochChannels()
		ch := chs[int(chb)%len(chs)]
		spread := 1 + int64(spreadb)
		w := randomPattern(n, k, spread, seed)
		u := int64(math.MaxInt64)
		if cutb != 255 {
			u = w.FirstWake() + 1 + int64(cutb)
		}
		ref, cf := sim.NewEngine(), sim.NewEngine()
		for _, entry := range adaptiveRoster() {
			p := entry.params(n, k, seed)
			opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch, Adaptive: true}
			algo := entry.algo(n, k)
			if !resetEpoch(t, ref, entry.name, algo, p, w, opt) {
				continue
			}
			cutMatches(t, 0, ref, cf, algo, p, w, opt, u)
		}
	})
}
