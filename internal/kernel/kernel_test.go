package kernel_test

import (
	"errors"
	"hash/fnv"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/schedule"
	"nsmac/internal/sim"
)

// rosterEntry pairs an algorithm constructor with its per-(n,k) knowledge —
// a self-contained mirror of the sweep registry's scenarios, kept local so
// the kernel package's tests do not depend on internal/sweep (which imports
// this package). epoch marks the one entry the kernel runs: tree_cd, as an
// adaptive run on a collision-silent channel. Every oblivious entry runs on
// the engine, and the kernel must refuse it.
type rosterEntry struct {
	name    string
	algo    func(n, k int) model.Algorithm
	params  func(n, k int, seed uint64, firstWake int64) model.Params
	horizon func(n, k int) int64
	maxK    int
	epoch   bool
}

func roster() []rosterEntry {
	scenC := func(n, k int, seed uint64, _ int64) model.Params {
		return model.Params{N: n, S: -1, Seed: seed}
	}
	return []rosterEntry{
		{
			name:    "roundrobin",
			algo:    func(n, k int) model.Algorithm { return core.NewRoundRobin() },
			params:  scenC,
			horizon: func(n, k int) int64 { return core.RoundRobin{}.Horizon(n, k) },
		},
		{
			name: "wakeup_with_s",
			algo: func(n, k int) model.Algorithm { return core.NewWakeupWithS() },
			params: func(n, k int, seed uint64, firstWake int64) model.Params {
				return model.Params{N: n, S: firstWake, Seed: seed}
			},
			horizon: func(n, k int) int64 { return core.WakeupWithSHorizon(n, k) },
		},
		{
			name: "wakeup_with_k",
			algo: func(n, k int) model.Algorithm { return core.NewWakeupWithK() },
			params: func(n, k int, seed uint64, _ int64) model.Params {
				return model.Params{N: n, K: k, S: -1, Seed: seed}
			},
			horizon: func(n, k int) int64 { return core.WakeupWithKHorizon(n, k) },
		},
		{
			name:    "wakeupc",
			algo:    func(n, k int) model.Algorithm { return core.NewWakeupC() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.WakeupC{}).Horizon(n, k) },
		},
		{
			name:    "rpd",
			algo:    func(n, k int) model.Algorithm { return core.NewRPD() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.RPD{}).Horizon(n, k) },
		},
		{
			name:    "beb",
			algo:    func(n, k int) model.Algorithm { return core.NewBEB() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.BEB{}).Horizon(n, k) },
		},
		{
			name:    "localssf",
			algo:    func(n, k int) model.Algorithm { return core.NewLocalSSF() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.LocalSSF{}).Horizon(n, k) },
			maxK:    16,
		},
		{
			name:    "skewed(roundrobin)",
			algo:    func(n, k int) model.Algorithm { return core.NewClockSkewed(core.NewRoundRobin(), 5) },
			params:  scenC,
			horizon: func(n, k int) int64 { return 4 * core.RoundRobin{}.Horizon(n, k) },
		},
		{
			name:    "tree_cd",
			algo:    func(n, k int) model.Algorithm { return core.NewTreeCD() },
			params:  scenC,
			horizon: func(n, k int) int64 { return core.TreeCD{}.Horizon(n, k) },
			epoch:   true,
		},
	}
}

// nameStream folds a subtest name into an RNG stream id (FNV-1a, then
// mixed), so every subtest draws its own workloads.
func nameStream(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.Mix64(h.Sum64())
}

// randomPattern draws a wake pattern of k stations in [1, n] with wakes in
// [0, spread).
func randomPattern(n, k int, spread int64, seed uint64) model.WakePattern {
	ids := rng.New(rng.Derive(seed, 2)).Sample(n, k)
	wakes := make([]int64, k)
	wsrc := rng.New(rng.Derive(seed, 3))
	for i := range wakes {
		wakes[i] = wsrc.Int63n(spread)
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

// differential runs one workload of a roster entry on both executors. An
// oblivious pairing must be refused by kernel.Reset with the ineligibility
// error — sweeps keep those cells on the engine — and the epoch entry must
// produce a model.Result identical in every field to the engine's.
func differential(t *testing.T, round int, eng *sim.Engine, kn *kernel.Kernel, entry rosterEntry,
	p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	opt.Adaptive = entry.epoch
	algo := entry.algo(p.N, w.K())
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("round %d: engine reset: %v", round, err)
	}
	want := eng.Run()
	err := kn.Reset(algo, p, w, opt)
	if !entry.epoch {
		if !errors.Is(err, kernel.ErrIneligible) {
			t.Fatalf("round %d: kernel.Reset of oblivious %s returned %v, want the ineligibility error",
				round, algo.Name(), err)
		}
		return
	}
	if err != nil {
		t.Fatalf("round %d: kernel reset: %v", round, err)
	}
	if got := kn.Run(); got != want {
		t.Fatalf("round %d (n=%d k=%d seed=%#x):\nkernel %+v\nengine %+v",
			round, p.N, w.K(), opt.Seed, got, want)
	}
}

// TestKernelMatchesEngine is the core differential over the whole roster on
// the default channel: random workloads of the epoch entry must produce a
// model.Result identical in every field to the engine's, with both executors
// warm across trials, and the kernel must refuse every oblivious entry.
func TestKernelMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		t.Run(entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0xd1ff, nameStream(entry.name)))
			eng := sim.NewEngine()
			kn := kernel.New()
			for round := 0; round < 30; round++ {
				n := 2 + src.Intn(60)
				k := 1 + src.Intn(n)
				if entry.maxK > 0 && k > entry.maxK {
					k = entry.maxK
				}
				seed := src.Uint64()
				w := randomPattern(n, k, 1+int64(src.Intn(30)), seed)
				p := entry.params(n, k, seed, w.FirstWake())
				opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed}
				differential(t, round, eng, kn, entry, p, w, opt)
			}
		})
	}
}

// midRunWorkload draws one RunTo-parity workload of tree_cd on up to 300
// ids under a short random horizon. Rounds alternate between simultaneous
// wakes, where two stations collide until the horizon, and staggered ones,
// which activate stations mid-word.
func midRunWorkload(src *rng.Source, round int) (model.Algorithm, model.Params, model.WakePattern, int64) {
	n := 2 + src.Intn(300)
	k := 1 + src.Intn(min(n, 16))
	seed := src.Uint64()
	spread := int64(1)
	if round%2 == 1 {
		spread = 20
	}
	return core.NewTreeCD(), model.Params{N: n, S: -1, Seed: seed}, randomPattern(n, k, spread, seed), int64(40 + src.Intn(400))
}

// runToParity steps two executors, Reset on the same workload, to the same
// RunTo bounds from u until both are done, failing on the first divergence
// of (done, Slot, Result), and returns the last bound. Steps mix short ones
// that straddle word boundaries with long ones that cover many words.
func runToParity(t *testing.T, round int, src *rng.Source, eng *sim.Engine, kn *kernel.Kernel, u int64) int64 {
	t.Helper()
	for !eng.Done() || !kn.Done() {
		u += 1 + int64(src.Intn(1+src.Intn(300)))
		ed, kd := eng.RunTo(u), kn.RunTo(u)
		if ed != kd || eng.Done() != kn.Done() || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
			t.Fatalf("round %d RunTo(%d):\nkernel done=%v slot=%d %+v\nengine done=%v slot=%d %+v",
				round, u, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
		}
	}
	return u
}

// TestKernelMidRunMatchesEngine locks the partial-horizon API: after
// RunTo(u) for arbitrary u, (Result, Slot, Done) must match the engine's at
// the same u — including the edge where u exceeds the horizon.
func TestKernelMidRunMatchesEngine(t *testing.T) {
	src := rng.New(0xa1d)
	eng := sim.NewEngine()
	kn := kernel.New()
	for round := 0; round < 40; round++ {
		algo, p, w, horizon := midRunWorkload(src, round)
		opt := sim.Options{Horizon: horizon, Seed: p.Seed, Adaptive: true}

		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if kn.Slot() != eng.Slot() {
			t.Fatalf("round %d: initial slot %d != %d", round, kn.Slot(), eng.Slot())
		}
		u := runToParity(t, round, src, eng, kn, w.FirstWake())
		// Past-the-end calls stay stable on both.
		eng.RunTo(u + 100)
		kn.RunTo(u + 100)
		if eng.Result() != kn.Result() || eng.Slot() != kn.Slot() {
			t.Fatalf("round %d: post-done divergence", round)
		}
	}
}

// TestKernelStepMatchesEngine drives both executors one slot at a time on
// the default channel: two tree_cd stations that wake together collide in
// every slot, and a third joins mid-way through the second word, until the
// horizon ends the trial.
func TestKernelStepMatchesEngine(t *testing.T) {
	eng := sim.NewEngine()
	kn := kernel.New()
	algo := core.NewTreeCD()
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3, 5, 7}, Wakes: []int64{1, 1, 70}}
	opt := sim.Options{Horizon: 100, Seed: 1, Adaptive: true}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if err := kn.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 110; i++ {
		ed, kd := eng.Step(), kn.Step()
		if ed != kd || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
			t.Fatalf("step %d: kernel (done=%v slot=%d %+v) != engine (done=%v slot=%d %+v)",
				i, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
		}
	}
}

// TestKernelWordBoundaries pins success slots at and around the 64-slot word
// edges, where the masking logic earns its keep.
func TestKernelWordBoundaries(t *testing.T) {
	for _, slot := range []int64{62, 63, 64, 65, 127, 128} {
		eng := sim.NewEngine()
		kn := kernel.New()
		algo := soloAt{slot: slot}
		p := model.Params{N: 4, S: -1}
		w := model.WakePattern{IDs: []int{1, 2}, Wakes: []int64{0, 3}}
		opt := sim.Options{Horizon: 200, Seed: 1, Adaptive: true}
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		want, got := eng.Run(), kn.Run()
		if got != want {
			t.Fatalf("slot %d: kernel %+v != engine %+v", slot, got, want)
		}
		if !got.Succeeded || got.SuccessSlot != slot {
			t.Fatalf("slot %d: expected success there, got %+v", slot, got)
		}
	}
}

// soloAt is an epoch algorithm whose station 1 transmits exactly at the
// configured global slot (everyone else stays silent) — a scalpel for
// word-edge tests.
type soloAt struct{ slot int64 }

func (soloAt) Name() string { return "solo_at" }
func (soloAt) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (a soloAt) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return soloStation{slot: a.slot, wake: wake, on: id == 1}
}
func (a soloAt) BuildEpoch(p model.Params, id int, wake int64, _ *rng.Source) model.EpochStation {
	return soloStation{slot: a.slot, wake: wake, on: id == 1}
}

type soloStation struct {
	slot, wake int64
	on         bool
}

func (s soloStation) WillTransmit(t int64) bool        { return s.on && t == s.slot }
func (soloStation) Observe(int64, model.Feedback, int) {}
func (s soloStation) RenderWord(from int64) uint64 {
	if i := s.slot - s.wake - from; s.on && i >= 0 && i < 64 {
		return 1 << uint(i)
	}
	return 0
}

// opaquePerturber perturbs slots but does not declare a kernel-executable
// shape (no PerturbSpec) — the eligibility gate must keep it on the engine.
type opaquePerturber struct{}

func (opaquePerturber) Name() string { return "opaque" }
func (opaquePerturber) Deliver(truth model.Feedback, transmitted, won bool) model.Feedback {
	if truth == model.Collision {
		return model.Silence
	}
	return truth
}
func (opaquePerturber) Perturb(truth model.Feedback, st *model.ChannelState) model.Feedback {
	return truth
}

// TestKernelEligibility pins the fast-path gate: only an adaptive run of an
// epoch algorithm on a collision-silent channel with a kernel-executable
// perturbation (if any) reaches the kernel, and Reset refuses the rest with
// the ineligibility error.
func TestKernelEligibility(t *testing.T) {
	epoch := core.NewTreeCD()
	adaptive := sim.Options{Horizon: 10, Adaptive: true}

	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); !kernel.Eligible(epoch, opt) {
			t.Errorf("adaptive run of TreeCD (EpochOblivious) on collision-silent %s must route to the kernel", ch.Name())
		}
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD()} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); kernel.Eligible(epoch, opt) {
			t.Errorf("adaptive run of TreeCD on %s delivers collisions; must stay on the engine", ch.Name())
		}
	}
	// A perturbing model that does NOT advertise a kernel-executable shape
	// must keep its cells on the engine.
	if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: opaquePerturber{}}); kernel.Eligible(epoch, opt) {
		t.Error("a SlotPerturber without model.KernelPerturber must be ineligible")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true, RecordTrace: true}); kernel.Eligible(epoch, opt) {
		t.Error("trace recording must be ineligible (the kernel keeps no transcript)")
	}
	if kernel.Eligible(core.NewKGConflictResolution(), adaptive) {
		t.Error("kg declares no feedback epochs; its adaptive runs must stay on the engine")
	}

	// Reset must reject an ineligible pairing with the kernel's
	// ineligibility error: TreeCD without Options.Adaptive, and every
	// oblivious schedule — seed-insensitive and seed-sensitive alike, with or
	// without Options.Adaptive — on every channel.
	kn := kernel.New()
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	if err := kn.Reset(epoch, p, w, sim.Options{Horizon: 10}); !errors.Is(err, kernel.ErrIneligible) {
		t.Errorf("kernel.Reset(tree_cd, non-adaptive options) = %v, want the ineligibility error", err)
	}
	oblivious := []model.Algorithm{
		core.NewRoundRobin(), core.NewLocalSSF(), core.NewRPD(), core.NewBEB(), core.NewWakeupC(),
		core.NewWakeupWithS(), schedule.NewInterleaved("rr+rr", core.NewRoundRobin(), core.NewRoundRobin()),
	}
	for _, algo := range oblivious {
		for _, ch := range []model.ChannelModel{model.None(), model.CD(), model.SenderCD(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
			for _, ad := range []bool{false, true} {
				opt := sim.Options{Horizon: 10, Channel: ch, Adaptive: ad}
				if _, ok := kernel.Class(algo, opt); ok {
					t.Errorf("Class(%s, %s, adaptive=%v) ok, want the engine", algo.Name(), ch.Name(), ad)
				}
				if err := kn.Reset(algo, p, w, opt); !errors.Is(err, kernel.ErrIneligible) {
					t.Errorf("kernel.Reset(%s, %s, adaptive=%v) = %v, want the ineligibility error", algo.Name(), ch.Name(), ad, err)
				}
			}
		}
	}
	// And it must validate inputs identically to the engine.
	if err := kn.Reset(epoch, p, w, sim.Options{Horizon: 0, Adaptive: true}); err == nil {
		t.Error("kernel.Reset accepted a zero horizon")
	}
}

// TestNilChannelMatchesNone: a nil Options.Channel is model.None on the
// kernel too. Class routes both spellings the same way, and where the
// kernel runs them, its Result equals the engine's under either spelling.
func TestNilChannelMatchesNone(t *testing.T) {
	const n, k = 48, 5
	cases := []struct {
		name     string
		algo     model.Algorithm
		p        model.Params
		horizon  int64
		adaptive bool
		routed   bool // the kernel runs the pairing
	}{
		{"roundrobin", core.NewRoundRobin(), model.Params{N: n, S: -1}, core.RoundRobin{}.Horizon(n, k), false, false},
		{"localssf", core.NewLocalSSF(), model.Params{N: n, K: k, S: -1}, (&core.LocalSSF{}).Horizon(n, k), false, false},
		{"wakeupc", core.NewWakeupC(), model.Params{N: n, S: -1}, (&core.WakeupC{}).Horizon(n, k), false, false},
		{"tree_cd", core.NewTreeCD(), model.Params{N: n, S: -1}, core.TreeCD{}.Horizon(n, k), true, true},
	}
	eng := sim.NewEngine()
	kn := kernel.New()
	for _, c := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			p := c.p
			p.Seed = seed
			w := randomPattern(n, k, 1+int64(seed)*20, seed)
			nilOpt := sim.Options{Horizon: c.horizon, Seed: seed, Adaptive: c.adaptive}
			noneOpt := nilOpt
			noneOpt.Channel = model.None()

			nilCls, nilOK := kernel.Class(c.algo, nilOpt)
			noneCls, noneOK := kernel.Class(c.algo, noneOpt)
			if nilCls != noneCls || nilOK != noneOK || nilOK != c.routed {
				t.Fatalf("%s: Class(nil) = (%+v, %v), Class(none) = (%+v, %v), want routed %v",
					c.name, nilCls, nilOK, noneCls, noneOK, c.routed)
			}
			if err := eng.Reset(c.algo, p, w, nilOpt); err != nil {
				t.Fatal(err)
			}
			want := eng.Run()
			if err := eng.Reset(c.algo, p, w, noneOpt); err != nil {
				t.Fatal(err)
			}
			if got := eng.Run(); got != want {
				t.Fatalf("%s seed %d: engine none %+v, nil %+v", c.name, seed, got, want)
			}
			for _, opt := range []sim.Options{nilOpt, noneOpt} {
				err := kn.Reset(c.algo, p, w, opt)
				if !c.routed {
					if !errors.Is(err, kernel.ErrIneligible) {
						t.Fatalf("%s channel %v: kernel.Reset = %v, want the ineligibility error", c.name, opt.Channel, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := kn.Run(); got != want {
					t.Fatalf("%s seed %d channel %v: kernel %+v, engine %+v", c.name, seed, opt.Channel, got, want)
				}
			}
		}
	}
}

// perturbedChannels are the overlay shapes under differential test, including
// the degenerate parameters: noisy:0 must behave exactly like none, noisy:1
// erases everything without drawing (the trial can never succeed), jam:0 is
// inert, and a jam budget beyond any plausible success count suppresses the
// whole horizon.
func perturbedChannels() []model.ChannelModel {
	return []model.ChannelModel{
		model.Noisy(0), model.Noisy(0.05), model.Noisy(0.3), model.Noisy(1),
		model.Jam(0), model.Jam(1), model.Jam(5), model.Jam(1 << 40),
	}
}

// TestKernelPerturbedMatchesEngine is the overlay differential: every roster
// algorithm × every perturbed channel shape, random workloads, with both
// executors warm. For the epoch entry the comparison is full model.Result
// equality — termination, Slots, winner, and the energy counters all fold
// the overlay in. Oblivious entries must be refused on perturbing channels
// too.
func TestKernelPerturbedMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		for _, ch := range perturbedChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xbadc0de, nameStream(entry.name+ch.Name())))
				eng := sim.NewEngine()
				kn := kernel.New()
				for round := 0; round < 12; round++ {
					n := 2 + src.Intn(60)
					k := 1 + src.Intn(n)
					if entry.maxK > 0 && k > entry.maxK {
						k = entry.maxK
					}
					seed := src.Uint64()
					w := randomPattern(n, k, 1+int64(src.Intn(30)), seed)
					p := entry.params(n, k, seed, w.FirstWake())
					opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch}
					differential(t, round, eng, kn, entry, p, w, opt)
				}
			})
		}
	}
}

// TestKernelPerturbedMidRun drives RunTo at arbitrary strides under noisy and
// jam channels: the overlay consumes channel randomness per executed slot, so
// any stride mismatch (a draw taken for a slot the engine never ran, or
// skipped for one it did) desynchronizes the stream and shows up here.
func TestKernelPerturbedMidRun(t *testing.T) {
	for _, ch := range []model.ChannelModel{model.Noisy(0.2), model.Jam(3)} {
		t.Run(ch.Name(), func(t *testing.T) {
			src := rng.New(rng.Derive(0x517ead, nameStream(ch.Name())))
			eng := sim.NewEngine()
			kn := kernel.New()
			for round := 0; round < 25; round++ {
				algo, p, w, horizon := midRunWorkload(src, round)
				opt := sim.Options{Horizon: horizon, Seed: p.Seed, Channel: ch, Adaptive: true}

				if err := eng.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				if err := kn.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				runToParity(t, round, src, eng, kn, w.FirstWake())
			}
		})
	}
}

// TestKernelPathAllocsNoWorseThanEngine: on a warm executor, a kernel trial
// must not allocate more than the same trial on a warm engine (the CI bench
// smoke asserts the same property end to end). The kernel reseeds each
// station's stream in place, as the engine does, so what is left is the
// station itself.
func TestKernelPathAllocsNoWorseThanEngine(t *testing.T) {
	algo := core.NewTreeCD()
	p := model.Params{N: 32, S: -1}
	w := model.WakePattern{IDs: []int{5, 9, 23}, Wakes: []int64{0, 1, 4}}
	for _, ch := range []model.ChannelModel{model.None(), model.Ack()} {
		opt := sim.Options{Horizon: core.TreeCD{}.Horizon(32, 3), Seed: 3, Channel: ch, Adaptive: true}
		eng := sim.NewEngine()
		kn := kernel.New()
		// Warm both.
		for i := 0; i < 3; i++ {
			if err := eng.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if err := kn.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			kn.Run()
		}
		engAllocs := testing.AllocsPerRun(100, func() {
			if err := eng.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		})
		knAllocs := testing.AllocsPerRun(100, func() {
			if err := kn.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			kn.Run()
		})
		if knAllocs > engAllocs {
			t.Errorf("%s: warm kernel trial allocates %.1f, engine %.1f — kernel must not allocate more",
				ch.Name(), knAllocs, engAllocs)
		}
	}
}
