package kernel_test

import (
	"errors"
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
// this package).
type rosterEntry struct {
	name    string
	algo    func(n, k int) model.Algorithm
	params  func(n, k int, seed uint64, firstWake int64) model.Params
	horizon func(n, k int) int64
	maxK    int
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
			name:    "delayed(localssf)",
			algo:    func(n, k int) model.Algorithm { return schedule.NewDelayed(core.NewLocalSSF(), 3) },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.LocalSSF{}).Horizon(n, k) + 16 },
			maxK:    16,
		},
	}
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

// differential runs one workload on both executors. A seed-sensitive
// pairing must be refused by kernel.Reset with the ineligibility error —
// sweeps keep those cells on the engine — and any other must produce a
// model.Result identical in every field to the slot-by-slot engine's.
func differential(t *testing.T, round int, eng *sim.Engine, kn *kernel.Kernel,
	algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("round %d: engine reset: %v", round, err)
	}
	want := eng.Run()
	err := kn.Reset(algo, p, w, opt)
	if cls, _ := model.AlgorithmClass(algo); cls.SeedSensitive {
		if !errors.Is(err, kernel.ErrIneligible) {
			t.Fatalf("round %d: kernel.Reset of seed-sensitive %s returned %v, want the ineligibility error",
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

// TestKernelMatchesEngine is the core differential: for every roster
// algorithm, random workloads must produce a model.Result identical in every
// field to the slot-by-slot engine's — with the engine warm and the kernel
// shared across trials, so memoized schedule reuse is on the tested path.
// The seed-sensitive entries pin the other half of the routing contract:
// the kernel refuses them.
func TestKernelMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		t.Run(entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0xd1ff, model.ConfigString(entry.name)))
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
				differential(t, round, eng, kn, entry.algo(n, k), p, w, opt)
			}
		})
	}
}

// midRunWorkload draws one RunTo-parity workload. Rounds alternate between
// the local-clock localssf, whose staggered wakes exercise the shifted cache
// reads, and roundrobin, whose trials on up to 300 ids span many words and
// often outlast the horizon.
func midRunWorkload(src *rng.Source, round int) (model.Algorithm, model.Params, model.WakePattern, int64) {
	algo := model.Algorithm(core.NewLocalSSF())
	if round%2 == 1 {
		algo = core.NewRoundRobin()
	}
	n := 2 + src.Intn(300)
	k := 1 + src.Intn(min(n, 16))
	seed := src.Uint64()
	return algo, model.Params{N: n, S: -1, Seed: seed}, randomPattern(n, k, 20, seed), int64(40 + src.Intn(400))
}

// runToParity steps two executors, Reset on the same workload, to the same
// RunTo bounds from u until both are done, failing on the first divergence
// of (done, Slot, Result), and returns the last bound. Steps mix short ones
// that straddle word boundaries with long ones that cover whole 256-slot
// station passes.
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
		opt := sim.Options{Horizon: horizon, Seed: p.Seed}

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

// TestKernelStepMatchesEngine drives both executors one slot at a time.
func TestKernelStepMatchesEngine(t *testing.T) {
	eng := sim.NewEngine()
	kn := kernel.New()
	algo := core.NewRoundRobin()
	// Two stations on a collision course for a while: IDs chosen so the
	// success lands mid-word, plus a simultaneous pattern landing it at the
	// word edge (slots 63 and 64 checked in TestKernelWordBoundaries).
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3, 5}, Wakes: []int64{1, 6}}
	opt := sim.Options{Horizon: 20, Seed: 1}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if err := kn.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
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
	// fixedSlot transmits exactly at one global slot.
	for _, slot := range []int64{62, 63, 64, 65, 127, 128} {
		eng := sim.NewEngine()
		kn := kernel.New()
		algo := soloAt{slot: slot}
		p := model.Params{N: 4, S: -1}
		w := model.WakePattern{IDs: []int{1, 2}, Wakes: []int64{0, 3}}
		opt := sim.Options{Horizon: 200, Seed: 1}
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

// soloAt makes station 1 transmit exactly at the configured slot (everyone
// else stays silent) — a scalpel for word-edge tests.
type soloAt struct{ slot int64 }

func (soloAt) Name() string { return "solo_at" }
func (a soloAt) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	if id != 1 {
		return func(int64) bool { return false }
	}
	return func(t int64) bool { return t == a.slot }
}
func (soloAt) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{WakeSensitive: true}, true
}

// countingAlgo counts Build invocations — the memoization observable.
type countingAlgo struct {
	builds *int
}

func (countingAlgo) Name() string { return "counting" }
func (a countingAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	*a.builds++
	n := int64(p.N)
	slot := int64(id - 1)
	return func(t int64) bool { return t%n == slot }
}
func (countingAlgo) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{WakeSensitive: true}, true
}

// TestKernelMemoizesAcrossTrials: a seed-insensitive algorithm builds each
// participating station's schedule once per kernel, however many trials run.
// Builds are also lazy, like the engine's build-at-activation: a station
// whose wake comes after the success slot is never built at all.
func TestKernelMemoizesAcrossTrials(t *testing.T) {
	p := model.Params{N: 16, S: -1}
	const trials = 5

	run := func(w model.WakePattern) int {
		builds := 0
		kn := kernel.New()
		for trial := 0; trial < trials; trial++ {
			pp := p
			pp.Seed = uint64(trial)
			opt := sim.Options{Horizon: 64, Seed: uint64(trial)}
			if err := kn.Reset(countingAlgo{builds: &builds}, pp, w, opt); err != nil {
				t.Fatal(err)
			}
			kn.Run()
		}
		return builds
	}

	// Station id transmits at t%16 == id-1, so with this ordering the first
	// solo is station 7's slot 6 — after the last wake (5): every station
	// participates in the trial and must be built.
	all := model.WakePattern{IDs: []int{11, 7, 2}, Wakes: []int64{0, 2, 5}}
	if got := run(all); got != 3 {
		t.Errorf("%d builds over %d trials, want 3 (one per station)", got, trials)
	}

	// Reversed IDs: station 2 (wake 0) wins at slot 1, before stations 7 and
	// 11 ever wake — they must never be built, exactly as the engine never
	// activates them.
	early := model.WakePattern{IDs: []int{2, 7, 11}, Wakes: []int64{0, 2, 5}}
	if got := run(early); got != 1 {
		t.Errorf("early success: %d builds, want 1 (sleepers never built)", got)
	}
}

// TestKernelLocalClockSchedules: local-clock schedules (localssf) are cached
// once per station in local time and served to every wake slot by shifting
// the bitmap. The differential against the engine across wake variations is
// the correctness check on the shifted-word extraction; the cache-size bound
// pins that re-wakes share entries instead of multiplying them.
func TestKernelLocalClockSchedules(t *testing.T) {
	kn := kernel.New()
	eng := sim.NewEngine()
	algo := core.NewLocalSSF() // seed-insensitive, wake-sensitive, local-clock
	p := model.Params{N: 24, S: -1}
	opt := sim.Options{Horizon: (&core.LocalSSF{}).Horizon(24, 3), Seed: 7}
	for _, wakes := range [][]int64{{0, 0, 0}, {0, 3, 9}, {2, 2, 17}, {0, 3, 9}, {5, 64, 130}} {
		w := model.WakePattern{IDs: []int{4, 9, 20}, Wakes: wakes}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		got, want := kn.Run(), eng.Run()
		if got != want {
			t.Fatalf("wakes %v: kernel %+v != engine %+v", wakes, got, want)
		}
	}
	// 3 stations, any number of wake variations: at most one entry each.
	if got := kn.CachedSchedules(); got > 3 {
		t.Errorf("local-clock cache holds %d entries for 3 stations — wakes are leaking into the key", got)
	}
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

// TestKernelEligibility pins the fast-path gate.
func TestKernelEligibility(t *testing.T) {
	oblivious := core.NewRoundRobin()
	adaptive := core.NewTreeCD()
	base := sim.Options{Horizon: 10}

	if !kernel.Eligible(oblivious, base) {
		t.Error("roundrobin on the default channel must be eligible")
	}
	if kernel.Eligible(adaptive, base) {
		t.Error("TreeCD advertises no oblivious schedule; must be ineligible")
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD(), model.Ack()} {
		opt := base
		opt.Channel = ch
		if !kernel.Eligible(oblivious, opt) {
			t.Errorf("non-perturbing channel %s must stay eligible", ch.Name())
		}
	}
	for _, ch := range []model.ChannelModel{model.Noisy(0.1), model.Jam(2)} {
		opt := base
		opt.Channel = ch
		if !kernel.Eligible(oblivious, opt) {
			t.Errorf("perturbing channel %s declares a kernel overlay shape; must be eligible", ch.Name())
		}
	}
	// A perturbing model that does NOT advertise a kernel-executable shape
	// must keep its cells on the engine.
	if opt := (sim.Options{Horizon: 10, Channel: opaquePerturber{}}); kernel.Eligible(oblivious, opt) {
		t.Error("a SlotPerturber without model.KernelPerturber must be ineligible")
	}
	if opt := (sim.Options{Horizon: 10, RecordTrace: true}); kernel.Eligible(oblivious, opt) {
		t.Error("trace recording must be ineligible (the kernel keeps no transcript)")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true}); kernel.Eligible(oblivious, opt) != true {
		t.Error("Adaptive option on a non-adaptive algorithm is inert; must stay eligible")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true}); kernel.Eligible(core.NewKGConflictResolution(), opt) {
		t.Error("kg declares no feedback epochs; its adaptive runs must stay on the engine")
	}
	// The epoch route requires a channel that delivers a collision as silence
	// to every role.
	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); !kernel.Eligible(core.NewTreeCD(), opt) {
			t.Errorf("adaptive run of TreeCD (EpochOblivious) on collision-silent %s must route to the epoch executor", ch.Name())
		}
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD()} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); kernel.Eligible(core.NewTreeCD(), opt) {
			t.Errorf("adaptive run of TreeCD on %s delivers collisions; must stay on the engine", ch.Name())
		}
	}
	// Interleaving propagates the class: wakeup_with_s interleaves two
	// oblivious components, but its selective ladders draw from the seed, so
	// it renders afresh every trial and belongs on the engine.
	if kernel.Eligible(core.NewWakeupWithS(), base) {
		t.Error("wakeup_with_s (seed-sensitive) must be ineligible")
	}
	if !kernel.Eligible(schedule.NewInterleaved("rr+rr", core.NewRoundRobin(), core.NewRoundRobin()), base) {
		t.Error("interleaving two seed-insensitive oblivious components must be eligible")
	}
	if kernel.Eligible(schedule.NewInterleaved("mix", core.NewRoundRobin(), core.NewTreeCD()), base) {
		t.Error("interleaving with a non-oblivious component must be ineligible")
	}

	// Reset must reject an ineligible pairing with the kernel's
	// ineligibility error: adaptive without epochs, and every seed-sensitive
	// oblivious schedule, on every channel the oblivious route would take.
	kn := kernel.New()
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	if err := kn.Reset(adaptive, p, w, base); !errors.Is(err, kernel.ErrIneligible) {
		t.Errorf("kernel.Reset(tree_cd, non-adaptive options) = %v, want the ineligibility error", err)
	}
	for _, algo := range []model.Algorithm{core.NewRPD(), core.NewBEB(), core.NewWakeupC()} {
		for _, ch := range []model.ChannelModel{model.None(), model.CD(), model.Noisy(0.1), model.Jam(2)} {
			opt := base
			opt.Channel = ch
			if err := kn.Reset(algo, p, w, opt); !errors.Is(err, kernel.ErrIneligible) {
				t.Errorf("kernel.Reset(%s, %s) = %v, want the ineligibility error", algo.Name(), ch.Name(), err)
			}
		}
	}
	// And it must validate inputs identically to the engine.
	if err := kn.Reset(oblivious, p, w, sim.Options{Horizon: 0}); err == nil {
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
		{"roundrobin", core.NewRoundRobin(), model.Params{N: n, S: -1}, core.RoundRobin{}.Horizon(n, k), false, true},
		{"localssf", core.NewLocalSSF(), model.Params{N: n, K: k, S: -1}, (&core.LocalSSF{}).Horizon(n, k), false, true},
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
			if !nilOK {
				continue
			}
			for _, opt := range []sim.Options{nilOpt, noneOpt} {
				if err := kn.Reset(c.algo, p, w, opt); err != nil {
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
// executors warm so memo reuse under perturbation is on the tested path. The
// comparison is full model.Result equality — termination, Slots, winner, and
// the energy counters all fold the overlay in. Seed-sensitive entries must
// be refused on perturbing channels too.
func TestKernelPerturbedMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		for _, ch := range perturbedChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xbadc0de, model.ConfigString(entry.name+ch.Name())))
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
					differential(t, round, eng, kn, entry.algo(n, k), p, w, opt)
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
			src := rng.New(rng.Derive(0x517ead, model.ConfigString(ch.Name())))
			eng := sim.NewEngine()
			kn := kernel.New()
			for round := 0; round < 25; round++ {
				algo, p, w, horizon := midRunWorkload(src, round)
				opt := sim.Options{Horizon: horizon, Seed: p.Seed, Channel: ch}

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

// TestKernelCacheEviction drives a kernel past its (test-shrunk) cache
// limits and asserts the wholesale clear fires — counters reset — and that
// the trials after eviction stay byte-identical to a fresh kernel's.
func TestKernelCacheEviction(t *testing.T) {
	algo := core.NewRoundRobin() // seed-insensitive, wake-sensitive: one entry per (id, wake)
	p := model.Params{N: 64, S: -1}
	trial := func(kn *kernel.Kernel, i int) model.Result {
		t.Helper()
		// Distinct (id, wake) pairs every trial so the cache must grow.
		w := model.WakePattern{IDs: []int{1 + i%60, 62, 63}, Wakes: []int64{int64(i), int64(i) + 3, int64(i) + 9}}
		opt := sim.Options{Horizon: 256, Seed: uint64(i)}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		return kn.Run()
	}

	for name, limits := range map[string][2]int64{
		"entries": {1 << 20, 8}, // words effectively unbounded, 8 entries
		"words":   {25, 1 << 20},
	} {
		t.Run(name, func(t *testing.T) {
			kn := kernel.New()
			kn.SetCacheLimits(limits[0], int(limits[1]))
			evicted := false
			prevEntries := 0
			for i := 0; i < 40; i++ {
				got := trial(kn, i)
				if want := trial(kernel.New(), i); got != want {
					t.Fatalf("trial %d: evicting kernel %+v != fresh kernel %+v", i, got, want)
				}
				if e := kn.CachedSchedules(); e < prevEntries {
					evicted = true
					if w := kn.CachedWords(); int64(e) > limits[1] || w > limits[0] {
						t.Fatalf("trial %d: post-eviction counters entries=%d words=%d exceed limits %v", i, e, w, limits)
					}
				}
				prevEntries = kn.CachedSchedules()
			}
			if !evicted {
				t.Fatalf("40 trials never tripped the %s limit (entries=%d words=%d)",
					name, kn.CachedSchedules(), kn.CachedWords())
			}
		})
	}
}

// TestKernelPathAllocsNoWorseThanEngine: on a warm executor, a kernel trial
// must not allocate more than the same trial on a warm engine (the CI bench
// smoke asserts the same property end to end).
func TestKernelPathAllocsNoWorseThanEngine(t *testing.T) {
	algo := core.NewRoundRobin()
	p := model.Params{N: 32, S: -1}
	w := model.WakePattern{IDs: []int{5, 9, 23}, Wakes: []int64{0, 1, 4}}
	opt := sim.Options{Horizon: 40, Seed: 3}

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
		t.Errorf("warm kernel trial allocates %.1f, engine %.1f — kernel must not allocate more",
			knAllocs, engAllocs)
	}
	// The memoized warm path should be literally allocation-free.
	if knAllocs > 0 {
		t.Errorf("warm memoized kernel trial allocates %.1f, want 0", knAllocs)
	}
}
