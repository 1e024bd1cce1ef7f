package kernel_test

import (
	"errors"
	"hash/fnv"
	"math"
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
// the engine, and kernel.Run must refuse it.
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

// cutMatches requires kernel.Run, at the horizon that ends at global slot
// u (capped at opt.Horizon), to return the Result the engine — Reset on the
// same workload with opt — holds after RunTo(u).
func cutMatches(t *testing.T, round int, eng *sim.Engine, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options, u int64) {
	t.Helper()
	eng.RunTo(u)
	cut := opt
	cut.Horizon = min(u-w.FirstWake(), opt.Horizon)
	got, err := kernel.Run(algo, p, w, cut)
	if err != nil {
		t.Fatalf("round %d: kernel.Run: %v", round, err)
	}
	if want := eng.Result(); got != want {
		t.Fatalf("round %d (n=%d k=%d seed=%#x) cut at slot %d:\nkernel %#v\nengine %#v",
			round, p.N, w.K(), opt.Seed, u, got, want)
	}
}

// refused requires kernel.Run to refuse a pairing with the ineligibility
// error, and Eligible to agree.
func refused(t *testing.T, algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	if _, err := kernel.Run(algo, p, w, opt); !errors.Is(err, kernel.ErrIneligible) || kernel.Eligible(algo, opt) {
		t.Fatalf("kernel.Run(%s, %v, adaptive=%v) = %v, want the ineligibility error",
			algo.Name(), opt.Channel, opt.Adaptive, err)
	}
}

// differential runs one workload of a roster entry on both executors. An
// oblivious pairing must be refused by kernel.Run with the ineligibility
// error — sweeps keep those cells on the engine — and the epoch entry must
// produce a model.Result identical in every field to the engine's.
func differential(t *testing.T, round int, eng *sim.Engine, entry rosterEntry,
	p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	opt.Adaptive = entry.epoch
	algo := entry.algo(p.N, w.K())
	if !entry.epoch {
		refused(t, algo, p, w, opt)
		return
	}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("round %d: engine reset: %v", round, err)
	}
	cutMatches(t, round, eng, algo, p, w, opt, math.MaxInt64)
}

// TestKernelMatchesEngine is the core differential over the whole roster on
// the default channel: random workloads of the epoch entry must produce a
// model.Result identical in every field to the engine's, with the engine
// warm across trials, and kernel.Run must refuse every oblivious entry.
func TestKernelMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		t.Run(entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0xd1ff, nameStream(entry.name)))
			eng := sim.NewEngine()
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
				differential(t, round, eng, entry, p, w, opt)
			}
		})
	}
}

// midRunWorkload draws one cut-horizon workload of tree_cd on up to 300
// ids under a short random horizon. Rounds alternate between simultaneous
// wakes, where two stations collide until the horizon, and staggered ones,
// in which the solo window runs until the second wake.
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

// cutParity steps the engine, Reset on the workload, to random RunTo bounds
// from u until it is done, requiring kernel.Run at each bound's horizon to
// match it (see cutMatches), and returns the last bound. Short steps mix
// with long ones.
func cutParity(t *testing.T, round int, src *rng.Source, eng *sim.Engine, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options, u int64) int64 {
	t.Helper()
	for !eng.Done() {
		u += 1 + int64(src.Intn(1+src.Intn(300)))
		cutMatches(t, round, eng, algo, p, w, opt, u)
	}
	return u
}

// TestKernelMidRunMatchesEngine locks the cut horizons: kernel.Run with the
// horizon ending at u must return the engine's Result after RunTo(u) for
// arbitrary u, including u past the horizon.
func TestKernelMidRunMatchesEngine(t *testing.T) {
	src := rng.New(0xa1d)
	eng := sim.NewEngine()
	for round := 0; round < 40; round++ {
		algo, p, w, horizon := midRunWorkload(src, round)
		opt := sim.Options{Horizon: horizon, Seed: p.Seed, Adaptive: true}
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		u := cutParity(t, round, src, eng, algo, p, w, opt, w.FirstWake())
		cutMatches(t, round, eng, algo, p, w, opt, u+100)
	}
}

// TestKernelStepMatchesEngine cuts the horizon at every slot on the default
// channel: two tree_cd stations that wake together collide in every slot,
// and a third joins mid-way, until the horizon ends the trial.
func TestKernelStepMatchesEngine(t *testing.T) {
	eng := sim.NewEngine()
	algo := core.NewTreeCD()
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3, 5, 7}, Wakes: []int64{1, 1, 70}}
	opt := sim.Options{Horizon: 100, Seed: 1, Adaptive: true}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	for u := int64(2); u < 112; u++ {
		cutMatches(t, int(u), eng, algo, p, w, opt, u)
	}
}

// TestKernelWordBoundaries pins the closed form's edges, each against the
// engine and against its expected success slot: a tie at the first wake
// empties the solo window; a jam budget of q jams a window of exactly q
// slots and lets the (q+1)-th succeed; and first wakes at 63, 64 and 65,
// the word edges of the word scan Run replaced, change nothing.
func TestKernelWordBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		wakes []int64
		ch    model.ChannelModel
		succ  int64 // expected success slot, -1 for none
	}{
		{"tie at s", []int64{5, 5, 9}, model.None(), -1},
		{"tie at s, ack", []int64{0, 0}, model.Ack(), -1},
		{"single station", []int64{7}, model.None(), 7},
		{"w2 = s+1", []int64{3, 4}, model.None(), 3},
		{"w2 = s+q", []int64{10, 13}, model.Jam(3), -1},
		{"w2 = s+q+1", []int64{10, 14}, model.Jam(3), 13},
		{"w2 = s+q, q = 0", []int64{10, 10}, model.Jam(0), -1},
		{"jam past the horizon", []int64{0}, model.Jam(1 << 40), -1},
		{"wake at 63", []int64{63, 64}, model.None(), 63},
		{"wake at 64", []int64{65, 64}, model.Jam(0), 64},
		{"wake at 65", []int64{65, 130}, model.Jam(64), 129},
		{"wakes at 63/64/65", []int64{63, 64, 65}, model.Jam(1), -1},
		{"wakes at 63/65", []int64{63, 65}, model.Jam(1), 64},
	}
	algo := core.NewTreeCD()
	p := model.Params{N: 8, S: -1}
	for _, c := range cases {
		w := model.WakePattern{IDs: []int{2, 5, 7}[:len(c.wakes)], Wakes: c.wakes}
		opt := sim.Options{Horizon: 200, Seed: 1, Channel: c.ch, Adaptive: true}
		eng := sim.NewEngine()
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		got, err := kernel.Run(algo, p, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := eng.Run(); got != want {
			t.Fatalf("%s: kernel %#v != engine %#v", c.name, got, want)
		}
		if got.SuccessSlot != c.succ {
			t.Fatalf("%s: success slot %d, want %d (%#v)", c.name, got.SuccessSlot, c.succ, got)
		}
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

// TestKernelEligibility pins the gate: only an adaptive run of a persistent
// algorithm on a collision-silent channel with a kernel-executable
// perturbation (if any) reaches the kernel, and Run refuses the rest with
// the ineligibility error.
func TestKernelEligibility(t *testing.T) {
	epoch := core.NewTreeCD()
	adaptive := sim.Options{Horizon: 10, Adaptive: true}

	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); !kernel.Eligible(epoch, opt) {
			t.Errorf("adaptive run of TreeCD (Persistent) on collision-silent %s must route to the kernel", ch.Name())
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
		t.Error("kg is not persistent; its adaptive runs must stay on the engine")
	}

	// Run must reject an ineligible pairing with the kernel's ineligibility
	// error: TreeCD without Options.Adaptive, and every oblivious schedule —
	// seed-insensitive and seed-sensitive alike, with or without
	// Options.Adaptive — on every channel.
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	refused(t, epoch, p, w, sim.Options{Horizon: 10})
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
				refused(t, algo, p, w, opt)
			}
		}
	}
	// And it must validate inputs identically to the engine.
	bad := sim.Options{Horizon: 0, Adaptive: true}
	_, err := kernel.Run(epoch, p, w, bad)
	if want := sim.ValidateRun(epoch, p, w, bad); err == nil || err.Error() != want.Error() {
		t.Errorf("kernel.Run with a zero horizon = %v, want the engine's %v", err, want)
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
				t.Fatalf("%s seed %d: engine none %#v, nil %#v", c.name, seed, got, want)
			}
			for _, opt := range []sim.Options{nilOpt, noneOpt} {
				if !c.routed {
					refused(t, c.algo, p, w, opt)
					continue
				}
				got, err := kernel.Run(c.algo, p, w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s seed %d channel %v: kernel %#v, engine %#v", c.name, seed, opt.Channel, got, want)
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
// algorithm × every perturbed channel shape, random workloads, with the
// engine warm. For the epoch entry the comparison is full model.Result
// equality — termination, Slots, winner, and the energy counters all fold
// the perturbation in. Oblivious entries must be refused on perturbing
// channels too.
func TestKernelPerturbedMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		for _, ch := range perturbedChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xbadc0de, nameStream(entry.name+ch.Name())))
				eng := sim.NewEngine()
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
					differential(t, round, eng, entry, p, w, opt)
				}
			})
		}
	}
}

// TestKernelPerturbedMidRun cuts the horizon at arbitrary slots under noisy
// and jam channels: the noise consumes channel randomness per executed slot,
// so any cut mismatch (a draw taken for a slot the engine never ran, or
// skipped for one it did) desynchronizes the stream and shows up here.
func TestKernelPerturbedMidRun(t *testing.T) {
	for _, ch := range []model.ChannelModel{model.Noisy(0.2), model.Jam(3)} {
		t.Run(ch.Name(), func(t *testing.T) {
			src := rng.New(rng.Derive(0x517ead, nameStream(ch.Name())))
			eng := sim.NewEngine()
			for round := 0; round < 25; round++ {
				algo, p, w, horizon := midRunWorkload(src, round)
				opt := sim.Options{Horizon: horizon, Seed: p.Seed, Channel: ch, Adaptive: true}
				if err := eng.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				cutParity(t, round, src, eng, algo, p, w, opt, w.FirstWake())
			}
		})
	}
}

// TestKernelPathAllocsNoWorseThanEngine: a kernel trial allocates nothing,
// on every channel it serves.
func TestKernelPathAllocsNoWorseThanEngine(t *testing.T) {
	algo := core.NewTreeCD()
	p := model.Params{N: 32, S: -1}
	w := model.WakePattern{IDs: []int{5, 9, 23}, Wakes: []int64{0, 1, 4}}
	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.3), model.Jam(2)} {
		opt := sim.Options{Horizon: core.TreeCD{}.Horizon(32, 3), Seed: 3, Channel: ch, Adaptive: true}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := kernel.Run(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a kernel trial allocates %.1f times, want 0", ch.Name(), allocs)
		}
	}
}
