package kernel_test

import (
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
// these tests do not depend on internal/sweep. epoch marks the one entry
// sim.Engine.Run finishes in closed form: tree_cd, as an adaptive run on a
// collision-silent channel. Every oblivious entry is stepped slot by slot.
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
	ids := rng.New(rng.Derive(seed, 2)).Sample(nil, n, k)
	wakes := make([]int64, k)
	wsrc := rng.New(rng.Derive(seed, 3))
	for i := range wakes {
		wakes[i] = wsrc.Int63n(spread)
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

// cutMatches requires a closed-form trial — Engine.Run on cf, Reset on the
// workload with the horizon that ends at global slot u (capped at
// opt.Horizon) — to leave cf's channel unstepped and to return the Result
// ref, Reset on the same workload with opt, holds after RunTo(u).
func cutMatches(t *testing.T, round int, ref, cf *sim.Engine, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options, u int64) {
	t.Helper()
	ref.RunTo(u)
	cut := opt
	cut.Horizon = min(u-w.FirstWake(), opt.Horizon)
	if err := cf.Reset(algo, p, w, cut); err != nil {
		t.Fatalf("round %d: closed-form reset: %v", round, err)
	}
	got := cf.Run()
	if slots := cf.Channel().Slots(); slots != 0 {
		t.Fatalf("round %d: Run stepped the channel %d slots, want the closed form", round, slots)
	}
	if want := ref.Result(); got != want {
		t.Fatalf("round %d (n=%d k=%d seed=%#x) cut at slot %d:\nclosed form %#v\nstepped     %#v",
			round, p.N, w.K(), opt.Seed, u, got, want)
	}
}

// stepped requires the closed form to refuse a pairing — sim.ClosedForm
// and kernel.Class agree — and Engine.Run on eng to step it: the channel
// resolves every slot the Result counts.
func stepped(t *testing.T, eng *sim.Engine, algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	if _, ok := kernel.Class(algo, opt); ok || sim.ClosedForm(algo, opt) {
		t.Fatalf("ClosedForm(%s, %v, adaptive=%v) admits it, want it stepped", algo.Name(), opt.Channel, opt.Adaptive)
	}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if res := eng.Run(); eng.Channel().Slots() != res.Slots {
		t.Fatalf("%s: Run stepped %d of %d slots", algo.Name(), eng.Channel().Slots(), res.Slots)
	}
}

// differential runs one workload of a roster entry. An oblivious pairing
// must be stepped; the epoch entry's closed-form Result must equal, in
// every field, the one a second engine reaches by stepping the trial.
func differential(t *testing.T, round int, ref, cf *sim.Engine, entry rosterEntry,
	p model.Params, w model.WakePattern, opt sim.Options) {
	t.Helper()
	opt.Adaptive = entry.epoch
	algo := entry.algo(p.N, w.K())
	if !entry.epoch {
		stepped(t, ref, algo, p, w, opt)
		return
	}
	if err := ref.Reset(algo, p, w, opt); err != nil {
		t.Fatalf("round %d: engine reset: %v", round, err)
	}
	cutMatches(t, round, ref, cf, algo, p, w, opt, math.MaxInt64)
}

// TestKernelMatchesEngine is the core differential over the whole roster on
// the default channel: random workloads of the epoch entry must finish in
// closed form with a model.Result identical in every field to the stepped
// one, with both engines warm across trials, and every oblivious entry must
// be stepped.
func TestKernelMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		t.Run(entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0xd1ff, nameStream(entry.name)))
			ref, cf := sim.NewEngine(), sim.NewEngine()
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
				differential(t, round, ref, cf, entry, p, w, opt)
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

// cutParity steps ref, Reset on the workload, to random RunTo bounds from u
// until it is done, requiring the closed form at each bound's horizon to
// match it (see cutMatches), and returns the last bound. Short steps mix
// with long ones.
func cutParity(t *testing.T, round int, src *rng.Source, ref, cf *sim.Engine, algo model.Algorithm,
	p model.Params, w model.WakePattern, opt sim.Options, u int64) int64 {
	t.Helper()
	for !ref.Done() {
		u += 1 + int64(src.Intn(1+src.Intn(300)))
		cutMatches(t, round, ref, cf, algo, p, w, opt, u)
	}
	return u
}

// TestKernelMidRunMatchesEngine locks the cut horizons: the closed form with
// the horizon ending at u must return the stepped engine's Result after
// RunTo(u) for arbitrary u, including u past the horizon.
func TestKernelMidRunMatchesEngine(t *testing.T) {
	src := rng.New(0xa1d)
	ref, cf := sim.NewEngine(), sim.NewEngine()
	for round := 0; round < 40; round++ {
		algo, p, w, horizon := midRunWorkload(src, round)
		opt := sim.Options{Horizon: horizon, Seed: p.Seed, Adaptive: true}
		if err := ref.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		u := cutParity(t, round, src, ref, cf, algo, p, w, opt, w.FirstWake())
		cutMatches(t, round, ref, cf, algo, p, w, opt, u+100)
	}
}

// TestKernelStepMatchesEngine cuts the horizon at every slot on the default
// channel: two tree_cd stations that wake together collide in every slot,
// and a third joins mid-way, until the horizon ends the trial.
func TestKernelStepMatchesEngine(t *testing.T) {
	ref, cf := sim.NewEngine(), sim.NewEngine()
	algo := core.NewTreeCD()
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3, 5, 7}, Wakes: []int64{1, 1, 70}}
	opt := sim.Options{Horizon: 100, Seed: 1, Adaptive: true}
	if err := ref.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	for u := int64(2); u < 112; u++ {
		cutMatches(t, int(u), ref, cf, algo, p, w, opt, u)
	}
}

// TestKernelWordBoundaries pins the closed form's edges, each against the
// stepped engine and against its expected success slot: a tie at the first
// wake empties the solo window; a jam budget of q jams a window of exactly
// q slots and lets the (q+1)-th succeed; and first wakes at 63, 64 and 65,
// the word edges of an earlier word-scan executor, change nothing.
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
	ref, cf := sim.NewEngine(), sim.NewEngine()
	for i, c := range cases {
		w := model.WakePattern{IDs: []int{2, 5, 7}[:len(c.wakes)], Wakes: c.wakes}
		opt := sim.Options{Horizon: 200, Seed: 1, Channel: c.ch, Adaptive: true}
		if err := ref.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		cutMatches(t, i, ref, cf, algo, p, w, opt, math.MaxInt64)
		if got := cf.Result(); got.SuccessSlot != c.succ {
			t.Fatalf("%s: success slot %d, want %d (%#v)", c.name, got.SuccessSlot, c.succ, got)
		}
	}
}

// opaquePerturber perturbs slots but does not declare a replayable shape
// (no PerturbSpec) — the closed form must refuse it.
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

// TestKernelEligibility pins sim.ClosedForm: only an adaptive run of a
// persistent algorithm on a collision-silent channel with a replayable
// perturbation (if any) finishes in closed form, and Engine.Run steps the
// rest.
func TestKernelEligibility(t *testing.T) {
	epoch := core.NewTreeCD()
	adaptive := sim.Options{Horizon: 10, Adaptive: true}

	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); !sim.ClosedForm(epoch, opt) {
			t.Errorf("adaptive run of TreeCD (Persistent) on collision-silent %s must finish in closed form", ch.Name())
		}
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD()} {
		if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: ch}); sim.ClosedForm(epoch, opt) {
			t.Errorf("adaptive run of TreeCD on %s delivers collisions; it must be stepped", ch.Name())
		}
	}
	// A perturbing model that does NOT advertise a replayable shape must be
	// stepped.
	if opt := (sim.Options{Horizon: 10, Adaptive: true, Channel: opaquePerturber{}}); sim.ClosedForm(epoch, opt) {
		t.Error("a SlotPerturber without model.ReplayablePerturber must be stepped")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true, RecordTrace: true}); sim.ClosedForm(epoch, opt) {
		t.Error("trace recording must be stepped (the closed form keeps no transcript)")
	}
	if sim.ClosedForm(core.NewKGConflictResolution(), adaptive) {
		t.Error("kg is not persistent; its adaptive runs must be stepped")
	}

	// TreeCD without Options.Adaptive builds no stations at all (its Build
	// panics), so the closed form must refuse it.
	if _, ok := kernel.Class(epoch, sim.Options{Horizon: 10}); ok || sim.ClosedForm(epoch, sim.Options{Horizon: 10}) {
		t.Error("a non-adaptive TreeCD run must be refused")
	}

	// Engine.Run must step every oblivious schedule — seed-insensitive and
	// seed-sensitive alike, with or without Options.Adaptive — on every
	// channel.
	// The one station wakes at the start time they all know, which
	// wakeup_with_s needs.
	p := model.Params{N: 4, S: 0}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	eng := sim.NewEngine()
	oblivious := []model.Algorithm{
		core.NewRoundRobin(), core.NewLocalSSF(), core.NewRPD(), core.NewBEB(), core.NewWakeupC(),
		core.NewWakeupWithS(), schedule.NewInterleaved("rr+rr", core.NewRoundRobin(), core.NewRoundRobin()),
	}
	for _, algo := range oblivious {
		for _, ch := range []model.ChannelModel{model.None(), model.CD(), model.SenderCD(), model.Ack(), model.Noisy(0.1), model.Jam(2)} {
			for _, ad := range []bool{false, true} {
				stepped(t, eng, algo, p, w, sim.Options{Horizon: 10, Channel: ch, Adaptive: ad})
			}
		}
	}
	// And Reset must validate a closed-form pairing as it does every other.
	if err := eng.Reset(epoch, p, w, sim.Options{Horizon: 0, Adaptive: true}); err == nil {
		t.Error("Reset accepted a zero horizon on a closed-form pairing")
	}
}

// TestNilChannelMatchesNone: a nil Options.Channel is model.None in the
// closed form too. ClosedForm and Class route both spellings the same way,
// and where the closed form runs, its Result equals the stepped one under
// either spelling.
func TestNilChannelMatchesNone(t *testing.T) {
	const n, k = 48, 5
	cases := []struct {
		name     string
		algo     model.Algorithm
		p        model.Params
		horizon  int64
		adaptive bool
		routed   bool // Engine.Run finishes the pairing in closed form
	}{
		{"roundrobin", core.NewRoundRobin(), model.Params{N: n, S: -1}, core.RoundRobin{}.Horizon(n, k), false, false},
		{"localssf", core.NewLocalSSF(), model.Params{N: n, K: k, S: -1}, (&core.LocalSSF{}).Horizon(n, k), false, false},
		{"wakeupc", core.NewWakeupC(), model.Params{N: n, S: -1}, (&core.WakeupC{}).Horizon(n, k), false, false},
		{"tree_cd", core.NewTreeCD(), model.Params{N: n, S: -1}, core.TreeCD{}.Horizon(n, k), true, true},
	}
	ref, cf := sim.NewEngine(), sim.NewEngine()
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
			if err := ref.Reset(c.algo, p, w, nilOpt); err != nil {
				t.Fatal(err)
			}
			ref.RunTo(math.MaxInt64)
			want := ref.Result()
			if err := ref.Reset(c.algo, p, w, noneOpt); err != nil {
				t.Fatal(err)
			}
			ref.RunTo(math.MaxInt64)
			if got := ref.Result(); got != want {
				t.Fatalf("%s seed %d: stepped none %#v, nil %#v", c.name, seed, got, want)
			}
			for _, opt := range []sim.Options{nilOpt, noneOpt} {
				if !c.routed {
					stepped(t, cf, c.algo, p, w, opt)
					continue
				}
				if err := ref.Reset(c.algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				cutMatches(t, int(seed), ref, cf, c.algo, p, w, opt, math.MaxInt64)
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
// engines warm. For the epoch entry the comparison is full model.Result
// equality — termination, Slots, winner, and the energy counters all fold
// the perturbation in. Oblivious entries must be stepped on perturbing
// channels too.
func TestKernelPerturbedMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		for _, ch := range perturbedChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xbadc0de, nameStream(entry.name+ch.Name())))
				ref, cf := sim.NewEngine(), sim.NewEngine()
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
					differential(t, round, ref, cf, entry, p, w, opt)
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
			ref, cf := sim.NewEngine(), sim.NewEngine()
			for round := 0; round < 25; round++ {
				algo, p, w, horizon := midRunWorkload(src, round)
				opt := sim.Options{Horizon: horizon, Seed: p.Seed, Channel: ch, Adaptive: true}
				if err := ref.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				cutParity(t, round, src, ref, cf, algo, p, w, opt, w.FirstWake())
			}
		})
	}
}

// TestKernelPathAllocsNoWorseThanEngine: a warm engine's Reset and Run of a
// closed-form trial allocate nothing, on every channel the closed form
// serves.
func TestKernelPathAllocsNoWorseThanEngine(t *testing.T) {
	algo := core.NewTreeCD()
	p := model.Params{N: 32, S: -1}
	w := model.WakePattern{IDs: []int{5, 9, 23}, Wakes: []int64{0, 1, 4}}
	eng := sim.NewEngine()
	for _, ch := range []model.ChannelModel{model.None(), model.Ack(), model.Noisy(0.3), model.Jam(2)} {
		opt := sim.Options{Horizon: core.TreeCD{}.Horizon(32, 3), Seed: 3, Channel: ch, Adaptive: true}
		allocs := testing.AllocsPerRun(100, func() {
			if err := eng.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		})
		if eng.Channel().Slots() != 0 {
			t.Errorf("%s: Run stepped the trial, want the closed form", ch.Name())
		}
		if allocs != 0 {
			t.Errorf("%s: a warm closed-form trial allocates %.1f times, want 0", ch.Name(), allocs)
		}
	}
}
