package core

import (
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
	"nsmac/internal/sim"
)

// mustRun executes a simulation that is expected to succeed and fails the
// test loudly otherwise.
func mustRun(t *testing.T, algo model.Algorithm, p model.Params, w model.WakePattern, horizon int64) model.Result {
	t.Helper()
	res, _, err := sim.Run(algo, p, w, sim.Options{Horizon: horizon, Seed: p.Seed})
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	if !res.Succeeded {
		t.Fatalf("%s failed to wake up within %d slots (n=%d pattern=%v/%v)",
			algo.Name(), horizon, p.N, w.IDs, w.Wakes)
	}
	return res
}

// wakePatterns generates a battery of adversarial wake patterns for (n, k):
// simultaneous at various offsets, staggered, and random-window, all
// seeded.
func wakePatterns(n, k int, seed uint64) []model.WakePattern {
	src := rng.New(seed)
	var pats []model.WakePattern

	// Simultaneous at s = 0 and at an awkward offset.
	pats = append(pats, model.Simultaneous(src.Sample(nil, n, k), 0))
	pats = append(pats, model.Simultaneous(src.Sample(nil, n, k), 13))

	// Staggered: one new station every gap slots.
	for _, gap := range []int64{1, 7} {
		ids := src.Sample(nil, n, k)
		wakes := make([]int64, k)
		for i := range wakes {
			wakes[i] = 5 + int64(i)*gap
		}
		pats = append(pats, model.WakePattern{IDs: ids, Wakes: wakes})
	}

	// Random window of width ~4k.
	ids := src.Sample(nil, n, k)
	wakes := make([]int64, k)
	for i := range wakes {
		wakes[i] = src.Int63n(int64(4*k) + 1)
	}
	pats = append(pats, model.WakePattern{IDs: ids, Wakes: wakes})

	return pats
}

func TestRoundRobinNeverCollides(t *testing.T) {
	p := model.Params{N: 32, S: -1, Seed: 1}
	for _, w := range wakePatterns(32, 8, 2) {
		res := mustRun(t, NewRoundRobin(), p, w, NewRoundRobin().Horizon(32, 8))
		if res.Collisions != 0 {
			t.Errorf("round-robin collided %d times on %v", res.Collisions, w.IDs)
		}
	}
}

func TestRoundRobinWithinN(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 255} {
		for _, k := range []int{1, n/2 + 1, n} {
			if k < 1 || k > n {
				continue
			}
			p := model.Params{N: n, S: -1, Seed: 3}
			w := model.Simultaneous(rng.New(uint64(n*k)).Sample(nil, n, k), 0)
			res := mustRun(t, NewRoundRobin(), p, w, NewRoundRobin().Horizon(n, k))
			if res.Rounds >= int64(n) {
				t.Errorf("n=%d k=%d: round-robin took %d rounds, want < n", n, k, res.Rounds)
			}
		}
	}
}

func TestRoundRobinWinnerIsAligned(t *testing.T) {
	p := model.Params{N: 16, S: -1}
	w := model.Simultaneous([]int{4, 9, 14}, 6)
	res := mustRun(t, NewRoundRobin(), p, w, 20)
	// First awake station whose residue comes up at t >= 6: slots for 4, 9,
	// 14 are 3, 8, 13 (mod 16); first >= 6 is 8 -> station 9.
	if res.Winner != 9 || res.SuccessSlot != 8 {
		t.Errorf("winner %d at %d, want 9 at 8", res.Winner, res.SuccessSlot)
	}
}

func TestWakeupWithSAllSimultaneous(t *testing.T) {
	// Scenario A: stations woken exactly at the known s.
	for _, n := range []int{16, 64, 256} {
		for _, k := range []int{1, 2, 5, n / 4} {
			if k < 1 {
				continue
			}
			s := int64(11)
			p := model.Params{N: n, S: s, Seed: 42}
			w := model.Simultaneous(rng.New(uint64(n+k)).Sample(nil, n, k), s)
			mustRun(t, NewWakeupWithS(), p, w, WakeupWithSHorizon(n, k))
		}
	}
}

func TestWakeupWithSLateJoinersDoNotBreakIt(t *testing.T) {
	// Stations waking after s stay out of the selective component but the
	// interleaved round-robin still guarantees success; the known-s batch
	// must still be selected quickly.
	n, k := 128, 6
	s := int64(4)
	p := model.Params{N: n, S: s, Seed: 7}
	ids := rng.New(50).Sample(nil, n, k)
	wakes := make([]int64, k)
	wakes[0] = s // at least one station defines s
	for i := 1; i < k; i++ {
		wakes[i] = s + int64(i*3)
	}
	w := model.WakePattern{IDs: ids, Wakes: wakes}
	mustRun(t, NewWakeupWithS(), p, w, WakeupWithSHorizon(n, k))
}

func TestSelectAmongFirstSilentUnlessWokenAtS(t *testing.T) {
	p := model.Params{N: 32, S: 5, Seed: 1}
	a := NewSelectAmongFirst()
	f := a.Build(p, 3, 9, nil) // woken after s
	for tt := int64(9); tt < 200; tt++ {
		if f(tt) {
			t.Fatal("station woken after s transmitted in select_among_the_first")
		}
	}
}

func TestSelectAmongFirstRequiresKnownS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic without known s")
		}
	}()
	NewSelectAmongFirst().Build(model.Params{N: 8, S: -1}, 1, 0, nil)
}

func TestWakeupWithKStaggered(t *testing.T) {
	// Scenario B: k known, stations wake adversarially.
	for _, n := range []int{16, 64, 256} {
		for _, k := range []int{1, 2, 4, 8} {
			if k > n {
				continue
			}
			p := model.Params{N: n, K: k, S: -1, Seed: 99}
			for _, w := range wakePatterns(n, k, uint64(n*31+k)) {
				mustRun(t, NewWakeupWithK(), p, w, WakeupWithKHorizon(n, k))
			}
		}
	}
}

func TestWaitAndGoRequiresKnownK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic without known k")
		}
	}()
	NewWaitAndGo().Build(model.Params{N: 8, S: -1}, 1, 0, nil)
}

func TestWaitAndGoWaitsForBoundary(t *testing.T) {
	p := model.Params{N: 64, K: 4, S: -1, Seed: 5}
	a := NewWaitAndGo()
	lad := selectors.RandomLadder(a.ladder(p))
	// A station woken mid-family must stay silent until the next boundary.
	wake := int64(3) // inside family 1 for any non-trivial length
	f := a.Build(p, 7, wake, nil)
	sigma := lad.NextBoundary(wake)
	for tt := wake; tt < sigma; tt++ {
		if f(tt) {
			t.Fatalf("wait_and_go transmitted at %d before boundary %d", tt, sigma)
		}
	}
}

func TestWaitAndGoStandalone(t *testing.T) {
	// The component alone (no round-robin) must also succeed within its
	// own horizon for small k.
	n, k := 64, 4
	p := model.Params{N: n, K: k, S: -1, Seed: 21}
	a := NewWaitAndGo()
	for _, w := range wakePatterns(n, k, 77) {
		mustRun(t, a, p, w, a.Horizon(n, k))
	}
}

func TestWakeupCScenarios(t *testing.T) {
	// Scenario C: nothing known; the main theorem.
	for _, n := range []int{4, 16, 64, 256} {
		for _, k := range []int{1, 2, 4, 8} {
			if k > n {
				continue
			}
			a := NewWakeupC()
			p := model.Params{N: n, S: -1, Seed: 1234}
			for pi, w := range wakePatterns(n, k, uint64(n*17+k)) {
				res := mustRun(t, a, p, w, a.Horizon(n, k))
				if res.Rounds > a.Horizon(n, k) {
					t.Errorf("n=%d k=%d pattern %d: rounds %d beyond horizon", n, k, pi, res.Rounds)
				}
			}
		}
	}
}

func TestWakeupCSingleStation(t *testing.T) {
	// k = 1 must still work: the lone station is isolated as soon as it
	// hits any set it belongs to.
	a := NewWakeupC()
	p := model.Params{N: 128, S: -1, Seed: 8}
	w := model.WakePattern{IDs: []int{77}, Wakes: []int64{29}}
	mustRun(t, a, p, w, a.Horizon(128, 1))
}

func TestWakeupCN1(t *testing.T) {
	a := NewWakeupC()
	p := model.Params{N: 1, S: -1, Seed: 8}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	mustRun(t, a, p, w, a.Horizon(1, 1))
}

func TestWakeupCWindowWait(t *testing.T) {
	// Stations woken inside a window stay silent until µ(σ).
	a := NewWakeupC()
	p := model.Params{N: 4096, S: -1, Seed: 3}
	spec := a.Spec(p)
	if spec.Window < 2 {
		t.Skip("window too small to observe waiting")
	}
	wake := int64(1) // strictly inside the first window
	f := a.Build(p, 9, wake, nil)
	for tt := wake; tt < spec.Mu(wake); tt++ {
		if f(tt) {
			t.Fatalf("wakeup(n) transmitted at %d before µ(σ)=%d", tt, spec.Mu(wake))
		}
	}
}

func TestWakeupCMatrixSharedAcrossStations(t *testing.T) {
	// All stations must derive the same matrix from params: two stations
	// in the same row/slot must agree on membership of a third.
	a := NewWakeupC()
	p := model.Params{N: 64, S: -1, Seed: 10}
	s1 := a.Spec(p)
	s2 := a.Spec(p)
	if s1.Seed != s2.Seed || s1.Length() != s2.Length() {
		t.Fatal("Spec not deterministic across stations")
	}
}

func TestRPDExpectedLatency(t *testing.T) {
	// Expected wake-up should be tens of slots for n = 1024, not hundreds:
	// measure the mean over trials and compare with a generous multiple of
	// log n.
	n, k := 1024, 8
	a := NewRPD()
	p := model.Params{N: n, S: -1}
	var total int64
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		seed := rng.Derive(500, uint64(trial))
		p.Seed = seed
		w := model.Simultaneous(rng.New(seed).Sample(nil, n, k), 0)
		res, _, err := sim.Run(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Succeeded {
			t.Fatalf("rpd failed on trial %d", trial)
		}
		total += res.Rounds
	}
	mean := float64(total) / trials
	logN := 10.0
	if mean > 40*logN {
		t.Errorf("rpd mean rounds %.1f way beyond O(log n)=%v", mean, logN)
	}
}

func TestRPDWithKRequiresK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRPDWithK().Build(model.Params{N: 8, S: -1}, 1, 0, rng.New(1))
}

func TestRPDEll(t *testing.T) {
	if got := NewRPD().Ell(model.Params{N: 1024}); got != 20 {
		t.Errorf("Ell(n=1024) = %d, want 20", got)
	}
	if got := NewRPDWithK().Ell(model.Params{N: 1024, K: 16}); got != 8 {
		t.Errorf("Ell(k=16) = %d, want 8", got)
	}
	// Tiny n guard.
	if got := NewRPD().Ell(model.Params{N: 1}); got != 2 {
		t.Errorf("Ell(n=1) = %d, want 2", got)
	}
}

func TestRPDDeterministicGivenSeeds(t *testing.T) {
	p := model.Params{N: 64, S: -1, Seed: 77}
	a := NewRPD()
	src1 := rng.New(5)
	src2 := rng.New(5)
	f1 := a.Build(p, 3, 10, src1)
	f2 := a.Build(p, 3, 10, src2)
	for tt := int64(10); tt < 500; tt++ {
		if f1(tt) != f2(tt) {
			t.Fatal("rpd schedule not reproducible from seed")
		}
	}
}

func TestLocalSSFSmall(t *testing.T) {
	// Heuristic baseline: must succeed on benign workloads.
	n, k := 64, 4
	a := NewLocalSSF()
	p := model.Params{N: n, K: k, S: -1, Seed: 31}
	for _, w := range wakePatterns(n, k, 3)[:3] {
		mustRun(t, a, p, w, a.Horizon(n, k))
	}
}

func TestTreeCDResolvesSimultaneousStart(t *testing.T) {
	n := 64
	for _, k := range []int{1, 2, 5, 16} {
		a := NewTreeCD()
		p := model.Params{N: n, S: -1, Seed: 9}
		w := model.Simultaneous(rng.New(uint64(k)).Sample(nil, n, k), 0)
		res, _, err := sim.Run(a, p, w, sim.Options{
			Horizon: a.Horizon(n, k), Adaptive: true,
			Channel: model.CD(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Succeeded {
			t.Fatalf("tree_cd failed for k=%d", k)
		}
		if res.Rounds > a.Horizon(n, k) {
			t.Errorf("k=%d: %d rounds", k, res.Rounds)
		}
	}
}

func TestTreeCDEnumeratesAll(t *testing.T) {
	n, k := 32, 6
	a := NewTreeCD()
	p := model.Params{N: n, S: -1}
	ids := rng.New(4).Sample(nil, n, k)
	w := model.Simultaneous(ids, 0)
	all, err := sim.NewEngine().RunAll(a, p, w, sim.Options{
		Horizon: 4 * a.Horizon(n, k), Channel: model.CD(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Succeeded {
		t.Fatalf("tree_cd RunAll failed: %+v", all)
	}
	for _, id := range ids {
		if _, ok := all.FirstSuccess[id]; !ok {
			t.Errorf("station %d never succeeded", id)
		}
	}
}

func TestTreeCDBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTreeCD().Build(model.Params{N: 4}, 1, 0, nil)
}

func TestTreeCDWithoutCDFails(t *testing.T) {
	// Without collision detection the tree splits on wrong information and
	// k >= 2 stations may never resolve; at minimum the guarantee is gone.
	// We only require that the no-CD run differs from the CD run's success
	// slot or fails — the deterministic outcome for this fixed workload is
	// failure (both stations always share intervals on the path).
	n := 16
	a := NewTreeCD()
	p := model.Params{N: n, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := sim.Run(a, p, w, sim.Options{
		Horizon: a.Horizon(n, 2), Adaptive: true,
		Channel: model.None(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Log("no-CD tree run unexpectedly succeeded; acceptable only if split still separated the pair")
	}
}

func TestKGConflictResolutionAllSucceed(t *testing.T) {
	n := 64
	for _, k := range []int{1, 3, 8} {
		a := NewKGConflictResolution()
		p := model.Params{N: n, K: k, S: -1, Seed: 17}
		ids := rng.New(uint64(100+k)).Sample(nil, n, k)
		w := model.Simultaneous(ids, 0)
		all, err := sim.NewEngine().RunAll(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if !all.Succeeded {
			t.Fatalf("kg failed for k=%d: %+v", k, all)
		}
		if len(all.FirstSuccess) != k {
			t.Errorf("k=%d: %d stations succeeded", k, len(all.FirstSuccess))
		}
	}
}

func TestKGStaggeredWakes(t *testing.T) {
	n, k := 64, 5
	a := NewKGConflictResolution()
	p := model.Params{N: n, K: k, S: -1, Seed: 23}
	ids := rng.New(8).Sample(nil, n, k)
	wakes := make([]int64, k)
	for i := range wakes {
		wakes[i] = int64(i * 9)
	}
	w := model.WakePattern{IDs: ids, Wakes: wakes}
	all, err := sim.NewEngine().RunAll(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Succeeded {
		t.Fatalf("kg failed under staggered wakes: %+v", all)
	}
}

// TestKGFleetLadderMatchesRandomLadder: the ladder a kg fleet owns and
// re-keys is RandomLadder's for the same key, whether the fleet is fresh or
// re-keyed from a run of another key, so its stations transmit as
// RandomLadder's membership says; and a warm re-key allocates nothing.
func TestKGFleetLadderMatchesRandomLadder(t *testing.T) {
	var prev model.Fleet
	for _, tc := range []struct {
		a *KGConflictResolution
		p model.Params
	}{
		{NewKGConflictResolution(), model.Params{N: 64, K: 8, S: -1, Seed: 1}},
		{NewKGConflictResolution(), model.Params{N: 64, K: 8, S: -1, Seed: 2}},
		{NewKGConflictResolution(), model.Params{N: 256, S: -1, Seed: 3}},
		{&KGConflictResolution{SizeMult: 0.5}, model.Params{N: 256, K: 4, S: -1, Seed: 3}},
		{NewKGConflictResolution(), model.Params{N: 17, K: 16, S: -1, Seed: 4}},
	} {
		f := tc.a.Fleet(tc.p, prev)
		if prev != nil && f != prev {
			t.Errorf("%+v: Fleet did not reuse the previous run's fleet", tc.p)
		}
		prev = f
		got, want := &f.(*kgFleet).lad, selectors.RandomLadder(tc.a.ladder(tc.p))
		if got.Length() != want.Length() || got.NumFamilies() != want.NumFamilies() {
			t.Fatalf("%+v: ladder length %d over %d families, want %d over %d",
				tc.p, got.Length(), got.NumFamilies(), want.Length(), want.NumFamilies())
		}
		for j := int64(0); j < want.Length(); j++ {
			for id := 1; id <= tc.p.N; id++ {
				if got.Member(j, id) != want.Member(j, id) {
					t.Fatalf("%+v: Member(%d, %d) = %v, want %v", tc.p, j, id, got.Member(j, id), want.Member(j, id))
				}
			}
		}
		const id = 5
		f.Join(id, 0, nil)
		for slot := int64(0); slot < 4*want.Length(); slot++ {
			member := want.MemberCyclic((slot-1)/2, id)
			if slot%2 == 0 {
				member = (slot/2)%int64(tc.p.N) == id-1
			}
			if tx := f.Transmitters(slot, nil); len(tx) == 1 != member {
				t.Fatalf("%+v: slot %d: fleet transmitters %v, RandomLadder's membership %v", tc.p, slot, tx, member)
			}
		}
	}
	a, p := NewKGConflictResolution(), model.Params{N: 256, K: 16, S: -1}
	f := a.Fleet(p, nil)
	if allocs := testing.AllocsPerRun(20, func() { p.Seed++; a.Fleet(p, f) }); allocs != 0 {
		t.Errorf("a warm Fleet call allocates %v times, want 0", allocs)
	}
}

// TestKGFleetMatchesStations drives a kg fleet and per-station references
// through the slots their transmitters make — a slot with one transmitter
// succeeds — on every feedback regime. A reference station transmits as
// RandomLadder's membership says until it hears its own success, which it
// hears as the channel delivers to its role (under ack only the winner
// hears it); the fleet must name the references' transmitters at every
// slot.
func TestKGFleetMatchesStations(t *testing.T) {
	a := NewKGConflictResolution()
	var f model.Fleet
	for round := 0; round < 40; round++ {
		ch := []model.ChannelModel{model.None(), model.CD(), model.SenderCD(), model.Ack()}[round%4]
		n, k := 16+round, 2+round%7
		p := model.Params{N: n, K: k, S: -1, Seed: uint64(round)}
		lad := selectors.RandomLadder(a.ladder(p))
		ids := rng.New(uint64(round)).Sample(nil, n, k)
		retired := make([]bool, k)
		f = a.Fleet(p, f)
		for _, id := range ids {
			f.Join(id, 0, nil)
		}
		for slot := int64(0); slot < 4*int64(n); slot++ {
			var want []int
			for i, id := range ids {
				member := lad.MemberCyclic((slot-1)/2, id)
				if slot%2 == 0 {
					member = (slot/2)%int64(n) == int64(id-1)
				}
				if !retired[i] && member {
					want = append(want, id)
				}
			}
			if got := f.Transmitters(slot, nil); !slices.Equal(got, want) {
				t.Fatalf("round %d (%s, n=%d): slot %d transmitters %v, references %v", round, ch.Name(), n, slot, got, want)
			}
			truth, winner := model.Collision, 0
			switch len(want) {
			case 0:
				truth = model.Silence
			case 1:
				truth, winner = model.Success, want[0]
			}
			for i, id := range ids {
				sent := slices.Contains(want, id)
				if ch.Deliver(truth, sent, sent && id == winner) == model.Success && id == winner {
					retired[i] = true
				}
			}
			f.Observe(slot, model.Deliver(ch, truth, winner))
		}
	}
}

// TestFleetJoinAtMatchesReplay: a station a fleet takes by JoinAt after a
// slot's transmitters is where a replay of the final pattern joins it, and
// in the same state. For tree_cd and kg, a fleet that injects station x at
// slot t — ahead of the stations woken at t with larger IDs, as the engine
// places it — and a fleet that joins x at its wake in ID order must name
// the same transmitters, in the same order, at every slot, under the same
// feedback.
func TestFleetJoinAtMatchesReplay(t *testing.T) {
	src := rng.New(0x1a7)
	for round := 0; round < 300; round++ {
		n := 4 + src.Intn(200)
		k := 2 + src.Intn(min(n-2, 11))
		ids := src.Sample(nil, n, k+1)
		// Sample's IDs increase; x, the last, is any of them.
		j := src.Intn(k + 1)
		ids[j], ids[k] = ids[k], ids[j]
		w := randomWakes(src, ids[:k])
		keys := w.WakeOrder(nil)
		x, at := ids[k], keys[src.Intn(k)].Wake
		final := model.WakePattern{IDs: ids, Wakes: append(w.Wakes[:k:k], at)}
		replayKeys := final.WakeOrder(nil)
		var a model.Adaptive = TreeCD{}
		if round%2 == 1 {
			a = NewKGConflictResolution()
		}
		ch := []model.ChannelModel{model.CD(), model.SenderCD(), model.Ack()}[round%3]
		p := model.Params{N: n, K: k + 1, S: -1, Seed: uint64(round)}
		hooked, replay := a.Fleet(p, nil), a.Fleet(p, nil)
		next, replayNext := 0, 0
		for slot := keys[0].Wake; slot < keys[k-1].Wake+200; slot++ {
			for ; next < k && keys[next].Wake == slot; next++ {
				hooked.Join(keys[next].ID, slot, nil)
			}
			for ; replayNext <= k && replayKeys[replayNext].Wake == slot; replayNext++ {
				replay.Join(replayKeys[replayNext].ID, slot, nil)
			}
			got, want := hooked.Transmitters(slot, nil), replay.Transmitters(slot, nil)
			if slot == at {
				// The engine puts x ahead of the stations woken at t with
				// larger IDs, and ahead of their IDs among the transmitters.
				i := next
				for i > 0 && keys[i-1].Wake == at && keys[i-1].ID > x {
					i--
				}
				if hooked.JoinAt(i, x, at, nil) {
					j := len(got)
					for j > 0 && slices.ContainsFunc(keys[i:next], func(key model.WakeKey) bool { return key.ID == got[j-1] }) {
						j--
					}
					got = slices.Insert(got, j, x)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: %s on %s, %v, x=%d at %d: slot %d transmitters %v, replay %v",
					round, a.Name(), ch.Name(), w, x, at, slot, got, want)
			}
			truth, winner := model.Collision, 0
			switch len(want) {
			case 0:
				truth = model.Silence
			case 1:
				truth, winner = model.Success, want[0]
			}
			d := model.Deliver(ch, truth, winner)
			hooked.Observe(slot, d)
			replay.Observe(slot, d)
		}
	}
}

// randomWakes wakes ids at random slots in [0, 8).
func randomWakes(src *rng.Source, ids []int) model.WakePattern {
	wakes := make([]int64, len(ids))
	for i := range wakes {
		wakes[i] = int64(src.Intn(8))
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

func TestKGBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKGConflictResolution().Build(model.Params{N: 4}, 1, 0, nil)
}

func TestAlgorithmNames(t *testing.T) {
	cases := map[string]model.Algorithm{
		"round_robin":            NewRoundRobin(),
		"select_among_the_first": NewSelectAmongFirst(),
		"wait_and_go":            NewWaitAndGo(),
		"wakeup_with_s":          NewWakeupWithS(),
		"wakeup_with_k":          NewWakeupWithK(),
		"wakeup(n)":              NewWakeupC(),
		"rpd(ell=2logn)":         NewRPD(),
		"rpd(ell=2logk)":         NewRPDWithK(),
		"local_ssf[heuristic]":   NewLocalSSF(),
		"tree_cd":                NewTreeCD(),
		"kg_conflict_resolution": NewKGConflictResolution(),
	}
	for want, algo := range cases {
		if got := algo.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	// Ablation names differ from the originals.
	if (&WaitAndGo{DisableWait: true}).Name() == NewWaitAndGo().Name() {
		t.Error("ablated wait_and_go shares a name with the original")
	}
	if (&WakeupC{DisableWindowWait: true}).Name() == NewWakeupC().Name() {
		t.Error("ablated wakeup(n) shares a name with the original")
	}
	if (&WakeupC{C: 3}).Name() == NewWakeupC().Name() {
		t.Error("c-swept wakeup(n) shares a name with the default")
	}
}

func TestHorizonsPositive(t *testing.T) {
	bounded := []Bounded{
		NewRoundRobin(), NewSelectAmongFirst(), NewWaitAndGo(),
		NewWakeupC(), NewRPD(), NewRPDWithK(), NewLocalSSF(),
		NewTreeCD(), NewKGConflictResolution(),
	}
	for _, b := range bounded {
		for _, nk := range [][2]int{{1, 1}, {16, 4}, {1024, 64}} {
			if h := b.Horizon(nk[0], nk[1]); h <= 0 {
				t.Errorf("%T.Horizon(%d,%d) = %d", b, nk[0], nk[1], h)
			}
		}
	}
	if WakeupWithSHorizon(64, 4) <= 0 || WakeupWithKHorizon(64, 4) <= 0 {
		t.Error("interleaved horizons must be positive")
	}
}
