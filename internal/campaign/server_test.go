package campaign

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// fakeClock is a hand-driven Clock: lease timelines replay deterministically,
// no test ever sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testDoc(t *testing.T) sweep.SpecDoc {
	t.Helper()
	doc, err := sweep.ParseSpecDoc([]byte(`{
		"name": "campaign-test",
		"cases": ["wakeupc", "roundrobin"],
		"patterns": ["staggered:3"],
		"ns": [32, 64], "ks": [2, 4],
		"trials": 4, "seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newTestServer builds a server on a fake clock with small, test-friendly
// limits.
func newTestServer(t *testing.T, opts Options) (*Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	opts.Clock = clk
	if opts.LeaseTimeout == 0 {
		opts.LeaseTimeout = 30 * time.Second
	}
	return NewServer(opts), clk
}

// submitOne submits a single-grid manifest and returns the campaign ID.
func submitOne(t *testing.T, s *Server, doc sweep.SpecDoc, shards int) string {
	t.Helper()
	id, err := s.Submit(SingleGrid("t", "g", doc, shards))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runGrant executes a grant's shard in-process and returns its envelope.
func runGrant(t *testing.T, grant *LeaseGrant) *sweep.ShardResult {
	t.Helper()
	spec, err := grant.Doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	env, err := g.RunShard(grant.Shard, grant.Shards)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestLeaseExpiryReservesShard(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 10 * time.Second, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 2)

	g1, err := s.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	g2, err := s.Lease("w1")
	if err != nil || g2 == nil {
		t.Fatalf("lease: %v %v", g2, err)
	}
	if g1.Shard == g2.Shard {
		t.Fatalf("both leases on shard %d", g1.Shard)
	}
	// Everything is leased and within the steal grace: no work.
	if g3, _ := s.Lease("w2"); g3 != nil {
		t.Fatalf("unexpected third lease: %+v", g3)
	}

	// w1 dies: past the visibility timeout both shards are re-served, with
	// bumped attempt numbers, and the dead leases answer ErrLeaseLost.
	clk.Advance(11 * time.Second)
	r1, err := s.Lease("w2")
	if err != nil || r1 == nil {
		t.Fatalf("re-lease: %v %v", r1, err)
	}
	if r1.Attempt != 2 {
		t.Fatalf("re-leased attempt = %d, want 2", r1.Attempt)
	}
	if _, err := s.Heartbeat(g1.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat on expired lease: %v, want ErrLeaseLost", err)
	}
	if _, err := s.Complete(g2.LeaseID, runGrant(t, g2)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("complete on expired lease: %v, want ErrLeaseLost", err)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 10 * time.Second, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 1)

	grant, err := s.Lease("w1")
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}
	// Heartbeat every 6s: each renewal pushes the deadline past the next
	// advance, so the lease survives 30s of wall clock on a 10s timeout.
	for i := 0; i < 5; i++ {
		clk.Advance(6 * time.Second)
		if _, err := s.Heartbeat(grant.LeaseID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if dup, err := s.Complete(grant.LeaseID, runGrant(t, grant)); err != nil || dup {
		t.Fatalf("complete after renewals: dup=%v err=%v", dup, err)
	}
	st, err := s.Status("c1")
	if err != nil || !st.Done {
		t.Fatalf("campaign not done after completion: %+v err=%v", st, err)
	}
}

func TestWorkStealingFromStraggler(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 20 * time.Second, StealAfter: 5 * time.Second})
	submitOne(t, s, testDoc(t), 2)

	a, _ := s.Lease("slow")
	b, _ := s.Lease("fast")
	if a == nil || b == nil {
		t.Fatal("initial leases not granted")
	}
	// fast finishes its shard; slow is now the straggler.
	if _, err := s.Complete(b.LeaseID, runGrant(t, b)); err != nil {
		t.Fatal(err)
	}

	// Within the grace period there is nothing to steal.
	if g, _ := s.Lease("fast"); g != nil {
		t.Fatalf("steal granted inside grace period: %+v", g)
	}
	clk.Advance(6 * time.Second)
	// The straggler itself must not be offered its own shard twice...
	if g, _ := s.Lease("slow"); g != nil {
		t.Fatalf("straggler stole from itself: %+v", g)
	}
	// ...but another worker gets a steal lease on the straggler's shard,
	// with heartbeats keeping the original alive all along.
	if _, err := s.Heartbeat(a.LeaseID); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Lease("fast")
	if st == nil || !st.Steal || st.Shard != a.Shard {
		t.Fatalf("steal grant = %+v, want steal of shard %d", st, a.Shard)
	}
	// maxLeases caps duplication: no third lease on the same shard.
	clk.Advance(6 * time.Second)
	if g, _ := s.Lease("third"); g != nil {
		t.Fatalf("third concurrent lease granted: %+v", g)
	}

	// First completion wins; the loser is told "duplicate" and nothing
	// breaks. The envelope bytes are identical either way.
	env := runGrant(t, st)
	if dup, err := s.Complete(st.LeaseID, env); err != nil || dup {
		t.Fatalf("winner complete: dup=%v err=%v", dup, err)
	}
	if dup, err := s.Complete(a.LeaseID, env); err != nil || !dup {
		t.Fatalf("loser complete: dup=%v err=%v, want duplicate", dup, err)
	}
	stst, err := s.Status("c1")
	if err != nil || !stst.Done {
		t.Fatalf("campaign not done: %+v err=%v", stst, err)
	}
}

func TestFailRequeuesImmediately(t *testing.T) {
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 1)

	a, _ := s.Lease("w1")
	if err := s.Fail(a.LeaseID, "executor exploded"); err != nil {
		t.Fatal(err)
	}
	// No clock advance needed: the shard is immediately re-leasable.
	b, _ := s.Lease("w1")
	if b == nil || b.Shard != a.Shard || b.Attempt != 2 {
		t.Fatalf("after fail, re-lease = %+v", b)
	}
}

func TestAttemptCapFailsGrid(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: time.Second, StealAfter: time.Hour, MaxAttempts: 2})
	id := submitOne(t, s, testDoc(t), 1)

	for i := 0; i < 2; i++ {
		g, _ := s.Lease("w1")
		if g == nil {
			t.Fatalf("lease %d not granted", i)
		}
		clk.Advance(2 * time.Second) // let it expire
	}
	if g, _ := s.Lease("w1"); g != nil {
		t.Fatalf("lease granted past attempt cap: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Failed || st.Grids[0].Failed == "" {
		t.Fatalf("grid not failed after attempt cap: %+v", st.Grids[0])
	}
	// The failure names the cap and the last attempt's cause.
	if want := "shard 0/1 exhausted 2 lease attempts: lease expired"; st.Grids[0].Failed != want {
		t.Fatalf("grid failure %q, want %q", st.Grids[0].Failed, want)
	}
}

func TestInvalidEnvelopeFailsAttempt(t *testing.T) {
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour})
	submitOne(t, s, testDoc(t), 2)

	a, _ := s.Lease("w1")
	// An envelope for the wrong shard must be rejected by the CheckEnvelope
	// hardening and burn the attempt.
	wrong := *a
	wrong.Shard = (a.Shard + 1) % a.Shards
	if _, err := s.Complete(a.LeaseID, runGrant(t, &wrong)); err == nil {
		t.Fatal("mismatched envelope accepted")
	}
	b, _ := s.Lease("w1")
	if b == nil || b.Shard != a.Shard || b.Attempt != 2 {
		t.Fatalf("after rejected envelope, re-lease = %+v", b)
	}
}

func TestPartialResultsStreamAndFinalMergeIsByteIdentical(t *testing.T) {
	doc := testDoc(t)
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour})
	id := submitOne(t, s, doc, 3)

	if _, _, _, err := s.Results(id, "g", "text"); !errors.Is(err, ErrNoResults) {
		t.Fatalf("results before any shard: %v, want ErrNoResults", err)
	}

	grants := make([]*LeaseGrant, 3)
	for i := range grants {
		grants[i], _ = s.Lease("w1")
		if grants[i] == nil {
			t.Fatalf("lease %d not granted", i)
		}
	}
	if _, err := s.Complete(grants[0].LeaseID, runGrant(t, grants[0])); err != nil {
		t.Fatal(err)
	}

	// One shard in: an honest partial snapshot (1/3), renderable.
	out, done, total, err := s.Results(id, "g", "text")
	if err != nil || done != 1 || total != 3 || out == "" {
		t.Fatalf("partial results: done=%d/%d err=%v", done, total, err)
	}

	for _, g := range grants[1:] {
		if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
			t.Fatal(err)
		}
	}

	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		want, err := whole.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		got, done, total, err := s.Results(id, "g", format)
		if err != nil || done != total {
			t.Fatalf("%s results: done=%d/%d err=%v", format, done, total, err)
		}
		if got != want {
			t.Errorf("%s results differ from one-process run", format)
		}
	}
}

// TestAutotunedGridStatusBeforeFirstLease: an autotuned grid reads as
// autotuned and unplanned, with its fingerprint, from submission on; it does
// not read as an empty 0/0 grid until a worker's first lease plans it.
func TestAutotunedGridStatusBeforeFirstLease(t *testing.T) {
	doc := testDoc(t)
	s, _ := newTestServer(t, Options{})
	id := submitOne(t, s, doc, 0)
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	g := st.Grids[0]
	plans, _, err := dispatch.PlanShards(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Autotuned || g.Shards != 0 || g.Fingerprint != plans[0].Fingerprint {
		t.Fatalf("status before the first lease = %+v, want autotuned, 0 shards, fingerprint %s", g, plans[0].Fingerprint)
	}
}

func TestAutotunePicksShardCountFromObservedWallClock(t *testing.T) {
	doc := testDoc(t)
	doc.Trials = 100 // 8 cells × 100 trials = 800 trials of work
	s, clk := newTestServer(t, Options{LeaseTimeout: time.Hour, StealAfter: time.Hour})
	id1, err := s.Submit(SingleGrid("t", "first", doc, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Before any observation the autotuner falls back to defaultShards.
	g1, _ := s.Lease("w1")
	if g1 == nil || g1.Shards != defaultShards {
		t.Fatalf("first autotuned grid got %+v, want %d shards", g1, defaultShards)
	}
	st, _ := s.Status(id1)
	if !st.Grids[0].Autotuned {
		t.Fatal("grid not marked autotuned")
	}

	// Complete every shard at 1/8 s per trial of observed wall clock: each
	// shard covers 200 (cell,trial) pairs, so 25 s.
	for g := g1; g != nil; g, _ = s.Lease("w1") {
		clk.Advance(25 * time.Second)
		if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
			t.Fatal(err)
		}
	}
	if spt := s.SecondsPerTrial(); spt != 0.125 {
		t.Fatalf("observed seconds/trial = %v, want 0.125", spt)
	}

	// A second identical grid now plans from the observation: 800
	// trial-cells × 1/8 s over the 5 s target = 20 shards.
	if _, err := s.Submit(SingleGrid("t", "second", doc, 0)); err != nil {
		t.Fatal(err)
	}
	g2, _ := s.Lease("w1")
	if g2 == nil || g2.Shards != 20 {
		t.Fatalf("tuned grid got %+v, want 20 shards", g2)
	}

	// Ten times the trials would want 200 shards; maxShards caps it.
	doc.Trials = 1000
	if _, err := s.Submit(SingleGrid("t", "third", doc, 0)); err != nil {
		t.Fatal(err)
	}
	for {
		g3, _ := s.Lease("w1")
		if g3 == nil {
			t.Fatal("third grid never leased")
		}
		if g3.Grid == "third" {
			if g3.Shards != maxShards {
				t.Fatalf("capped grid got %d shards, want %d", g3.Shards, maxShards)
			}
			break
		}
	}
}

func TestStoreResumeCompletesPlannedShards(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}

	// A driver run persists all three envelopes...
	d := &Driver{Exec: dispatch.Local{}, Store: store}
	if _, err := d.Run(t.Context(), doc, 3); err != nil {
		t.Fatal(err)
	}

	// ...so a campaign over the same store finds every shard done at
	// planning time and has nothing to lease.
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	id := submitOne(t, s, doc, 3)
	if g, _ := s.Lease("w1"); g != nil {
		t.Fatalf("lease granted for fully stored grid: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil || !st.Done {
		t.Fatalf("stored campaign not done: %+v err=%v", st, err)
	}
	if _, done, total, err := s.Results(id, "g", "text"); err != nil || done != 3 || total != 3 {
		t.Fatalf("stored results: done=%d/%d err=%v", done, total, err)
	}
}

func TestStoreResumeSkipsCorruptEnvelope(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	d := &Driver{Exec: dispatch.Local{}, Store: store}
	if _, err := d.Run(t.Context(), doc, 2); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt shard 0 as a torn write would: keep half the bytes.
	data, err := os.ReadFile(store.Path(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[0]), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The campaign resumes shard 1 from the store and re-leases only the
	// corrupt shard 0.
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	id := submitOne(t, s, doc, 2)
	g, _ := s.Lease("w1")
	if g == nil || g.Shard != 0 {
		t.Fatalf("lease = %+v, want corrupt shard 0", g)
	}
	if extra, _ := s.Lease("w1"); extra != nil {
		t.Fatalf("intact stored shard re-leased: %+v", extra)
	}
	if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil || !st.Done {
		t.Fatalf("campaign not done after recovering corrupt shard: %+v err=%v", st, err)
	}
	// The recovered envelope was re-persisted whole.
	if _, err := store.Load(plans[0]); err != nil {
		t.Fatalf("recovered envelope not restored in store: %v", err)
	}
}

func TestCompletionPersistsEnvelopeAndWorkerTaggedLog(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	submitOne(t, s, doc, 1)

	g, _ := s.Lease("w9")
	if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err != nil {
		t.Fatalf("completed envelope not in store: %v", err)
	}
	recs, err := store.Attempts(g.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Worker != "w9" || !recs[0].OK {
		t.Fatalf("attempt log = %+v, want one ok record from w9", recs)
	}
}

func TestSubmitRejectsBadManifests(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	bad := []Manifest{
		{},
		{Grids: []ManifestGrid{{ID: "", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "UPPER", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: testDoc(t)}, {ID: "a", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: testDoc(t), Shards: -1}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: sweep.SpecDoc{}}}}, // unresolvable
	}
	for i, m := range bad {
		if _, err := s.Submit(m); err == nil {
			t.Errorf("manifest %d accepted: %+v", i, m)
		}
	}
	if sts := s.Campaigns(); len(sts) != 0 {
		t.Fatalf("rejected submissions left campaigns behind: %+v", sts)
	}
}

func TestParseManifestStrict(t *testing.T) {
	if _, err := ParseManifest([]byte(`{"grids": [], "bogus": 1}`)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	if _, err := ParseManifest([]byte(`{"grids": [{"id": "g", "spec": {"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"ns":[32],"ks":[2],"trials":1,"seed":1}}]} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}
