// Package campaign is nsmac's one shard scheduler. A server owns a
// queue of shard work cut from submitted campaign manifests (many SpecDocs
// against one RunStore), and pull-based workers lease shards, heartbeat to
// keep their visibility timeout alive, and hand in result envelopes that
// the server checks against the plan before trusting them.
//
// It runs two ways. As sweep-as-a-service (`wakeup-bench serve` and
// `work`), a long-lived server speaks HTTP/JSON to workers on any machine.
// As the Driver (`wakeup-bench run`), one process holds a server and
// Concurrency workers that call it directly.
//
// The fault-tolerance shape is the classic lease queue:
//
//   - A lease grants one worker one shard for a visibility timeout.
//     Heartbeats renew it; a worker that dies (or wedges) simply stops
//     heartbeating, the lease expires, and the shard is re-served to the
//     next worker that asks. Expiry is evaluated lazily against the Clock on
//     every request — the server needs no background reaper goroutine.
//
//   - When every shard is leased but stragglers remain, the server hands
//     out duplicate "steal" leases on the longest-running shard (after a
//     grace period). Trials are deterministic in (seed, cell, trial), so a
//     stolen shard computes byte-identical results — the first completion
//     wins and the rest are acknowledged as duplicates.
//
//   - Shard counts can autotune: a grid submitted with shards=0 is planned
//     when its first lease is requested, sized from the exponentially-
//     weighted per-trial wall clock observed on previously completed
//     shards so each shard lands near targetShardTime.
//
// Because every trial's outcome is a pure function of (grid seed, cell,
// trial), none of this wall-clock machinery can skew results: the merged
// output of a campaign grid is byte-identical to the one-process
// `wakeup-bench -spec` run, no matter how many workers, leases, expiries or
// steals it took to compute — and partial results can be streamed mid-run
// through sweep.MergePartial.
package campaign

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrLeaseLost reports a lease that no longer exists: expired and
	// re-served, completed by a stealing worker, or never granted. The
	// holder must discard its work (the shard is deterministic; nothing of
	// value is lost).
	ErrLeaseLost = errors.New("campaign: lease lost")
	// ErrNotFound reports an unknown campaign or grid ID.
	ErrNotFound = errors.New("campaign: not found")
	// ErrNoResults reports a results request before any shard completed.
	ErrNoResults = errors.New("campaign: no completed shards yet")
)

// maxLeases caps concurrent leases per shard, bounding duplicated steal
// work: one primary, one steal.
const maxLeases = 2

// The shard-count autotuner's constants. They decide only how a grid
// submitted with shards=0 is cut, never a result byte.
const (
	// defaultShards sizes autotuned grids before any wall-clock observation
	// exists.
	defaultShards = 4
	// maxShards caps autotuned shard counts.
	maxShards = 64
	// targetShardTime is the autotuner's per-shard wall-clock target.
	targetShardTime = 5 * time.Second
)

// Options configures a Server. The zero value selects the documented
// defaults.
type Options struct {
	// LeaseTimeout is the visibility timeout: how long a lease lives
	// without a heartbeat (default 30s).
	LeaseTimeout time.Duration
	// StealAfter is the minimum age of a shard's oldest lease before a
	// duplicate steal lease may be granted on it (default LeaseTimeout/2).
	StealAfter time.Duration
	// MaxAttempts caps lease grants per shard; a shard that burns through
	// them fails its grid (default 5).
	MaxAttempts int
	// Store, when non-nil, persists completed envelopes (and the
	// worker-tagged attempt log) under the standard RunStore layout; grids
	// whose envelopes are already stored resume as completed.
	Store *dispatch.RunStore
	// Clock supplies server time (default SystemClock).
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = o.LeaseTimeout / 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
	return o
}

// Server owns the campaign queue. All state lives behind one mutex; every
// public method first sweeps expired leases against the clock, so there is
// no background goroutine and no timer — time only advances when someone
// asks for something, which is also what makes the whole lease lifecycle
// replayable under a fake clock.
type Server struct {
	mu   sync.Mutex
	opts Options

	campaignSeq int
	leaseSeq    int
	campaigns   []*campaignState          // submission order: FIFO service
	byID        map[string]*campaignState // campaign id → state
	leases      map[string]*lease         // lease id → active lease

	// secPerTrial is the EWMA of observed wall-clock seconds per trial, the
	// autotuner's input (0 until the first shard completes).
	secPerTrial float64
}

// NewServer builds a campaign server with the given options.
func NewServer(opts Options) *Server {
	return &Server{
		opts:   opts.withDefaults(),
		byID:   map[string]*campaignState{},
		leases: map[string]*lease{},
	}
}

type campaignState struct {
	id    string
	name  string
	grids []*gridState
}

type gridState struct {
	id        string
	doc       sweep.SpecDoc
	cells     int // resolved cell count (known at submission)
	autotuned bool

	// fingerprint is set at submission: it does not depend on the shard
	// count. shards is nil until the grid is planned: at submission for a
	// fixed shard count, at first lease for an autotuned grid, so it sees
	// the wall clock of the campaign's earlier grids.
	fingerprint string
	shards      []*shardState

	// failed carries the grid's first fatal error (a shard out of attempts,
	// an unplannable doc); a failed grid stops leasing.
	failed string
	// storeErr records a persistence failure (results still stream from
	// memory; the operator sees it in status).
	storeErr string
	// saving counts completed shards whose envelope is still being written
	// to the store; the grid reports complete only once it is zero.
	saving int
}

type shardState struct {
	plan     dispatch.ShardPlan
	done     bool
	env      *sweep.ShardResult
	attempts int      // lease grants so far (= audit-log attempt numbers)
	leases   []*lease // active leases, oldest first
	cause    string   // the last failed attempt's error
}

type lease struct {
	id       string
	c        *campaignState
	g        *gridState
	s        *shardState
	worker   string
	attempt  int // this lease's attempt number on the shard
	steal    bool
	granted  time.Time
	deadline time.Time
}

// Submit registers a campaign manifest and returns its assigned ID. Every
// grid document is resolved immediately (an unresolvable spec rejects the
// whole submission — better at submit time than at first lease). A grid
// with a fixed shard count is planned, and resumed from the store, right
// away; an autotuned grid is planned lazily so it benefits from
// observations.
func (s *Server) Submit(m Manifest) (string, error) {
	if err := m.Validate(); err != nil {
		return "", err
	}
	name := m.Name
	if name == "" {
		name = "campaign"
	}
	grids := make([]*gridState, len(m.Grids))
	for i, mg := range m.Grids {
		// Planning validates the document and yields the resolved cell
		// count the autotuner needs. A fixed shard count is planned for
		// good here; an autotuned grid is planned again at its first lease.
		plans, _, err := dispatch.PlanShards(mg.Spec, max(mg.Shards, 1))
		if err != nil {
			return "", fmt.Errorf("campaign: grid %q: %w", mg.ID, err)
		}
		g := &gridState{id: mg.ID, doc: mg.Spec, cells: plans[0].Cells,
			autotuned: mg.Shards == 0, fingerprint: plans[0].Fingerprint}
		if mg.Shards > 0 {
			s.setPlan(g, plans)
		}
		grids[i] = g
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.campaignSeq++
	c := &campaignState{id: fmt.Sprintf("c%d", s.campaignSeq), name: name, grids: grids}
	s.campaigns = append(s.campaigns, c)
	s.byID[c.id] = c
	return c.id, nil
}

// Lease grants the caller one shard, or returns nil when no work is
// available right now (everything done, failed, or in flight within the
// steal grace period). Service order is FIFO over campaigns and grids;
// within a grid, unleased shards go out first, then steal leases on the
// longest-running straggler.
func (s *Server) Lease(worker string) (*LeaseGrant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock.Now()
	s.expireLocked(now)

	// Pass 1: first pending (unleased, not done, attempts left) shard.
	for _, c := range s.campaigns {
		for _, g := range c.grids {
			if g.failed != "" {
				continue
			}
			if err := s.planLocked(g); err != nil {
				g.failed = err.Error()
				continue
			}
			for _, sh := range g.shards {
				if sh.done || len(sh.leases) > 0 {
					continue
				}
				if sh.attempts >= s.opts.MaxAttempts {
					failGridLocked(g, sh)
					break
				}
				return s.grantLocked(now, c, g, sh, worker, false), nil
			}
		}
	}

	// Pass 2: steal from the straggler — the in-flight shard whose oldest
	// lease has run longest, if it is past the grace period and under the
	// concurrent-lease cap.
	var best *lease
	var bestC *campaignState
	var bestG *gridState
	for _, c := range s.campaigns {
		for _, g := range c.grids {
			if g.failed != "" || g.shards == nil {
				continue
			}
			for _, sh := range g.shards {
				if sh.done || len(sh.leases) == 0 || len(sh.leases) >= maxLeases {
					continue
				}
				if sh.attempts >= s.opts.MaxAttempts {
					continue
				}
				oldest := sh.leases[0]
				if now.Sub(oldest.granted) < s.opts.StealAfter {
					continue
				}
				if oldest.worker == worker {
					// Don't steal from yourself: the straggler asking for
					// more work should not double-run its own shard.
					continue
				}
				if best == nil || oldest.granted.Before(best.granted) {
					best, bestC, bestG = oldest, c, g
				}
			}
		}
	}
	if best != nil {
		return s.grantLocked(now, bestC, bestG, best.s, worker, true), nil
	}
	return nil, nil
}

// grantLocked creates a lease on sh and returns its wire grant.
func (s *Server) grantLocked(now time.Time, c *campaignState, g *gridState, sh *shardState, worker string, steal bool) *LeaseGrant {
	sh.attempts++
	s.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("l%d", s.leaseSeq),
		c:        c,
		g:        g,
		s:        sh,
		worker:   worker,
		attempt:  sh.attempts,
		steal:    steal,
		granted:  now,
		deadline: now.Add(s.opts.LeaseTimeout),
	}
	sh.leases = append(sh.leases, l)
	s.leases[l.id] = l
	return &LeaseGrant{
		LeaseID:      l.id,
		Campaign:     c.id,
		Grid:         g.id,
		Doc:          sh.plan.Doc,
		Fingerprint:  sh.plan.Fingerprint,
		Cells:        sh.plan.Cells,
		Shard:        sh.plan.Index,
		Shards:       sh.plan.Count,
		Attempt:      sh.attempts,
		Steal:        steal,
		LeaseSeconds: s.opts.LeaseTimeout.Seconds(),
	}
}

// Heartbeat renews a lease's visibility timeout and returns the seconds
// remaining until the new deadline. A lost lease returns ErrLeaseLost: the
// worker must abandon the shard. A lease whose shard was completed by a
// stealing twin is also reported lost — continuing would only recompute
// bytes the server already holds, so the heartbeat is the cancel signal.
func (s *Server) Heartbeat(leaseID string) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock.Now()
	s.expireLocked(now)
	l, ok := s.leases[leaseID]
	if !ok {
		return 0, ErrLeaseLost
	}
	if l.s.done {
		s.releaseLocked(l)
		return 0, ErrLeaseLost
	}
	l.deadline = now.Add(s.opts.LeaseTimeout)
	return s.opts.LeaseTimeout.Seconds(), nil
}

// Complete accepts a shard envelope for a lease. The envelope passes the
// full DecodeShardResult/CheckEnvelope hardening against the leased plan
// before it is trusted; an invalid envelope fails the attempt (the shard
// returns to the queue). A valid envelope completes the shard, releases
// every lease on it, persists to the store, and feeds the wall-clock
// observation that autotunes later shard plans. Completing an
// already-completed shard (a steal race) is acknowledged with duplicate =
// true. The store write runs outside the server lock, so other workers'
// requests do not wait on the disk; Complete returns once it is written.
func (s *Server) Complete(leaseID string, env *sweep.ShardResult) (duplicate bool, err error) {
	g, duplicate, err := s.accept(leaseID, env)
	if g == nil {
		return duplicate, err
	}
	saveErr := s.opts.Store.Save(env)
	s.mu.Lock()
	defer s.mu.Unlock()
	g.saving--
	if saveErr != nil && g.storeErr == "" {
		g.storeErr = saveErr.Error()
	}
	return false, nil
}

// accept is Complete's locked half. It returns the shard's grid when the
// envelope completed the shard and a store is attached: the caller then
// saves the envelope and ends the grid's pending save.
func (s *Server) accept(leaseID string, env *sweep.ShardResult) (save *gridState, duplicate bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock.Now()
	s.expireLocked(now)
	l, ok := s.leases[leaseID]
	if !ok {
		return nil, false, ErrLeaseLost
	}
	sh, g := l.s, l.g
	if sh.done {
		// A slower twin already lost the race; its work is identical bytes.
		s.releaseLocked(l)
		return nil, true, nil
	}
	if err := dispatch.CheckEnvelope(env, sh.plan); err != nil {
		s.endAttemptLocked(l, err)
		s.releaseLocked(l)
		s.maybeFailLocked(g, sh)
		return nil, false, err
	}

	sh.env = env
	sh.done = true
	s.endAttemptLocked(l, nil)
	s.observeLocked(now, l)
	// Only the completer's lease is released; a stealing twin keeps its
	// lease so its own completion is acknowledged as a duplicate (or its
	// next heartbeat cancels the now-pointless work).
	s.releaseLocked(l)
	if s.opts.Store == nil {
		return nil, false, nil
	}
	g.saving++
	return g, false, nil
}

// Fail reports a lease's shard attempt as failed (executor error on the
// worker), releasing the lease so the shard re-enqueues immediately instead
// of waiting out the visibility timeout.
func (s *Server) Fail(leaseID string, cause string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock.Now()
	s.expireLocked(now)
	l, ok := s.leases[leaseID]
	if !ok {
		return ErrLeaseLost
	}
	if cause == "" {
		cause = "worker reported failure"
	}
	s.endAttemptLocked(l, errors.New(cause))
	s.releaseLocked(l)
	s.maybeFailLocked(l.g, l.s)
	return nil
}

// expireLocked lazily sweeps every lease whose deadline has passed: the
// lease disappears, and a shard whose last lease expired returns to the
// pending pool (its attempt was already counted at grant). Walks the
// campaign/grid/shard slices — never the lease map — so the sweep order is
// deterministic under a fake clock.
func (s *Server) expireLocked(now time.Time) {
	for _, c := range s.campaigns {
		for _, g := range c.grids {
			for _, sh := range g.shards {
				if len(sh.leases) == 0 {
					continue
				}
				kept := sh.leases[:0]
				for _, l := range sh.leases {
					if l.deadline.After(now) {
						kept = append(kept, l)
						continue
					}
					delete(s.leases, l.id)
					// A twin lease dying after the shard completed is not a
					// failed attempt — the shard succeeded; keep the audit
					// log clean.
					if !sh.done {
						s.endAttemptLocked(l, errors.New("lease expired"))
					}
				}
				sh.leases = kept
				s.maybeFailLocked(g, sh)
			}
		}
	}
}

// releaseLocked drops one lease from its shard and the lease table.
func (s *Server) releaseLocked(l *lease) {
	delete(s.leases, l.id)
	kept := l.s.leases[:0]
	for _, other := range l.s.leases {
		if other != l {
			kept = append(kept, other)
		}
	}
	l.s.leases = kept
}

// maybeFailLocked fails a grid whose shard is out of attempts with nothing
// in flight — every future lease request would be refused anyway, so the
// grid surfaces the terminal state immediately.
func (s *Server) maybeFailLocked(g *gridState, sh *shardState) {
	if g.failed == "" && !sh.done && len(sh.leases) == 0 && sh.attempts >= s.opts.MaxAttempts {
		failGridLocked(g, sh)
	}
}

// failGridLocked fails a grid on a shard out of attempts, naming the cap
// and the last failed attempt's cause.
func failGridLocked(g *gridState, sh *shardState) {
	g.failed = fmt.Sprintf("shard %d/%d exhausted %d lease attempts",
		sh.plan.Index, sh.plan.Count, sh.attempts)
	if sh.cause != "" {
		g.failed += ": " + sh.cause
	}
}

// endAttemptLocked records how a lease's attempt ended: a failure's cause
// is kept for the grid's failure message, and with a store the attempt is
// appended to the worker-tagged attempt log (best-effort: the audit trail
// must not take the service down).
func (s *Server) endAttemptLocked(l *lease, outcome error) {
	if outcome != nil {
		l.s.cause = outcome.Error()
	}
	if s.opts.Store == nil {
		return
	}
	_ = s.opts.Store.LogAttemptAs(l.g.fingerprint, l.s.plan.Index, l.s.plan.Count, l.attempt, l.worker, outcome)
}

// observeLocked feeds one completed lease's wall clock into the per-trial
// EWMA the autotuner reads.
func (s *Server) observeLocked(now time.Time, l *lease) {
	trials := sweep.ShardTrials(l.s.plan.Doc.Trials, l.s.plan.Index, l.s.plan.Count) * l.s.plan.Cells
	dur := now.Sub(l.granted).Seconds()
	if trials <= 0 || dur <= 0 {
		return
	}
	obs := dur / float64(trials)
	if s.secPerTrial == 0 {
		s.secPerTrial = obs
		return
	}
	const alpha = 0.3
	s.secPerTrial = alpha*obs + (1-alpha)*s.secPerTrial
}

// planLocked materializes an autotuned grid's shard plan on first demand,
// picking its shard count from the wall clock observed so far.
func (s *Server) planLocked(g *gridState) error {
	if g.shards != nil {
		return nil
	}
	plans, _, err := dispatch.PlanShards(g.doc, s.autoShardCountLocked(g))
	if err != nil {
		return err
	}
	s.setPlan(g, plans)
	return nil
}

// setPlan installs a grid's shard plan. With a store attached,
// already-persisted envelopes that pass the plan's checks complete their
// shards immediately (campaign resume).
func (s *Server) setPlan(g *gridState, plans []dispatch.ShardPlan) {
	g.shards = make([]*shardState, len(plans))
	for i, plan := range plans {
		sh := &shardState{plan: plan}
		if st := s.opts.Store; st != nil {
			if env, err := st.Load(plan); err == nil {
				sh.env = env
				sh.done = true
			}
		}
		g.shards[i] = sh
	}
}

// autoShardCountLocked sizes an autotuned grid: estimated total wall clock
// over the per-shard target, clamped to [1, min(maxShards, trials)] so no
// shard is empty. Before any observation it falls back to defaultShards.
func (s *Server) autoShardCountLocked(g *gridState) int {
	count := defaultShards
	if s.secPerTrial > 0 {
		est := s.secPerTrial * float64(g.cells) * float64(g.doc.Trials)
		count = int(math.Ceil(est / targetShardTime.Seconds()))
	}
	if count > maxShards {
		count = maxShards
	}
	if g.doc.Trials > 0 && count > g.doc.Trials {
		count = g.doc.Trials
	}
	if count < 1 {
		count = 1
	}
	return count
}

// SecondsPerTrial exposes the autotuner's current per-trial wall-clock
// estimate (0 before the first completed shard) — status/diagnostic only.
func (s *Server) SecondsPerTrial() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.secPerTrial
}

// Status reports one campaign's progress.
func (s *Server) Status(campaignID string) (*CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.opts.Clock.Now())
	c, ok := s.byID[campaignID]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", ErrNotFound, campaignID)
	}
	return s.statusLocked(c), nil
}

// Campaigns reports every campaign's progress in submission order.
func (s *Server) Campaigns() []*CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.opts.Clock.Now())
	out := make([]*CampaignStatus, len(s.campaigns))
	for i, c := range s.campaigns {
		out[i] = s.statusLocked(c)
	}
	return out
}

func (s *Server) statusLocked(c *campaignState) *CampaignStatus {
	out := &CampaignStatus{ID: c.id, Name: c.name, Done: true}
	for _, g := range c.grids {
		gs := GridStatus{
			ID:          g.id,
			Fingerprint: g.fingerprint,
			Cells:       g.cells,
			Trials:      g.doc.Trials,
			Autotuned:   g.autotuned,
			Failed:      g.failed,
			StoreError:  g.storeErr,
			Shards:      len(g.shards),
		}
		for _, sh := range g.shards {
			gs.Attempts += sh.attempts
			switch {
			case sh.done:
				gs.Done++
			case len(sh.leases) > 0:
				gs.InFlight++
			default:
				gs.Pending++
			}
		}
		gs.Complete = g.shards != nil && gs.Done == gs.Shards && g.saving == 0
		if !gs.Complete || g.failed != "" {
			out.Done = false
		}
		if g.failed != "" {
			out.Failed = true
		}
		out.Grids = append(out.Grids, gs)
	}
	return out
}

// Results renders one grid's merged results from the shards completed so
// far: the full Merge when the grid is complete (byte-identical to the
// one-process run), an honest MergePartial snapshot while shards are still
// in flight. The returned done/total counts let callers label partial
// output.
func (s *Server) Results(campaignID, gridID, format string) (out string, done, total int, err error) {
	slots, _, _, err := s.envelopes(campaignID, gridID)
	if err != nil {
		return "", 0, 0, err
	}
	var envs []*sweep.ShardResult
	for _, env := range slots {
		if env != nil {
			envs = append(envs, env)
		}
	}
	if len(envs) == 0 {
		return "", 0, len(slots), ErrNoResults
	}
	var res *sweep.Result
	if len(envs) == len(slots) {
		res, err = sweep.Merge(envs...)
	} else {
		res, err = sweep.MergePartial(envs...)
	}
	if err != nil {
		return "", 0, 0, err
	}
	rendered, err := res.Render(format)
	if err != nil {
		return "", 0, 0, err
	}
	return rendered, len(envs), len(slots), nil
}

// envelopes is the one view of a grid's completed work that Results and
// the Driver share: a slot per planned shard in shard order, holding the
// shard's envelope once it is done and nil before, plus the grid's failure
// and store error. A completed envelope never changes, so callers merge
// the slots without the lock.
func (s *Server) envelopes(campaignID, gridID string) (slots []*sweep.ShardResult, failed, storeErr string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.opts.Clock.Now())
	g, err := s.gridLocked(campaignID, gridID)
	if err != nil {
		return nil, "", "", err
	}
	slots = make([]*sweep.ShardResult, len(g.shards))
	for i, sh := range g.shards {
		slots[i] = sh.env
	}
	return slots, g.failed, g.storeErr, nil
}

// gridLocked finds grid gridID of campaign campaignID; s.mu is held.
func (s *Server) gridLocked(campaignID, gridID string) (*gridState, error) {
	c, ok := s.byID[campaignID]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", ErrNotFound, campaignID)
	}
	for _, g := range c.grids {
		if g.id == gridID {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: grid %q in campaign %q", ErrNotFound, gridID, campaignID)
}
