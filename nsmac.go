// Package nsmac is a Go reproduction of De Marco & Kowalski, "Contention
// Resolution in a Non-Synchronized Multiple Access Channel" (IPDPS 2013):
// deterministic wake-up algorithms for a slotted multiple-access channel
// without collision detection, where up to k of n stations wake up at
// adversarially chosen times under a global clock.
//
// The public API re-exports the model vocabulary and the paper's algorithms:
//
//	p := nsmac.ScenarioC(1024, 1)                // knowledge: only n
//	algo := nsmac.NewWakeupC()                   // the §5 algorithm
//	w := nsmac.Simultaneous([]int{3, 17, 99}, 0) // adversary's move
//	res, _, err := nsmac.Run(algo, p, w, nsmac.RunOptions{
//		Horizon: algo.Horizon(p.N, 3),
//	})
//	// res.Winner transmitted alone at res.SuccessSlot.
//
// Scenario A (known start time s) uses NewWakeupWithS with Params.S set;
// Scenario B (known bound k) uses NewWakeupWithK with Params.K set; both
// are Θ(k log(n/k)+1). Scenario C needs neither and costs an extra
// O(log log n) factor. NewRPD gives the §6 randomized baseline.
//
// The channel itself is pluggable: RunOptions.Channel accepts a
// ChannelModel — the paper's regime (ChannelNone), full or sender-side
// collision detection (ChannelCD, ChannelSenderCD), acknowledgement-only
// feedback (ChannelAck), or reproducibly perturbed channels (ChannelNoisy,
// ChannelJam) — and every run accounts energy as transmissions plus
// listening slots (Result.Energy).
//
// The companion package nsmac/sweep is the experiment API: declarative
// grids (algorithms × wake patterns × channel models × {n, k} axes),
// serializable spec documents, and cross-process shard/merge with
// byte-identical output.
//
// See README.md for the public-API and CLI quickstart, including a worked
// shard→merge example; the theorem-backed experiment tables (T1…T12) are
// runnable via cmd/wakeup-bench, and the benchmarks live in bench_test.go.
package nsmac

import (
	"nsmac/internal/adversary"
	"nsmac/internal/channel"
	"nsmac/internal/core"
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/schedule"
	"nsmac/internal/sim"
)

// Core vocabulary (aliases into the internal model so users can name every
// type that appears in the API).
type (
	// Params is an algorithm's knowledge: N always; K > 0 in Scenario B;
	// S >= 0 in Scenario A (use S = -1 and K = 0 for Scenario C).
	Params = model.Params
	// WakePattern is the adversary's move: which stations wake, and when.
	WakePattern = model.WakePattern
	// Result reports a run: winner, success slot, rounds (t − s).
	Result = model.Result
	// Algorithm builds per-station transmission schedules.
	Algorithm = model.Algorithm
	// TransmitFunc is a station's schedule on the global clock.
	TransmitFunc = model.TransmitFunc
	// Feedback is what a slot sounds like (silence / success / collision).
	Feedback = model.Feedback
	// ChannelModel is the pluggable channel regime: feedback filtering per
	// station role, plus optional reproducible slot perturbation (noise,
	// jamming). Set RunOptions.Channel to one of ChannelNone, ChannelCD,
	// ChannelSenderCD, ChannelAck, ChannelNoisy, ChannelJam — or register a
	// custom model with sweep.RegisterChannel to use it as a sweep axis.
	ChannelModel = model.ChannelModel
	// Channel is the slotted medium; returned by Run for transcript access.
	Channel = channel.Channel
	// RunOptions configures a simulation (horizon, channel, tracing).
	RunOptions = sim.Options
	// AllResult reports a conflict-resolution run (every station succeeds).
	AllResult = sim.AllResult
	// SwapResult reports a Theorem 2.1 adversary search.
	SwapResult = adversary.SwapResult
	// SpoilerResult reports a white-box wake-time attack.
	SpoilerResult = adversary.SpoilerResult
	// Interleaved is the §3/§4 slot-parity combinator type.
	Interleaved = schedule.Interleaved
)

// Feedback constants.
const (
	Silence   = model.Silence
	Success   = model.Success
	Collision = model.Collision
)

// Channel models ---------------------------------------------------------
//
// The channel is pluggable: RunOptions.Channel selects the feedback regime
// and any reproducible perturbation, and nsmac/sweep exposes the same
// vocabulary as a grid axis (SpecDoc "channels", CLI -channels) with energy
// accounting (transmissions + listening slots) in the rendered output.

// ChannelNone returns the paper's channel: no collision detection, so a
// collision is indistinguishable from silence for every station. It is the
// default when RunOptions.Channel is nil.
func ChannelNone() ChannelModel { return model.None() }

// ChannelCD returns the full collision-detection channel (TreeCD's model).
func ChannelCD() ChannelModel { return model.CD() }

// ChannelSenderCD returns the sender-side collision-detection channel: only
// stations that transmitted in a slot learn whether they collided.
func ChannelSenderCD() ChannelModel { return model.SenderCD() }

// ChannelAck returns the acknowledgement-only channel: only the successful
// sender hears its success; everything else sounds like silence.
func ChannelAck() ChannelModel { return model.Ack() }

// ChannelNoisy returns the paper's channel with erasure noise: each
// non-silent slot flips to silence with probability p, drawn reproducibly
// from the run seed's derived channel stream. Panics unless 0 <= p <= 1.
func ChannelNoisy(p float64) ChannelModel { return model.Noisy(p) }

// ChannelJam returns the paper's channel with an adversarial jammer of
// budget q: the first q would-be successes become collisions. Panics on
// q < 0.
func ChannelJam(q int64) ChannelModel { return model.Jam(q) }

// Simultaneous builds the pattern where all given stations wake at slot s.
func Simultaneous(ids []int, s int64) WakePattern { return model.Simultaneous(ids, s) }

// ScenarioA builds Params for the known-start-time scenario (§3): stations
// know n and the first wake-up slot s.
func ScenarioA(n int, s int64, seed uint64) Params {
	return Params{N: n, S: s, Seed: seed}
}

// ScenarioB builds Params for the known-bound scenario (§4): stations know
// n and the bound k on awake stations.
func ScenarioB(n, k int, seed uint64) Params {
	return Params{N: n, K: k, S: -1, Seed: seed}
}

// ScenarioC builds Params for the zero-knowledge scenario (§5): stations
// know only n. Prefer this over a Params literal — the struct's zero value
// of S denotes a KNOWN start time 0 (Scenario A), not ignorance.
func ScenarioC(n int, seed uint64) Params {
	return Params{N: n, S: -1, Seed: seed}
}

// Run simulates one wake-up instance and stops at the first slot carrying a
// solo transmission. The returned Channel exposes the transcript when
// RunOptions.RecordTrace is set.
func Run(algo Algorithm, p Params, w WakePattern, opt RunOptions) (Result, *Channel, error) {
	return sim.Run(algo, p, w, opt)
}

// RunAll simulates until EVERY awake station has transmitted alone
// (conflict resolution); the algorithm must be feedback-driven (e.g.
// NewKGConflictResolution, NewTreeCD).
func RunAll(algo Algorithm, p Params, w WakePattern, opt RunOptions) (AllResult, error) {
	return sim.NewEngine().RunAll(algo, p, w, opt)
}

// The paper's algorithms ------------------------------------------------

// NewRoundRobin returns time-division multiplexing: ≤ n slots, optimal for
// k > n/c (Corollary 2.1).
func NewRoundRobin() Algorithm { return core.NewRoundRobin() }

// NewWakeupWithS returns the Scenario A algorithm (§3): requires Params.S.
// Θ(k log(n/k) + 1).
func NewWakeupWithS() *Interleaved { return core.NewWakeupWithS() }

// NewWakeupWithK returns the Scenario B algorithm (§4): requires Params.K.
// Θ(k log(n/k) + 1).
func NewWakeupWithK() *Interleaved { return core.NewWakeupWithK() }

// WakeupC is the Scenario C algorithm's concrete type (exported so callers
// can reach Horizon and the ablation switches).
type WakeupC = core.WakeupC

// NewWakeupC returns the Scenario C algorithm (§5): no knowledge of s or k.
// O(k log n log log n) (Theorem 5.3).
func NewWakeupC() *WakeupC { return core.NewWakeupC() }

// RPD is the §6 randomized baseline's concrete type.
type RPD = core.RPD

// NewRPD returns Repeated Probability Decrease with ℓ = 2⌈log n⌉: expected
// O(log n) wake-up.
func NewRPD() *RPD { return core.NewRPD() }

// NewRPDWithK returns RPD with ℓ = 2⌈log k⌉ (requires Params.K): expected
// O(log k), optimal by Kushilevitz–Mansour.
func NewRPDWithK() *RPD { return core.NewRPDWithK() }

// Extensions and baselines ----------------------------------------------

// NewKGConflictResolution returns the Komlós–Greenberg extension: run with
// RunAll to let every awake station transmit alone in O(k + k log(n/k)).
func NewKGConflictResolution() Algorithm { return core.NewKGConflictResolution() }

// NewTreeCD returns Capetanakis binary splitting (requires the ChannelCD
// channel, Adaptive run options, simultaneous start).
func NewTreeCD() Algorithm { return core.NewTreeCD() }

// NewLocalSSF returns the heuristic locally-synchronized baseline (see
// README "Departures from the paper", item 3).
func NewLocalSSF() Algorithm { return core.NewLocalSSF() }

// NewBEB returns binary exponential backoff, the Aloha/Ethernet practical
// baseline (no worst-case guarantee in this model).
func NewBEB() Algorithm { return core.NewBEB() }

// NewClockSkewed degrades the global clock: each of inner's stations
// perceives time with a private offset in [0, maxSkew]. Used to probe the
// paper's concluding conjecture that the global clock is essential (T12).
func NewClockSkewed(inner Algorithm, maxSkew int64) Algorithm {
	return core.NewClockSkewed(inner, maxSkew)
}

// Bounds ------------------------------------------------------------------

// BoundKLogNK returns the Scenario A/B bound k·log2(n/k)+k+1.
func BoundKLogNK(n, k int) int64 { return mathx.BoundKLogNK(n, k) }

// BoundKLogLogLog returns the Scenario C bound k·⌈log n⌉·⌈log log n⌉.
func BoundKLogLogLog(n, k int) int64 { return mathx.BoundKLogLogLog(n, k) }

// BoundLower returns Theorem 2.1's lower bound min{k, n−k+1}.
func BoundLower(n, k int) int64 { return mathx.BoundLowerMinKN(n, k) }

// WakeupWithSHorizon returns a safe simulation horizon for NewWakeupWithS.
func WakeupWithSHorizon(n, k int) int64 { return core.WakeupWithSHorizon(n, k) }

// WakeupWithKHorizon returns a safe simulation horizon for NewWakeupWithK.
func WakeupWithKHorizon(n, k int) int64 { return core.WakeupWithKHorizon(n, k) }

// Adversary ---------------------------------------------------------------

// SwapAdversary runs the Theorem 2.1 swap adversary against a deterministic
// algorithm and returns the witness set and forced rounds.
func SwapAdversary(algo Algorithm, p Params, k int, horizon int64, greedy bool) SwapResult {
	return adversary.Swap(algo, p, k, horizon, greedy)
}

// SpoilerAdversary mounts the white-box wake-time attack: it wakes a
// colliding partner at every would-be success slot until the budget of k−1
// extra stations is spent. The §4/§5 wait barriers neutralize it; ablated
// variants do not (experiment T8).
func SpoilerAdversary(algo Algorithm, p Params, k int, horizon int64) SpoilerResult {
	return SpoilerAdversaryFrom(algo, p, k, horizon, 1)
}

// SpoilerAdversaryFrom is SpoilerAdversary with an explicit initial station
// (wakes at slot 0, defines s); it panics on inputs the engine rejects.
func SpoilerAdversaryFrom(algo Algorithm, p Params, k int, horizon int64, firstID int) SpoilerResult {
	res, _, err := adversary.Spoiler(sim.NewEngine(), algo, p, k, firstID, sim.Options{Horizon: horizon, Seed: p.Seed})
	if err != nil {
		panic("nsmac: SpoilerAdversary: " + err.Error())
	}
	return res
}
