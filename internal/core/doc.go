// Package core implements the contention-resolution algorithms of
// De Marco & Kowalski, "Contention Resolution in a Non-Synchronized
// Multiple Access Channel" (IPDPS 2013), plus the comparison baselines and
// extensions the experiment suite measures against them.
//
// The paper's algorithms:
//
//   - RoundRobin — time-division multiplexing; ≤ n slots, collision-free,
//     optimal for k > n/c (§2, Corollary 2.1).
//   - SelectAmongFirst + WakeupWithS — Scenario A (known start time s):
//     stations woken at s run a concatenation of (n,2^j)-selective
//     families; interleaved with round-robin this is Θ(k log(n/k)+1) (§3).
//   - WaitAndGo + WakeupWithK — Scenario B (known bound k): a cyclic
//     concatenation of (n,2^i)-selective families, i ≤ ⌈log k⌉, where newly
//     woken stations wait for the next family boundary; interleaved with
//     round-robin, Θ(k log(n/k)+1) (§4).
//   - WakeupC — Scenario C (neither s nor k): Protocol wakeup(u,σ) scanning
//     the waking matrix of §5; O(k log n log log n) (Theorem 5.3).
//   - RPD — the randomized Repeated-Probability-Decrease baseline of §6
//     (Jurdziński & Stachowiak), expected O(log n), or O(log k) with k
//     known.
//
// Baselines and extensions:
//
//   - LocalSSF — a heuristic locally-synchronized stand-in for Chlebus et
//     al.'s O(k log² n) protocol (the paper cites it as the best prior
//     bound for Scenario C-like settings; see README "Departures from the
//     paper", item 3).
//   - TreeCD — Capetanakis-style binary splitting under collision
//     detection, the classic contrast model (§1).
//   - KGConflictResolution — the Komlós–Greenberg objective (§1 related
//     work): every awake station must transmit alone; stations retire on
//     hearing their own success, the only feedback the weak model carries.
//
// Every algorithm implements model.Algorithm; the ones with provable
// termination bounds also implement Bounded, which the simulator's horizon
// guards are derived from.
package core
