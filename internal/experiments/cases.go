package experiments

import (
	"fmt"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/sweep"
)

// This file registers the experiment drivers' ablation and robustness
// variants as named sweep cases, so spec documents (and wakeup-bench -algos
// lists) can place them on a grid next to the standard algorithms: the T8
// ablation cells and the T12 clock-skew probe become declarable workloads
// instead of closures private to one driver. The names resolve in any binary
// that links this package (cmd/wakeup-bench and cmd/wakeup-sim do).
func init() {
	scenC := func(n, k int, seed uint64) model.Params {
		return model.Params{N: n, S: -1, Seed: seed}
	}
	scenB := func(n, k int, seed uint64) model.Params {
		return model.Params{N: n, K: k, S: -1, Seed: seed}
	}

	// The §4 wait_and_go component and its T8(a) ablation (family-boundary
	// wait removed). Both run against the standard variant's horizon, as the
	// T8 comparison prescribes.
	sweep.RegisterCase("waitandgo", func(arg int64, hasArg bool) (sweep.Case, error) {
		if hasArg {
			return sweep.Case{}, fmt.Errorf("experiments: algorithm \"waitandgo\" takes no argument")
		}
		return sweep.Case{
			Name:    "waitandgo",
			Ref:     "waitandgo",
			Algo:    func(n, k int) model.Algorithm { return core.NewWaitAndGo() },
			Params:  scenB,
			Horizon: func(n, k int) int64 { return core.NewWaitAndGo().Horizon(n, k) },
		}, nil
	})
	sweep.RegisterCase("waitandgo_nowait", func(arg int64, hasArg bool) (sweep.Case, error) {
		if hasArg {
			return sweep.Case{}, fmt.Errorf("experiments: algorithm \"waitandgo_nowait\" takes no argument")
		}
		return sweep.Case{
			Name:    "waitandgo_nowait",
			Ref:     "waitandgo_nowait",
			Algo:    func(n, k int) model.Algorithm { return &core.WaitAndGo{DisableWait: true} },
			Params:  scenB,
			Horizon: func(n, k int) int64 { return core.NewWaitAndGo().Horizon(n, k) },
		}, nil
	})

	// The T8(b) ablation: wakeup(n) without the µ(σ) window alignment.
	sweep.RegisterCase("wakeupc_nowindow", func(arg int64, hasArg bool) (sweep.Case, error) {
		if hasArg {
			return sweep.Case{}, fmt.Errorf("experiments: algorithm \"wakeupc_nowindow\" takes no argument")
		}
		return sweep.Case{
			Name:    "wakeupc_nowindow",
			Ref:     "wakeupc_nowindow",
			Algo:    func(n, k int) model.Algorithm { return &core.WakeupC{DisableWindowWait: true} },
			Params:  scenC,
			Horizon: func(n, k int) int64 { return core.NewWakeupC().Horizon(n, k) },
		}, nil
	})

	// The T8(c) descent-constant sweep: "wakeupc_c:4" runs wakeup(n) with
	// C = 4. The argument is required — without it this is just "wakeupc".
	sweep.RegisterCase("wakeupc_c", func(arg int64, hasArg bool) (sweep.Case, error) {
		if !hasArg || arg < 1 {
			return sweep.Case{}, fmt.Errorf("experiments: \"wakeupc_c\" needs a positive descent constant (e.g. wakeupc_c:4)")
		}
		c := int(arg)
		return sweep.Case{
			Name:    fmt.Sprintf("wakeupc_c%d", c),
			Ref:     fmt.Sprintf("wakeupc_c:%d", c),
			Algo:    func(n, k int) model.Algorithm { return &core.WakeupC{C: c} },
			Params:  scenC,
			Horizon: func(n, k int) int64 { return (&core.WakeupC{C: c}).Horizon(n, k) },
		}, nil
	})

	// The T12 clock-skew probe: "clockskew:2048" degrades wakeup(n)'s global
	// clock by private per-station offsets in [0, 2048]. The horizon is 8×
	// the undegraded bound, matching the T12 driver's allowance.
	sweep.RegisterCase("clockskew", func(arg int64, hasArg bool) (sweep.Case, error) {
		skew := int64(64)
		ref := "clockskew"
		if hasArg {
			skew = arg
			ref = fmt.Sprintf("clockskew:%d", skew)
		}
		return sweep.Case{
			Name:    fmt.Sprintf("clockskew%d", skew),
			Ref:     ref,
			Algo:    func(n, k int) model.Algorithm { return core.NewClockSkewed(core.NewWakeupC(), skew) },
			Params:  scenC,
			Horizon: func(n, k int) int64 { return 8 * core.NewWakeupC().Horizon(n, k) },
		}, nil
	})
}
