// Package kernel is kept for the benchmark's per-cell route table, which
// reads Class. The closed form itself lives in sim.Engine.Run (see
// sim.ClosedForm); this package computes nothing.
package kernel

import (
	"nsmac/internal/model"
	"nsmac/internal/sim"
)

// Class reports whether Engine.Run finishes a trial of the pairing in
// closed form (see sim.ClosedForm), ok == false meaning it steps the trial
// slot by slot. A closed-form pairing always reports SeedSensitive: its
// outcome depends on the trial's pattern and channel draws, so nothing may
// be reused across trials.
func Class(algo model.Algorithm, opt sim.Options) (model.ScheduleClass, bool) {
	if !sim.ClosedForm(algo, opt) {
		return model.ScheduleClass{}, false
	}
	return model.ScheduleClass{SeedSensitive: true}, true
}
