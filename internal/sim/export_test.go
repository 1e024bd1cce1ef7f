package sim

// SteppingSparse reports whether the engine's current trial may jump over
// silent slots: it steps a Batched algorithm's own cohort and its channel
// lets silence be skipped.
func (e *Engine) SteppingSparse() bool { return e.SteppingBatched() && e.ch.SkipsSilence() }

// SteppingBatched reports whether the engine's current trial asks a
// Batched algorithm's own cohort for each slot's transmitters.
func (e *Engine) SteppingBatched() bool { return e.cohort != nil && e.cohort == e.batched }

// Absorbed reports whether Run or RunHooked would now finish the trial
// without stepping it further (see absorbed).
func (e *Engine) Absorbed() bool { return e.absorbed() }
