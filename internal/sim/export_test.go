package sim

// SteppingSparse reports whether the engine's current trial jumps over
// silent slots.
func (e *Engine) SteppingSparse() bool { return e.useSparse }

// SteppingBatched reports whether the engine's current trial asks a cohort
// for each slot's transmitters.
func (e *Engine) SteppingBatched() bool { return e.useCohort }
