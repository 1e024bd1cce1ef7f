package sim

// SteppingSparse reports whether the engine's current trial jumps over
// silent slots.
func (e *Engine) SteppingSparse() bool { return e.useSparse }
