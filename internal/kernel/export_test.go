package kernel

// ErrIneligible is the error Reset wraps when it refuses a pairing.
var ErrIneligible = errIneligible
