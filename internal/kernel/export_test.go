package kernel

// ErrIneligible is the error Run wraps when it refuses a pairing.
var ErrIneligible = errIneligible
