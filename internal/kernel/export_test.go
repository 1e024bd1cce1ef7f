package kernel

// ErrIneligible is the error Reset wraps when it refuses a pairing.
var ErrIneligible = errIneligible

// SetCacheLimits shrinks the memo cache's eviction thresholds so boundary
// tests can drive a kernel past them without rendering 16 MiB of schedule
// words. Production kernels always run with the package constants.
func (k *Kernel) SetCacheLimits(words int64, entries int) {
	k.limitWords = words
	k.limitEntries = entries
}
