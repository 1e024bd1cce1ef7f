package model

import (
	"strings"
	"testing"

	"nsmac/internal/rng"
)

// TestValidateRejectsChannelStreamID is the regression test for the
// station-ID/channel RNG stream collision: a station whose ID equals
// ChannelStream would derive the same stream the channel's perturbation
// draws from, correlating its randomized schedule with the noise process.
func TestValidateRejectsChannelStreamID(t *testing.T) {
	n := int(ChannelStream) + 10
	bad := WakePattern{IDs: []int{int(ChannelStream)}, Wakes: []int64{0}}
	err := bad.Validate(n)
	if err == nil {
		t.Fatal("pattern with station ID == ChannelStream validated")
	}
	if !strings.Contains(err.Error(), "channel RNG stream") {
		t.Errorf("collision error %q does not name the channel stream", err)
	}
	// Sanity check the actual collision the guard prevents: the two streams
	// really are identical for any run seed.
	const seed = 0x1234
	if rng.Derive(seed, uint64(int(ChannelStream))) != rng.Derive(seed, ChannelStream) {
		t.Fatal("collision premise broken: streams differ?")
	}
	// Neighbouring IDs stay valid — the guard is surgical.
	for _, id := range []int{int(ChannelStream) - 1, int(ChannelStream) + 1, 1, n} {
		ok := WakePattern{IDs: []int{id}, Wakes: []int64{0}}
		if err := ok.Validate(n); err != nil {
			t.Errorf("station %d rejected: %v", id, err)
		}
	}
}
