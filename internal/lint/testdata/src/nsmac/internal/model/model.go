// Package model is the fixture stub of nsmac/internal/model: the Feedback
// and ScheduleClass vocabulary the epoch and scheduleclass fixtures build on.
package model

type Feedback uint8

const (
	Silence Feedback = iota
	Success
	Collision
)

type ScheduleClass struct {
	SeedSensitive bool
	WakeSensitive bool
	LocalClock    bool
	Config        uint64
}

func ConfigFields(parts ...uint64) uint64 {
	h := uint64(len(parts))
	for _, p := range parts {
		h = h<<7 ^ p
	}
	return h
}

func ConfigString(s string) uint64 { return uint64(len(s)) }

type Params struct {
	N, K int
	S    int64
	Seed uint64
}

type TransmitFunc func(t int64) bool
