// Package model is the fixture stub of nsmac/internal/model: the Feedback
// vocabulary the epoch fixtures build on.
package model

type Feedback uint8

const (
	Silence Feedback = iota
	Success
	Collision
)
