package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
)

// SpecDoc is the one description of a sweep grid: the JSON document that
// ships a grid between processes and machines, and what wakeup-bench's axis
// flags write before they run. Cases, patterns and channels are referenced
// by registry entry (`name[:arg]` for cases and channels,
// `name[:arg][@start]` for patterns — see ResolveCase, ResolvePattern and
// ResolveChannel), so a document resolves to the identical closure-based
// Spec wherever the same names are registered. Resolution runs one way,
// document to Spec; a Spec is never converted back. The worker count is
// deliberately absent: it never changes a sweep's bytes, so it stays a
// per-process flag rather than traveling with the grid.
type SpecDoc struct {
	// Name labels the sweep in rendered output.
	Name string `json:"name"`
	// Cases are algorithm case entries ("wakeupc", "wakeup_with_s:5").
	Cases []string `json:"cases"`
	// Patterns are wake-pattern entries ("staggered:7", "uniform:64@5",
	// "spoiler"); "suite" expands to the standard adversary suite. Entries
	// without an explicit argument use the documented defaults (gap 7,
	// window width 64, start slot 0).
	Patterns []string `json:"patterns"`
	// Channels are channel-model entries ("none", "cd", "sender_cd", "ack",
	// "noisy:<p>", "jam:<q>"). Absent or empty keeps the paper's channel and
	// omits the channel axis, so documents written before the field — and
	// their output bytes — are unchanged.
	Channels []string `json:"channels,omitempty"`
	// Ns and Ks are the universe-size and awake-count axes.
	Ns []int `json:"ns"`
	Ks []int `json:"ks"`
	// Trials is the per-cell trial count.
	Trials int `json:"trials"`
	// Seed keys the whole sweep; every per-(cell, trial) stream derives
	// from it, so the document pins the sweep byte-for-byte.
	Seed uint64 `json:"seed"`
}

// ParseSpecDoc decodes a spec document strictly: unknown fields and trailing
// data are errors, so typos in hand-written grids surface instead of
// silently shrinking the sweep. Semantic validation happens in Resolve.
func ParseSpecDoc(data []byte) (SpecDoc, error) {
	var d SpecDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return SpecDoc{}, fmt.Errorf("sweep: bad spec document: %w", err)
	}
	// Reject trailing tokens ("{}{}", concatenated docs) — one document is
	// one grid.
	if dec.More() {
		return SpecDoc{}, fmt.Errorf("sweep: trailing data after spec document")
	}
	return d, nil
}

// Encode renders the document as deterministic indented JSON with a trailing
// newline — the canonical on-disk form.
func (d SpecDoc) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Resolve compiles the document to an executable Spec against the case and
// pattern registries. The returned spec has zero Workers (a run-time knob);
// set it before Execute if the default doesn't fit.
func (d SpecDoc) Resolve() (Spec, error) {
	if d.Trials < 1 {
		return Spec{}, fmt.Errorf("sweep: spec %q needs trials >= 1, have %d", d.Name, d.Trials)
	}
	for _, axis := range [][]int{d.Ns, d.Ks} {
		for _, v := range axis {
			if v < 1 {
				return Spec{}, fmt.Errorf("sweep: spec %q has non-positive axis value %d", d.Name, v)
			}
		}
	}
	var cases []Case
	for _, entry := range d.Cases {
		c, err := ResolveCase(entry)
		if err != nil {
			return Spec{}, err
		}
		cases = append(cases, c)
	}
	var patterns []adversary.Generator
	for _, entry := range d.Patterns {
		if strings.TrimSpace(entry) == "suite" {
			patterns = append(patterns, adversary.Suite()...)
			continue
		}
		g, err := ResolvePattern(entry, 0)
		if err != nil {
			return Spec{}, err
		}
		patterns = append(patterns, g)
	}
	var channels []model.ChannelModel
	for _, entry := range d.Channels {
		m, err := ResolveChannel(entry)
		if err != nil {
			return Spec{}, err
		}
		channels = append(channels, m)
	}
	return Spec{
		Name:     d.Name,
		Cases:    cases,
		Patterns: patterns,
		Channels: channels,
		Ns:       append([]int(nil), d.Ns...),
		Ks:       append([]int(nil), d.Ks...),
		Trials:   d.Trials,
		Seed:     d.Seed,
	}, nil
}
