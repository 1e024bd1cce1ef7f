package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nsmac/internal/sweep"
)

// Manifest is the campaign submission document: many sweep grids, each a
// full SpecDoc, named against one run store. It is the unit `wakeup-bench
// submit` ships to the campaign server — the natural home of a cross-paper
// comparison (several algorithm rosters as separate grids, merged results
// served per grid while shards are still in flight).
type Manifest struct {
	// Name labels the campaign in status output ("campaign" if empty).
	Name string `json:"name,omitempty"`
	// Grids are the campaign's sweeps, leased out shard by shard.
	Grids []ManifestGrid `json:"grids"`
}

// ManifestGrid is one named sweep inside a campaign.
type ManifestGrid struct {
	// ID names the grid within the campaign (unique, URL-safe:
	// [a-z0-9_-]+). Status and results are addressed by it.
	ID string `json:"id"`
	// Spec is the grid document itself — the same SpecDoc `wakeup-bench
	// -spec` runs, byte-identically.
	Spec sweep.SpecDoc `json:"spec"`
	// Shards fixes the shard count of the trial-striped plan. Zero lets the
	// server autotune it from the per-trial wall clock it observed on
	// completed shards.
	Shards int `json:"shards,omitempty"`
}

// ParseManifest decodes a manifest strictly: unknown fields and trailing
// data are errors (matching ParseSpecDoc), so a typo in a hand-written
// campaign surfaces instead of silently dropping a grid. Structural
// validation runs too; spec documents themselves are resolved at submission.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: bad manifest: %w", err)
	}
	if dec.More() {
		return Manifest{}, fmt.Errorf("campaign: trailing data after manifest")
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Validate checks the manifest's structure: at least one grid, unique
// URL-safe grid IDs, non-negative shard counts.
func (m Manifest) Validate() error {
	if len(m.Grids) == 0 {
		return fmt.Errorf("campaign: manifest has no grids")
	}
	seen := make(map[string]bool, len(m.Grids))
	for i, g := range m.Grids {
		if g.ID == "" {
			return fmt.Errorf("campaign: grid %d has no id", i)
		}
		if !validGridID(g.ID) {
			return fmt.Errorf("campaign: grid id %q is not URL-safe (want [a-z0-9_-]+)", g.ID)
		}
		if seen[g.ID] {
			return fmt.Errorf("campaign: duplicate grid id %q", g.ID)
		}
		seen[g.ID] = true
		if g.Shards < 0 {
			return fmt.Errorf("campaign: grid %q declares %d shards", g.ID, g.Shards)
		}
	}
	return nil
}

// SingleGrid wraps one spec document as a one-grid manifest — the
// `wakeup-bench submit -spec` convenience form.
func SingleGrid(name, gridID string, doc sweep.SpecDoc, shards int) Manifest {
	if gridID == "" {
		gridID = "grid"
	}
	return Manifest{Name: name, Grids: []ManifestGrid{{ID: gridID, Spec: doc, Shards: shards}}}
}

// validGridID reports whether id fits the URL-safe grammar [a-z0-9_-]+.
func validGridID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return len(id) > 0
}
