package campaign

import "nsmac/internal/sweep"

// LeaseGrant is the server's answer to a successful lease request: one
// shard of one grid, carrying the dispatch.ShardPlan the server made — the
// full spec document, its fingerprint and cell count, and the plan
// coordinates. The worker runs exactly this plan without planning the grid
// again. The Local executor compares Fingerprint with the grid it compiles
// from Doc, so a server/worker version skew that changes planning is
// caught before any trial runs; an out-of-process executor's envelope is
// checked against the plan when it comes back.
type LeaseGrant struct {
	// LeaseID names the lease in heartbeat/complete/fail calls.
	LeaseID string `json:"lease_id"`
	// Campaign and Grid locate the shard's grid.
	Campaign string `json:"campaign"`
	Grid     string `json:"grid"`
	// Doc is the grid's spec document, verbatim.
	Doc sweep.SpecDoc `json:"doc"`
	// Fingerprint is the grid fingerprint the envelope must carry.
	Fingerprint string `json:"fingerprint"`
	// Cells is the resolved cell count of the grid.
	Cells int `json:"cells"`
	// Shard and Shards are the trial-striped plan coordinates.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Attempt is this lease's 1-based attempt number on the shard.
	Attempt int `json:"attempt"`
	// Steal marks a duplicate lease on a straggler's shard.
	Steal bool `json:"steal,omitempty"`
	// LeaseSeconds is the visibility timeout; workers should heartbeat at
	// a comfortable fraction of it.
	LeaseSeconds float64 `json:"lease_seconds"`
}

// CampaignStatus is one campaign's progress report.
type CampaignStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Done is true once every grid is complete and none failed.
	Done bool `json:"done"`
	// Failed is true if any grid failed terminally.
	Failed bool         `json:"failed,omitempty"`
	Grids  []GridStatus `json:"grids"`
}

// GridStatus is one grid's progress within a campaign.
type GridStatus struct {
	ID string `json:"id"`
	// Fingerprint is the resolved grid's fingerprint, set at submission.
	Fingerprint string `json:"fingerprint,omitempty"`
	Cells       int    `json:"cells"`
	Trials      int    `json:"trials"`
	// Autotuned marks a grid whose shard count the server chose.
	Autotuned bool `json:"autotuned,omitempty"`
	// Shards is the planned shard count (0 until planned).
	Shards int `json:"shards"`
	// Done/InFlight/Pending partition the planned shards.
	Done     int `json:"done"`
	InFlight int `json:"in_flight"`
	Pending  int `json:"pending"`
	// Attempts totals lease grants across all shards.
	Attempts int `json:"attempts"`
	// Complete is true once every shard has a validated envelope and, on a
	// server with a store, every save of one has returned (StoreError names
	// a failed save).
	Complete bool `json:"complete"`
	// Failed carries the grid's terminal error, if any.
	Failed string `json:"failed,omitempty"`
	// StoreError surfaces a persistence failure (results still served
	// from memory).
	StoreError string `json:"store_error,omitempty"`
}

// submitResponse answers POST /v1/campaigns.
type submitResponse struct {
	Campaign string `json:"campaign"`
}

// heartbeatResponse answers POST /v1/lease/{id}/heartbeat.
type heartbeatResponse struct {
	LeaseSeconds float64 `json:"lease_seconds"`
}

// completeResponse answers POST /v1/lease/{id}/complete.
type completeResponse struct {
	// Duplicate marks a completion that lost a steal race; the shard was
	// already done and the upload was discarded (identical bytes anyway).
	Duplicate bool `json:"duplicate,omitempty"`
}

// failRequest is the body of POST /v1/lease/{id}/fail.
type failRequest struct {
	Error string `json:"error"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}
