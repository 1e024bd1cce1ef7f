package sweep

import (
	"net/http"

	"nsmac/internal/campaign"
)

// Sweep as a service (aliases into nsmac/internal/campaign): a long-lived
// campaign server owns a queue of shard work cut from submitted manifests —
// many spec documents against one RunStore — and pull-based workers lease
// shards over HTTP/JSON, heartbeat to keep their visibility timeout alive,
// and upload validated envelopes. Leases expire and re-enqueue when a
// worker dies; stragglers get stolen; shard counts autotune from observed
// wall clock. Merged results stream while shards are in flight and finish
// byte-identical to the one-process run.
//
//	srv := sweep.NewCampaignServer(sweep.CampaignOptions{
//	    Store: &sweep.RunStore{Dir: "runs"},
//	})
//	go http.ListenAndServe(addr, sweep.CampaignHandler(srv))
//	...
//	cl := sweep.NewCampaignClient("http://"+addr, nil)
//	id, _ := cl.Submit(ctx, sweep.NewCampaign("night-sweep", "grid", doc, 0))
//	w := &sweep.CampaignWorker{Client: cl, ID: "w1"}
//	_ = w.Run(ctx)
//
// The same machinery backs `wakeup-bench serve`, `submit`, `status` and
// `work`, and, inside one process, Driver and `wakeup-bench run`: there the
// workers call the server directly instead of over HTTP.
type (
	// CampaignManifest is the campaign submission document: named grids
	// (full spec documents) with optional fixed shard counts.
	CampaignManifest = campaign.Manifest
	// CampaignGrid is one named sweep inside a manifest.
	CampaignGrid = campaign.ManifestGrid
	// CampaignOptions configures a campaign server (lease timeout, steal
	// grace, attempt caps, autotune targets, store, clock).
	CampaignOptions = campaign.Options
	// CampaignServer owns the shard queue and the lease lifecycle.
	CampaignServer = campaign.Server
	// CampaignClient speaks the server's HTTP API.
	CampaignClient = campaign.Client
	// CampaignWorker pulls leases and runs them through an Executor.
	CampaignWorker = campaign.Worker
	// CampaignWorkerEvent is one machine-readable worker progress record.
	CampaignWorkerEvent = campaign.WorkerEvent
	// CampaignStatus reports one campaign's progress.
	CampaignStatus = campaign.CampaignStatus
	// CampaignLeaseGrant is one leased shard with its full plan coordinates.
	CampaignLeaseGrant = campaign.LeaseGrant
	// CampaignClock abstracts server time for deterministic lease tests.
	CampaignClock = campaign.Clock
)

// NewCampaignServer builds a campaign server with the given options.
func NewCampaignServer(opts CampaignOptions) *CampaignServer {
	return campaign.NewServer(opts)
}

// CampaignHandler builds the server's HTTP API (submit, lease, heartbeat,
// complete, fail, status, incremental results).
func CampaignHandler(s *CampaignServer) http.Handler { return campaign.Handler(s) }

// NewCampaignClient returns a client for the campaign server at base;
// httpClient nil uses http.DefaultClient.
func NewCampaignClient(base string, httpClient *http.Client) *CampaignClient {
	return campaign.NewClient(base, httpClient)
}

// ParseCampaignManifest decodes and validates a manifest strictly (unknown
// fields and trailing data are errors).
func ParseCampaignManifest(data []byte) (CampaignManifest, error) {
	return campaign.ParseManifest(data)
}

// NewCampaign wraps one spec document as a one-grid manifest — the
// `wakeup-bench submit -spec` convenience form (shards 0 = autotune).
func NewCampaign(name, gridID string, doc SpecDoc, shards int) CampaignManifest {
	return campaign.SingleGrid(name, gridID, doc, shards)
}
