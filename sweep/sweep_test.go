package sweep_test

import (
	"fmt"
	"testing"

	"nsmac/sweep"
)

// TestPublicSpecDocPath drives the whole public surface the way an API user
// would: decode a document, resolve it against the registries, run it, and
// reassemble the same result from shards.
func TestPublicSpecDocPath(t *testing.T) {
	doc, err := sweep.ParseSpecDoc([]byte(`{
		"name": "public",
		"cases": ["wakeupc", "roundrobin"],
		"patterns": ["staggered:3", "simultaneous"],
		"ns": [64], "ks": [2, 8], "trials": 4, "seed": 17
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	wholeText := whole.Text()
	if len(whole.Cells) != 8 { // 2 cases × 2 patterns × 1 n × 2 ks
		t.Fatalf("got %d cells, want 8", len(whole.Cells))
	}

	var shards []*sweep.ShardResult
	for i := 0; i < 3; i++ {
		sr, err := spec.Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := sweep.DecodeShardResult(data)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, back)
	}
	merged, err := sweep.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Text() != wholeText {
		t.Error("public shard→merge path is not byte-identical to the whole run")
	}

	// The registry and helper surface must be reachable through the public
	// package too.
	if len(sweep.CaseNames()) < len(sweep.StandardCaseNames()) {
		t.Error("registry listing truncated")
	}
	if got := sweep.ShardTrials(5, 1, 2); got != 2 {
		t.Errorf("ShardTrials(5,1,2) = %d, want 2", got)
	}
	if sweep.TrialSeed(17, 0, 1) == sweep.TrialSeed(17, 1, 0) {
		t.Error("trial seeds collide")
	}
}

// ExampleMerge shows the cross-process workflow end to end: resolve one
// document, run it as three shards (here in one process), merge, and render.
func ExampleMerge() {
	doc, _ := sweep.ParseSpecDoc([]byte(`{
		"name": "example",
		"cases": ["roundrobin"],
		"patterns": ["simultaneous"],
		"ns": [16], "ks": [4], "trials": 6, "seed": 1
	}`))
	spec, _ := doc.Resolve()

	var shards []*sweep.ShardResult
	for i := 0; i < 3; i++ {
		sr, _ := spec.Shard(i, 3) // each of these can run on its own machine
		shards = append(shards, sr)
	}
	res, _ := sweep.Merge(shards...)
	csv := res.CSV()
	fmt.Print(csv[:len(csv)-len("\n")])
	// Output:
	// algo,pattern,n,k,trials,ok,mean,median,p95,max,collisions,silences,transmissions,success_rate
	// roundrobin,simultaneous@0,16,4,6,6,2.5,1.0,8.2,10,0,15,6,1.000
}
