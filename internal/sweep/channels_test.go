package sweep_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// This file is the end-to-end coverage for the channels axis: registry
// resolution, grid enumeration and back-compatibility, the noisy:0 ≡ none
// differential, spec-document round trips, shard→merge byte identity for a
// perturbed grid, and the energy column's gating.

func TestResolveChannel(t *testing.T) {
	good := map[string]string{
		"none":       "none",
		"cd":         "cd",
		"sender_cd":  "sender_cd",
		"ack":        "ack",
		"noisy:0.05": "noisy:0.05",
		"noisy:0":    "noisy:0",
		"noisy:1":    "noisy:1",
		"noisy:0.5":  "noisy:0.5",
		"jam:3":      "jam:3",
		"jam:0":      "jam:0",
		" none ":     "none", // entries are trimmed like cases and patterns
	}
	for entry, want := range good {
		m, err := sweep.ResolveChannel(entry)
		if err != nil {
			t.Errorf("ResolveChannel(%q): %v", entry, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("ResolveChannel(%q).Name() = %q, want %q", entry, m.Name(), want)
		}
		// The wire name must re-resolve to an equivalent model.
		m2, err := sweep.ResolveChannel(m.Name())
		if err != nil || m2.Name() != m.Name() {
			t.Errorf("wire name %q does not round-trip: %v", m.Name(), err)
		}
	}

	bad := []string{
		"", "nope", "none:1", "cd:0", "sender_cd:2", "ack:x",
		"noisy", "noisy:", "noisy:-0.1", "noisy:1.5", "noisy:abc", "noisy:NaN",
		"jam", "jam:-1", "jam:0.5", "jam:x",
	}
	for _, entry := range bad {
		if _, err := sweep.ResolveChannel(entry); err == nil {
			t.Errorf("ResolveChannel(%q) accepted", entry)
		}
	}
}

// TestChannelsByName drives channel entries through SpecDoc.Resolve as
// wakeup-bench's -channels writes them: each entry resolves, in order, to
// the model whose Name() labels the channel axis; no entries means no
// channel axis; an empty entry (a stray comma) is an error.
func TestChannelsByName(t *testing.T) {
	doc := func(channels ...string) sweep.SpecDoc {
		return sweep.SpecDoc{Cases: []string{"wakeupc"}, Patterns: []string{"simultaneous"}, Channels: channels, Ns: []int{8}, Ks: []int{2}, Trials: 1}
	}
	ms := testSpec(t, doc("none", "noisy:0.25", "jam:2")).Channels
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	if !reflect.DeepEqual(names, []string{"none", "noisy:0.25", "jam:2"}) {
		t.Fatalf("resolved %v", names)
	}
	if ms := testSpec(t, doc()).Channels; ms != nil {
		t.Errorf("no entries resolved to %v", ms)
	}
	if _, err := doc("none", "", "cd").Resolve(); err == nil {
		t.Error("empty channel entry accepted")
	}
	found := false
	for _, name := range sweep.ChannelNames() {
		if name == "noisy" {
			found = true
		}
	}
	if !found {
		t.Errorf("ChannelNames() = %v, missing noisy", sweep.ChannelNames())
	}
}

// chanSpec builds a small real-algorithm spec with the given channel entries
// (empty list = no channel axis).
func chanSpec(t *testing.T, channels string) sweep.Spec {
	t.Helper()
	return testSpec(t, sweep.SpecDoc{
		Name: "chan", Cases: []string{"wakeupc", "roundrobin"},
		Patterns: []string{"staggered:3", "simultaneous"}, Channels: entries(channels),
		Ns: []int{48, 96}, Ks: []int{2, 5}, Trials: 3, Seed: 0xc4a2,
	})
}

// TestSpecWithoutChannelsIsPreChannelGrid pins the compatibility contract:
// a spec with no channels compiles to the exact pre-channel grid shape —
// four axes, four-column labels, no energy column in any rendering.
func TestSpecWithoutChannelsIsPreChannelGrid(t *testing.T) {
	g, err := chanSpec(t, "").Grid()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Axes, []string{"algo", "pattern", "n", "k"}) {
		t.Fatalf("axes = %v", g.Axes)
	}
	for _, cell := range g.Cells {
		if len(cell) != 4 {
			t.Fatalf("cell %v has %d labels", cell, len(cell))
		}
	}
	res, err := g.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text(), "energy") || strings.Contains(res.CSV(), "energy") {
		t.Error("pre-channel grid rendered an energy column")
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "energy") {
		t.Error("pre-channel grid JSON carries an energy field")
	}
}

// TestSpecChannelAxis: channels appear as the third axis, labels carry the
// wire name, and every rendering gains the energy column.
func TestSpecChannelAxis(t *testing.T) {
	spec := chanSpec(t, "none,noisy:0.2")
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Axes, []string{"algo", "pattern", "channel", "n", "k"}) {
		t.Fatalf("axes = %v", g.Axes)
	}
	// Documented order: cases > patterns > channels > ns > ks.
	if g.Cells[0][2] != "none" || g.Cells[4][2] != "noisy:0.2" {
		t.Fatalf("channel labels out of order: %v %v", g.Cells[0], g.Cells[4])
	}
	if len(g.Cells) != 2*2*2*2*2 {
		t.Fatalf("%d cells, want 32", len(g.Cells))
	}

	res, err := g.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text(), "energy") || !strings.Contains(res.CSV(), "energy") {
		t.Error("channel grid missing the energy column")
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(js, &parsed); err != nil {
		t.Fatal(err)
	}
	for i, c := range parsed.Cells {
		e, ok := c["energy"]
		if !ok {
			t.Fatalf("cell %d JSON has no energy", i)
		}
		if e.(float64) <= 0 {
			t.Fatalf("cell %d energy = %v, want > 0", i, e)
		}
	}
	// Energy must equal transmissions + listens from the aggregates.
	for i, c := range res.Cells {
		if want := c.Agg.Transmissions + c.Agg.Listens; c.Agg.Energy() != want {
			t.Fatalf("cell %d energy mismatch", i)
		}
	}
}

// TestNoisyZeroMatchesNoneCellForCell is the differential acceptance test:
// a channels ["noisy:0"] grid must equal the channels ["none"] grid cell for
// cell and sample for sample (identical cell indices → identical seeds →
// with p = 0 the noise never fires).
func TestNoisyZeroMatchesNoneCellForCell(t *testing.T) {
	resNone, err := chanSpec(t, "none").Execute()
	if err != nil {
		t.Fatal(err)
	}
	resZero, err := chanSpec(t, "noisy:0").Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(resNone.Cells) != len(resZero.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(resNone.Cells), len(resZero.Cells))
	}
	for i := range resNone.Cells {
		a, b := resNone.Cells[i], resZero.Cells[i]
		if !reflect.DeepEqual(a.Samples, b.Samples) {
			t.Fatalf("cell %v: samples differ under noisy:0", a.Cell)
		}
		if a.Agg.Trials != b.Agg.Trials || a.Agg.Successes != b.Agg.Successes ||
			a.Agg.Collisions != b.Agg.Collisions || a.Agg.Silences != b.Agg.Silences ||
			a.Agg.Transmissions != b.Agg.Transmissions || a.Agg.Listens != b.Agg.Listens {
			t.Fatalf("cell %v: aggregates differ under noisy:0", a.Cell)
		}
	}

	// And against the axis-free grid: the cells are the same modulo the
	// channel label column (same indices, same seeds, same samples).
	resBare, err := chanSpec(t, "").Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := range resBare.Cells {
		if !reflect.DeepEqual(resBare.Cells[i].Samples, resZero.Cells[i].Samples) {
			t.Fatalf("cell %d: channel axis changed the trials themselves", i)
		}
	}
}

// TestNoisyChannelActuallyPerturbs guards the opposite direction: a real
// noise level must change at least one cell (otherwise the axis is wired to
// nothing).
func TestNoisyChannelActuallyPerturbs(t *testing.T) {
	resNone, err := chanSpec(t, "none").Execute()
	if err != nil {
		t.Fatal(err)
	}
	resNoisy, err := chanSpec(t, "noisy:0.5").Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := range resNone.Cells {
		if !reflect.DeepEqual(resNone.Cells[i].Samples, resNoisy.Cells[i].Samples) {
			return // found a perturbed cell
		}
	}
	t.Fatal("noisy:0.5 changed nothing across the whole grid")
}

// TestNoisyGridWorkerInvariance: the perturbation draws from per-(cell,
// trial) derived streams, so a noisy grid renders byte-identically at any
// worker count.
func TestNoisyGridWorkerInvariance(t *testing.T) {
	mk := func(workers int) sweep.Spec {
		s := chanSpec(t, "noisy:0.3,jam:2")
		s.Workers = workers
		return s
	}
	base, err := mk(1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	bt := base.Text()
	for _, workers := range []int{2, 5, 0} {
		got, err := mk(workers).Execute()
		if err != nil {
			t.Fatal(err)
		}
		if got.Text() != bt {
			t.Fatalf("noisy grid output differs at workers=%d", workers)
		}
	}
}

// goldenChannelsDoc exercises the channels field alongside every other
// entry-grammar feature.
const goldenChannelsDoc = `{
  "name": "golden-channels",
  "cases": ["wakeupc", "roundrobin"],
  "patterns": ["staggered:3", "simultaneous"],
  "channels": ["none", "sender_cd", "noisy:0.05", "jam:2"],
  "ns": [48],
  "ks": [2, 5],
  "trials": 2,
  "seed": 7
}`

// TestSpecDocChannelsGoldenRoundTrip: decode → resolve → encode → decode →
// resolve must reproduce the identical grid (labels and fingerprint), and
// each resolved channel must be named by its entry, which labels the
// channel axis.
func TestSpecDocChannelsGoldenRoundTrip(t *testing.T) {
	doc, err := sweep.ParseSpecDoc([]byte(goldenChannelsDoc))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Channels) != 4 {
		t.Fatalf("resolved %d channels", len(spec.Channels))
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}

	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := sweep.ParseSpecDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatalf("encode/decode changed the document: %+v vs %+v", doc, doc2)
	}
	spec2, err := doc2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := spec2.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", g.Fingerprint(), g2.Fingerprint())
	}
	if !reflect.DeepEqual(g.Cells, g2.Cells) {
		t.Fatal("re-resolved labels differ")
	}

	names := make([]string, len(spec.Channels))
	for i, m := range spec.Channels {
		names[i] = m.Name()
	}
	if !reflect.DeepEqual(names, doc.Channels) {
		t.Fatalf("resolved channels are named %v, want %v", names, doc.Channels)
	}

	// A doc WITHOUT channels must encode without the field at all.
	doc.Channels = nil
	data, err = doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"channels":`) {
		t.Error("empty channels field leaked into the document encoding")
	}

	// And the golden grid executes.
	if _, err := spec.Execute(); err != nil {
		t.Fatalf("golden channels spec does not execute: %v", err)
	}
}

// TestSpecDocChannelErrors drives the channels resolve error paths.
func TestSpecDocChannelErrors(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"unknown channel", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["nope"],"ns":[8],"ks":[2],"trials":1}`},
		{"arg on argless channel", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["cd:1"],"ns":[8],"ks":[2],"trials":1}`},
		{"noise out of range", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["noisy:1.5"],"ns":[8],"ks":[2],"trials":1}`},
		{"missing noise arg", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["noisy"],"ns":[8],"ks":[2],"trials":1}`},
		{"fractional jam budget", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["jam:1.5"],"ns":[8],"ks":[2],"trials":1}`},
	}
	for _, tc := range bad {
		doc, err := sweep.ParseSpecDoc([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: decode failed: %v", tc.name, err)
		}
		if _, err := doc.Resolve(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNoisyShardMergeByteIdentical is the acceptance criterion for the new
// wire fields: a noisy-channel grid sharded at m ∈ {1, 3} and merged must
// render byte-identically — text, CSV and JSON — to the one-process run,
// which exercises the listens counter and the perturbation seeding across
// process boundaries (the envelopes round-trip through their JSON encoding
// here, exactly like the CLI path).
func TestNoisyShardMergeByteIdentical(t *testing.T) {
	spec := chanSpec(t, "noisy:0.25,jam:1")
	spec.Trials = 5
	whole, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	wholeText := whole.Text()
	wholeCSV := whole.CSV()
	wholeJSON, err := whole.Render("json")
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []int{1, 3} {
		shards := make([]*sweep.ShardResult, m)
		for i := 0; i < m; i++ {
			sr, err := spec.Shard(i, m)
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
			shards[i] = back
		}
		merged, err := sweep.Merge(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Text() != wholeText {
			t.Errorf("m=%d: merged text differs from one-process run", m)
		}
		if merged.CSV() != wholeCSV {
			t.Errorf("m=%d: merged CSV differs from one-process run", m)
		}
		mj, err := merged.Render("json")
		if err != nil {
			t.Fatal(err)
		}
		if mj != wholeJSON {
			t.Errorf("m=%d: merged JSON differs from one-process run", m)
		}
	}
}

// TestShardEnvelopeCarriesListens: the shard wire format ships the listens
// counter, so merged energy is exact.
func TestShardEnvelopeCarriesListens(t *testing.T) {
	spec := chanSpec(t, "none")
	sr, err := spec.Shard(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"listens"`) {
		t.Fatal("shard envelope has no listens field")
	}
	var total int64
	for _, c := range sr.Cells {
		total += c.Agg.Listens
	}
	if total == 0 {
		t.Error("every cell shipped zero listens — accounting not wired through")
	}
}

// TestWhiteBoxPredictsThroughChannel: a spoiler cell on a jammed channel
// must still be exact — the adversary's prediction accounts for the jammer,
// so replaying its pattern under the same channel reproduces the predicted
// outcome (the sweep panics internally if a white-box cell were
// knowledge-inconsistent; here we assert the spoiler still spoils).
func TestWhiteBoxPredictsThroughChannel(t *testing.T) {
	for _, entry := range []string{"jam:1", "noisy:0.3"} {
		spec := testSpec(t, sweep.SpecDoc{
			Name: "wb-" + entry, Cases: []string{"roundrobin"}, Patterns: []string{"spoiler"},
			Channels: []string{entry}, Ns: []int{24}, Ks: []int{4}, Trials: 4, Seed: 99,
		})
		res, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		// Exactness probe: the attack runs inside the engine, so every trial
		// yields a well-formed sample; a spoiled slot resolved on a second
		// perturbation draw would misalign the channel stream and trip the
		// differential below.
		spoiled := res.Cells[0].Agg
		if spoiled.Trials != 4 {
			t.Fatalf("%s: %+v", entry, spoiled)
		}

		// Differential: replay each trial's hosted pattern by hand with the
		// same derived seeds and channel; the sweep sample must match
		// exactly.
		c := spec.Cases[0]
		g := spec.Patterns[0]
		ch := spec.Channels[0]
		for trial := 0; trial < spec.Trials; trial++ {
			seed := sweep.TrialSeed(spec.Seed, 0, trial)
			algo := c.Algo(24, 4)
			p := c.Params(24, 4, seed)
			horizon := c.Horizon(24, 4)
			w := hostedPattern(t, g, algo, p, 4, horizon, seed, ch)
			res2 := refSample(refRunChannel(t, algo, p, w, horizon, seed, ch), horizon)
			if got := res.Cells[0].Samples[trial]; got != res2 {
				t.Fatalf("%s trial %d: sweep %+v != reference %+v", entry, trial, got, res2)
			}
		}
	}
}

// hostedPattern runs one white-box trial the way the sweep does, on a fresh
// engine, and returns the pattern the attack woke.
func hostedPattern(t *testing.T, g adversary.Generator, algo model.Algorithm, p model.Params, k int,
	horizon int64, seed uint64, ch model.ChannelModel) model.WakePattern {
	t.Helper()
	w, _, err := g.VsAlgo(sim.NewEngine(), algo, p, k, sweep.PatternSeed(seed), sim.Options{Horizon: horizon, Seed: seed, Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// refRunChannel replays one trial through a fresh engine under ch — the
// trusted baseline for the white-box differential (the pure-Go reference in
// differential_test.go covers the unperturbed path).
func refRunChannel(t *testing.T, algo model.Algorithm, p model.Params, w model.WakePattern,
	horizon int64, seed uint64, ch model.ChannelModel) model.Result {
	t.Helper()
	res, _, err := sim.Run(algo, p, w, sim.Options{Horizon: horizon, Seed: seed, Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
