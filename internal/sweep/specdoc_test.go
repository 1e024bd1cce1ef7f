package sweep_test

import (
	"reflect"
	"strings"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/sweep"
)

// goldenDoc is the hand-written wire form the round-trip tests pin: every
// entry-grammar feature appears once (bare name, :arg, @start, scenario-A
// case argument). All patterns start at slot 5 to stay knowledge-consistent
// with the scenario-A case's S=5.
const goldenDoc = `{
  "name": "golden",
  "cases": ["wakeupc", "roundrobin", "wakeup_with_s:5"],
  "patterns": ["staggered:3@5", "uniform:16@5", "simultaneous@5"],
  "ns": [64, 128],
  "ks": [2, 8],
  "trials": 4,
  "seed": 99
}`

// TestSpecDocGoldenRoundTrip decodes the golden document, resolves it, and
// checks encode→decode→resolve reproduces the identical grid: same labels,
// same fingerprint (and therefore same derived seeds), cell for cell.
func TestSpecDocGoldenRoundTrip(t *testing.T) {
	doc, err := sweep.ParseSpecDoc([]byte(goldenDoc))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
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
	if !reflect.DeepEqual(g.Cells, g2.Cells) {
		t.Fatalf("re-resolved grid labels differ:\n%v\nvs\n%v", g.Cells, g2.Cells)
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("re-resolved grid fingerprint differs: %s vs %s", g.Fingerprint(), g2.Fingerprint())
	}
	if g.Seed != 99 || g.Trials != 4 {
		t.Fatalf("seed/trials not carried: %+v", g)
	}
	// The @5 start override and the scenario-A argument must be live, not
	// just parsed: the uniform pattern's name records its window and the
	// grid's execution must accept the S=5 knowledge (first wake at 5).
	wantLabel := []string{"wakeup_with_s", "uniform(window=16)", "64", "2"}
	found := false
	for _, cell := range g.Cells {
		if reflect.DeepEqual(cell, wantLabel) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected cell %v in grid %v", wantLabel, g.Cells)
	}
	if _, err := spec.Execute(); err != nil {
		t.Fatalf("golden spec does not execute: %v", err)
	}
}

// flagDoc is a document as wakeup-bench's axis flags write it for
// "-algos all" with no -patterns or -channels: the standard case list, the
// "suite" shorthand, no channel axis, entries spelled as typed.
func flagDoc() sweep.SpecDoc {
	return sweep.SpecDoc{
		Name: "custom", Cases: sweep.StandardCaseNames(), Patterns: []string{"suite"},
		Ns: []int{32, 64}, Ks: []int{2, 8}, Trials: 2, Seed: 3,
	}
}

// TestSpecDocMatchesFlagPath: the flags' document spells patterns as typed
// ("suite", "uniform", "staggered") where earlier dumps spelled each
// canonical expansion, so both spellings must compile to the same grid and
// render the same bytes. A pattern entry is trimmed before it is read, as
// case and channel entries are, "suite" included.
func TestSpecDocMatchesFlagPath(t *testing.T) {
	for _, pair := range [][2][]string{
		{{"suite"}, {"simultaneous", "staggered:1", "staggered:13", "uniform:64", "bursts:17"}},
		{{" suite "}, {"simultaneous", "staggered:1", "staggered:13", "uniform:64", "bursts:17"}},
		{{"uniform", "staggered", "bursts"}, {"uniform:64@0", "staggered:7", "bursts:7"}},
	} {
		typed, expanded := flagDoc(), flagDoc()
		typed.Patterns, expanded.Patterns = pair[0], pair[1]
		ts, es := testSpec(t, typed), testSpec(t, expanded)
		tg, err := ts.Grid()
		if err != nil {
			t.Fatal(err)
		}
		eg, err := es.Grid()
		if err != nil {
			t.Fatal(err)
		}
		if tg.Fingerprint() != eg.Fingerprint() {
			t.Fatalf("%v and %v compile to different grids: %s vs %s", pair[0], pair[1], tg.Fingerprint(), eg.Fingerprint())
		}
		tr, err := ts.Execute()
		if err != nil {
			t.Fatal(err)
		}
		er, err := es.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Text() != er.Text() || tr.CSV() != er.CSV() {
			t.Errorf("%v and %v render differently", pair[0], pair[1])
		}
	}
}

// TestSpecDumpRoundTrip: -dump-spec encodes the flags' document as written,
// so encode → parse gives back the same document (shorthand kept, absent
// channels still absent), re-encodes to the same bytes, and resolves to the
// same grid.
func TestSpecDumpRoundTrip(t *testing.T) {
	for _, channels := range [][]string{nil, {"none", "noisy:0.1"}} {
		doc := flagDoc()
		doc.Channels = channels
		dump, err := doc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(dump), `"channels"`); got != (channels != nil) {
			t.Errorf("channels %v: dump names a channel axis: %v\n%s", channels, got, dump)
		}
		back, err := sweep.ParseSpecDoc(dump)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, doc) {
			t.Fatalf("dump parsed to %+v, want %+v", back, doc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(dump) {
			t.Errorf("re-encoded\n%s\nnot\n%s", again, dump)
		}
		want, err := testSpec(t, doc).Grid()
		if err != nil {
			t.Fatal(err)
		}
		got, err := testSpec(t, back).Grid()
		if err != nil {
			t.Fatal(err)
		}
		if want.Fingerprint() != got.Fingerprint() {
			t.Errorf("channels %v: dumped document resolves to a different grid", channels)
		}
	}
}

// TestSpecDocErrors drives the decode and resolve error paths: unknown
// names, bad arguments, malformed JSON, unknown fields, degenerate axes.
func TestSpecDocErrors(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"unknown case", `{"name":"x","cases":["nope"],"patterns":["simultaneous"],"ns":[8],"ks":[2],"trials":1}`},
		{"unknown pattern", `{"name":"x","cases":["wakeupc"],"patterns":["nope"],"ns":[8],"ks":[2],"trials":1}`},
		{"case arg on argless algorithm", `{"name":"x","cases":["wakeupc:3"],"patterns":["simultaneous"],"ns":[8],"ks":[2],"trials":1}`},
		{"bad pattern arg", `{"name":"x","cases":["wakeupc"],"patterns":["staggered:x"],"ns":[8],"ks":[2],"trials":1}`},
		{"negative pattern arg", `{"name":"x","cases":["wakeupc"],"patterns":["staggered:-1"],"ns":[8],"ks":[2],"trials":1}`},
		{"bad start", `{"name":"x","cases":["wakeupc"],"patterns":["staggered:3@x"],"ns":[8],"ks":[2],"trials":1}`},
		{"bad swap arg", `{"name":"x","cases":["wakeupc"],"patterns":["swap:7"],"ns":[8],"ks":[2],"trials":1}`},
		{"ignored start override", `{"name":"x","cases":["wakeupc"],"patterns":["spoiler@5"],"ns":[8],"ks":[2],"trials":1}`},
		{"zero trials", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"ns":[8],"ks":[2],"trials":0}`},
		{"non-positive axis", `{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"ns":[0],"ks":[2],"trials":1}`},
	}
	for _, tc := range bad {
		doc, err := sweep.ParseSpecDoc([]byte(tc.doc))
		if err != nil {
			continue // decode-level rejection also counts
		}
		if _, err := doc.Resolve(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	decodeBad := []struct {
		name string
		doc  string
	}{
		{"syntax", `{"name":`},
		{"unknown field", `{"name":"x","workers":8}`},
		{"trailing data", `{"name":"x"}{"name":"y"}`},
		{"wrong type", `{"name":"x","ns":"256"}`},
	}
	for _, tc := range decodeBad {
		if _, err := sweep.ParseSpecDoc([]byte(tc.doc)); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

// TestRegistryExtension registers a custom case and pattern the way an API
// user would and runs a spec document that references them by name.
func TestRegistryExtension(t *testing.T) {
	sweep.RegisterCase("testalgo", func(arg int64, hasArg bool) (sweep.Case, error) {
		density := int64(2)
		if hasArg {
			density = arg
		}
		return sweep.Case{
			Name:    "testalgo",
			Algo:    func(n, k int) model.Algorithm { return hashAlgo{density: int(density)} },
			Params:  func(n, k int, seed uint64) model.Params { return model.Params{N: n, S: -1, Seed: seed} },
			Horizon: func(n, k int) int64 { return 400 },
		}, nil
	})
	sweep.RegisterPattern("testpat", func(arg int64, hasArg bool, start int64) (adversary.Generator, error) {
		return adversary.Generator{
			Name: "testpat",
			Generate: func(_ model.WakePattern, n, k int, seed uint64) model.WakePattern {
				ids := make([]int, k)
				for i := range ids {
					ids[i] = i + 1
				}
				return model.Simultaneous(ids, start)
			},
		}, nil
	})

	found := false
	for _, name := range sweep.CaseNames() {
		if name == "testalgo" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered case not listed")
	}

	doc, err := sweep.ParseSpecDoc([]byte(`{
		"name": "ext",
		"cases": ["testalgo:3"],
		"patterns": ["testpat"],
		"ns": [16], "ks": [4], "trials": 3, "seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Agg.Trials != 3 {
		t.Fatalf("extension spec ran wrong: %+v", res.Cells)
	}
	// Duplicate registration is a programmer error and must panic.
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterCase did not panic")
		}
	}()
	sweep.RegisterCase("testalgo", func(arg int64, hasArg bool) (sweep.Case, error) {
		return sweep.Case{}, nil
	})
}

// FuzzSpecDocDecode asserts the decode→resolve pipeline never panics on
// arbitrary input, and that documents that survive decoding re-encode.
func FuzzSpecDocDecode(f *testing.F) {
	f.Add([]byte(goldenDoc))
	f.Add([]byte(goldenChannelsDoc))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","cases":["wakeupc"],"patterns":["swap:1"],"ns":[8],"ks":[2],"trials":1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"cases":[""],"patterns":["@"],"ns":[-1],"ks":[],"trials":-1}`))
	f.Add([]byte(`{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"channels":["noisy:0.5","jam:1","ack"],"ns":[8],"ks":[2],"trials":1}`))
	f.Add([]byte(`{"channels":["noisy:-1","noisy:1e309",":","jam:"],"trials":1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := sweep.ParseSpecDoc(data)
		if err != nil {
			return
		}
		if _, err := doc.Encode(); err != nil {
			t.Fatalf("decoded doc does not re-encode: %v", err)
		}
		// Resolve may reject the document, but it must never panic.
		spec, err := doc.Resolve()
		if err != nil {
			return
		}
		// Resolved specs must at least enumerate without panicking. (Don't
		// execute, and skip grids whose cross product would just burn fuzz
		// time: the fuzzer would happily build million-cell grids.)
		channels := len(spec.Channels)
		if channels == 0 {
			channels = 1
		}
		if len(spec.Cases)*len(spec.Patterns)*channels*len(spec.Ns)*len(spec.Ks) > 1<<14 {
			return
		}
		_, _, _ = spec.Compile()
	})
}
