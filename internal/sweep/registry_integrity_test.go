package sweep_test

import (
	"testing"

	"nsmac/internal/sweep"
)

// channelArgExamples supplies a canonical argument for the channel families
// that refuse to resolve argless.
var channelArgExamples = map[string]string{
	"noisy": "noisy:0.05",
	"jam":   "jam:3",
}

// channelEntry is a registered channel name as a resolvable entry.
func channelEntry(name string) string {
	if ex, ok := channelArgExamples[name]; ok {
		return ex
	}
	return name
}

// TestRegistryNamesResolve: every registered name resolves, argless or with
// its example argument, and a resolved channel's Name() — which labels the
// grid's channel axis — re-resolves to a channel of the same name.
func TestRegistryNamesResolve(t *testing.T) {
	for _, name := range sweep.CaseNames() {
		if _, err := sweep.ResolveCase(name); err != nil {
			t.Errorf("case %q does not resolve argless: %v", name, err)
		}
	}
	for _, name := range sweep.PatternNames() {
		if _, err := sweep.ResolvePattern(name, 0); err != nil {
			t.Errorf("pattern %q does not resolve argless: %v", name, err)
		}
	}
	for _, name := range sweep.ChannelNames() {
		m, err := sweep.ResolveChannel(channelEntry(name))
		if err != nil {
			t.Errorf("channel %q does not resolve from %q: %v", name, channelEntry(name), err)
			continue
		}
		back, err := sweep.ResolveChannel(m.Name())
		if err != nil {
			t.Errorf("channel %q: name %q does not re-resolve: %v", name, m.Name(), err)
			continue
		}
		if back.Name() != m.Name() {
			t.Errorf("channel %q: name drifts across resolution: %q -> %q", name, m.Name(), back.Name())
		}
	}
}

// TestRegistrySpecDocRoundTrip drives every registered name (including arg'd
// and @start-shifted spellings) through resolve → encode → parse → resolve:
// both resolutions must compile to grids with the same fingerprint.
func TestRegistrySpecDocRoundTrip(t *testing.T) {
	doc := sweep.SpecDoc{
		Name:     "registry-integrity",
		Cases:    append(sweep.CaseNames(), "wakeup_with_s:5"),
		Patterns: append(sweep.PatternNames(), "staggered:9", "uniform:32@5", "swap:1"),
		Ns:       []int{8},
		Ks:       []int{2},
		Trials:   1,
		Seed:     7,
	}
	for _, name := range sweep.ChannelNames() {
		doc.Channels = append(doc.Channels, channelEntry(name))
	}

	g, err := testSpec(t, doc).Grid()
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := sweep.ParseSpecDoc(encoded)
	if err != nil {
		t.Fatalf("re-parsing the encoded document: %v", err)
	}
	back, err := testSpec(t, parsed).Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != back.Fingerprint() {
		t.Fatalf("the re-parsed document resolves to a different grid: %s vs %s", g.Fingerprint(), back.Fingerprint())
	}
}
