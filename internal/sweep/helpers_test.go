package sweep_test

import (
	"strings"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/sweep"
)

// testSpec resolves a test grid's document, failing the test on error.
func testSpec(t testing.TB, d sweep.SpecDoc) sweep.Spec {
	t.Helper()
	spec, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// testPatterns resolves pattern entries with the default shape, for tests
// that drive generators without a grid.
func testPatterns(t testing.TB, entries ...string) []adversary.Generator {
	t.Helper()
	out := make([]adversary.Generator, len(entries))
	for i, entry := range entries {
		g, err := sweep.ResolvePattern(entry, sweep.DefaultPatternShape())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = g
	}
	return out
}

// entries splits a comma-separated entry list; an empty list has none.
func entries(list string) []string {
	return strings.FieldsFunc(list, func(r rune) bool { return r == ',' })
}
