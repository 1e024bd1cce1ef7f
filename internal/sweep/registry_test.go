package sweep

import (
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
)

// withEmptyRegistries empties the registries for the rest of the test and
// restores the registered names when it ends.
func withEmptyRegistries(t *testing.T) {
	regMu.Lock()
	defer regMu.Unlock()
	cr, co, pr, po, chr, cho := caseReg, caseOrder, patternReg, patternOrder, channelReg, channelOrder
	caseReg, caseOrder = map[string]CaseFactory{}, nil
	patternReg, patternOrder = map[string]PatternFactory{}, nil
	channelReg, channelOrder = map[string]ChannelFactory{}, nil
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		caseReg, caseOrder, patternReg, patternOrder, channelReg, channelOrder = cr, co, pr, po, chr, cho
	})
}

// TestRegisterChecksNameGrammar: each Register* panics on a name outside
// the entry grammar's bare-name production ^[a-z][a-z0-9_]*$ and accepts one
// inside it.
func TestRegisterChecksNameGrammar(t *testing.T) {
	withEmptyRegistries(t)
	registers := []struct {
		kind     string
		register func(name string)
	}{
		{"RegisterCase", func(name string) {
			RegisterCase(name, func(int64, bool) (Case, error) { return Case{}, nil })
		}},
		{"RegisterPattern", func(name string) {
			RegisterPattern(name, func(int64, bool, PatternShape) (adversary.Generator, error) {
				return adversary.Generator{}, nil
			})
		}},
		{"RegisterChannel", func(name string) {
			RegisterChannel(name, func(string, bool) (model.ChannelModel, error) { return model.None(), nil })
		}},
	}
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	for _, r := range registers {
		for _, bad := range []string{"Bad", "9x", "a-b", "a:b"} {
			if !panics(func() { r.register(bad) }) {
				t.Errorf("%s(%q) did not panic", r.kind, bad)
			}
		}
		if panics(func() { r.register("wakeup_with_s") }) {
			t.Errorf("%s(%q) panicked", r.kind, "wakeup_with_s")
		}
	}
}
