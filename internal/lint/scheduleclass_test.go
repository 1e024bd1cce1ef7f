package lint_test

import (
	"testing"

	"nsmac/internal/lint"
	"nsmac/internal/lint/linttest"
)

// TestScheduleClass is the memo-poisoning regression: the TwoKnob fixture's
// ConfigFields omits a knob its Build reads, and the analyzer must say so.
func TestScheduleClass(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.ScheduleClass, "nsmac/schedfix")
}

// TestScheduleClassEpoch is the stale-epoch-render regression: the
// StaleRender fixture's feedback observer mutates a field RenderWord never
// consults, and the analyzer must say so (and stay quiet on the delegating,
// inert and non-station fixtures).
func TestScheduleClassEpoch(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.ScheduleClass, "nsmac/epochfix")
}
