package lint_test

import (
	"testing"

	"nsmac/internal/lint"
	"nsmac/internal/lint/linttest"
)

// TestScheduleClassEpoch is the stale-epoch-render regression: the
// StaleRender fixture's feedback observer mutates a field RenderWord never
// consults, and the analyzer must say so (and stay quiet on the delegating,
// inert and non-station fixtures).
func TestScheduleClassEpoch(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.ScheduleClass, "nsmac/epochfix")
}
