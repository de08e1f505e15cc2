package simclock_test

import (
	"testing"

	"clampi/internal/analysis/analysistest"
	"clampi/internal/analysis/simclock"
)

func TestSimClock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), simclock.Analyzer, "clock")
}

// TestSimtimeIsAllowlisted proves the one sanctioned wall-clock bridge
// — internal/simtime's Clock.Charge, which measures real-time work such
// as a socket exchange (time.Now/time.Since), and its test (time.Sleep)
// — reports no diagnostics.
func TestSimtimeIsAllowlisted(t *testing.T) {
	analysistest.RunClean(t, "../../..", simclock.Analyzer, "./internal/simtime")
}

// TestWholeTreeIsVirtualTime proves no package outside the allowlist
// samples the wall clock: determinism (and with it resumable,
// reproducible experiments) holds tree-wide.
func TestWholeTreeIsVirtualTime(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole tree; skipped in -short")
	}
	analysistest.RunClean(t, "../../..", simclock.Analyzer, "./...")
}
