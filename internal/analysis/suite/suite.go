// Package suite registers the clampi-vet analyzers. cmd/clampi-vet and
// the integration tests consume the suite through All so the set is
// defined in exactly one place.
package suite

import (
	"clampi/internal/analysis"
	"clampi/internal/analysis/atomicfield"
	"clampi/internal/analysis/epochcheck"
	"clampi/internal/analysis/observerlock"
	"clampi/internal/analysis/sentinelerr"
	"clampi/internal/analysis/simclock"
	"clampi/internal/analysis/wireproto"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		epochcheck.Analyzer,
		simclock.Analyzer,
		sentinelerr.Analyzer,
		atomicfield.Analyzer,
		observerlock.Analyzer,
		wireproto.Analyzer,
	}
}
