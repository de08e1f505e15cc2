// Package lockord is the lockorder corpus: a miniature of the clampi
// data-path stripes covering the sanctioned shapes (clean) and every
// violation of the ascending order (want).
package lockord

import "sync"

// table mirrors the striped data path of rma.Stripes.
type table struct {
	stripes []sync.RWMutex // clampi:lockrank stripe
}

// ---------------------------------------------------------------------------
// Sanctioned shapes — all clean.
// ---------------------------------------------------------------------------

// ascendingConst takes two stripes with constant, strictly increasing
// indices — the provable total order.
func ascendingConst(t *table) {
	t.stripes[0].Lock()
	t.stripes[1].Lock()
	t.stripes[1].Unlock()
	t.stripes[0].Unlock()
}

// ascendingLoop mirrors rma.Stripes.Lock/Unlock: one stripe per
// iteration of an upward loop, shared or exclusive per the caller.
func ascendingLoop(t *table, excl bool) {
	for i := 0; i < len(t.stripes); i++ {
		if excl {
			t.stripes[i].Lock()
		} else {
			t.stripes[i].RLock()
		}
	}
	for i := len(t.stripes) - 1; i >= 0; i-- {
		if excl {
			t.stripes[i].Unlock()
		} else {
			t.stripes[i].RUnlock()
		}
	}
}

// escapeHatch is a real violation acknowledged with the escape
// directive — the finding on that line is suppressed.
func escapeHatch(t *table) {
	t.stripes[1].Lock()
	t.stripes[0].Lock() //clampi:lockorder corpus proof that the escape directive suppresses the finding
	t.stripes[0].Unlock()
	t.stripes[1].Unlock()
}

// ---------------------------------------------------------------------------
// Violations.
// ---------------------------------------------------------------------------

// descendingStripes walks the stripe array downward — an inversion of
// the ascending total order by construction.
func descendingStripes(t *table) {
	for i := len(t.stripes) - 1; i >= 0; i-- {
		t.stripes[i].Lock() // want "descending loop"
	}
	for i := 0; i < len(t.stripes); i++ {
		t.stripes[i].Unlock()
	}
}

// reorderedPair takes two constant stripes in the wrong order — the
// deliberately-reordered lock pair of the acceptance criteria.
func reorderedPair(t *table) {
	t.stripes[1].Lock()
	t.stripes[0].Lock() // want "without provably ascending indices"
	t.stripes[0].Unlock()
	t.stripes[1].Unlock()
}

// lockStripe0 takes a stripe on its caller's behalf.
func lockStripe0(t *table) { t.stripes[0].Lock() }

// nestedStripeViaHelper holds a stripe while a callee takes another.
func nestedStripeViaHelper(t *table) {
	t.stripes[2].Lock()
	lockStripe0(t) // want "may acquire a stripe lock while a stripe is held"
	t.stripes[0].Unlock()
	t.stripes[2].Unlock()
}
