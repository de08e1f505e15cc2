package lockorder_test

import (
	"testing"

	"clampi/internal/analysis/analysistest"
	"clampi/internal/analysis/lockorder"
)

// TestLockOrder drives the corpus: every sanctioned shape is clean and
// every hierarchy violation — direct and interprocedural — is reported
// on the expected line.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockord")
}

// TestLockOrderLiveTree proves the package holding the stripes and the
// packages that take them respect the hierarchy: loaded together, so
// summaries propagate across their package boundaries, the analyzer
// reports nothing (the two structural stripe tests in internal/mpi carry
// reviewed escape directives).
func TestLockOrderLiveTree(t *testing.T) {
	analysistest.RunClean(t, "../../..", lockorder.Analyzer,
		"./internal/rma", "./internal/mpi", "./internal/wire", "./internal/core")
}
