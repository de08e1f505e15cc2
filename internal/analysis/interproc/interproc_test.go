package interproc_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"clampi/internal/analysis"
	"clampi/internal/analysis/interproc"
)

// loadEngine loads the ip corpus and returns the engine over it, built
// exactly the way an analyzer obtains it: through a Pass's Program.
func loadEngine(t *testing.T) *interproc.Engine {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "ip"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader().LoadDir(dir, "ip")
	if err != nil {
		t.Fatal(err)
	}
	var eng *interproc.Engine
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "captures the interproc engine for golden assertions",
		Run: func(pass *analysis.Pass) error {
			eng = interproc.For(pass)
			return nil
		},
	}
	if _, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("probe analyzer did not run")
	}
	return eng
}

// TestCallGraph asserts the resolved edges: direct calls, method
// calls, the method-value call, and the recursion cycle's back edge.
func TestCallGraph(t *testing.T) {
	eng := loadEngine(t)
	want := map[string][]string{
		"ip.viaHelper":   {"ip.withLock"},
		"ip.methodValue": {"ip.(S).lockStripe"},
		"ip.even":        {"ip.odd"},
		"ip.odd":         {"ip.even"},
		"ip.withLock":    nil,
	}
	for id, edges := range want {
		if got := eng.Callees(id); !reflect.DeepEqual(got, edges) && !(len(got) == 0 && len(edges) == 0) {
			t.Errorf("Callees(%s) = %v, want %v", id, got, edges)
		}
	}
}

// TestGoldenSummaries pins the lock-set summaries of every corpus
// shape. Query order matters only for the recursion cycle, where the
// test documents the cut: even is summarized first, so odd's recursive
// view of even is the empty summary.
func TestGoldenSummaries(t *testing.T) {
	eng := loadEngine(t)

	type golden struct {
		id         string
		during     []interproc.LockClass
		netAcquire map[interproc.LockClass]int
		netRelease map[interproc.LockClass]int
	}
	cases := []golden{
		// Net-effect helpers.
		{id: "ip.(S).lockStripe", during: []interproc.LockClass{interproc.LockStripe},
			netAcquire: map[interproc.LockClass]int{interproc.LockStripe: 1}},
		{id: "ip.(S).unlockStripe",
			netRelease: map[interproc.LockClass]int{interproc.LockStripe: 1}},
		// Defer-released bracket: During stripe, net zero.
		{id: "ip.withLock", during: []interproc.LockClass{interproc.LockStripe}},
		// During propagates through a pure-call chain.
		{id: "ip.viaHelper", during: []interproc.LockClass{interproc.LockStripe}},
		// The method value resolves: the acquire arrives through
		// f := s.lockStripe (net +1), the direct Unlock balances it.
		{id: "ip.methodValue", during: []interproc.LockClass{interproc.LockStripe}},
		// Recursion: even's own acquire is seen; odd — summarized
		// inside even's computation — saw the in-progress cut and
		// records no effects (documented caveat).
		{id: "ip.even", during: []interproc.LockClass{interproc.LockStripe}},
		{id: "ip.odd"},
	}
	// Force the documented query order for the cycle.
	_ = eng.Summary("ip.even")

	for _, g := range cases {
		s := eng.Summary(g.id)
		for _, c := range []interproc.LockClass{interproc.LockStripe} {
			want := false
			for _, d := range g.during {
				if d == c {
					want = true
				}
			}
			if got := s.AcquiresDuring(c); got != want {
				t.Errorf("%s: During[%s] = %v, want %v", g.id, c, got, want)
			}
		}
		if !equalCounts(s.NetAcquire, g.netAcquire) {
			t.Errorf("%s: NetAcquire = %v, want %v", g.id, s.NetAcquire, g.netAcquire)
		}
		if !equalCounts(s.NetRelease, g.netRelease) {
			t.Errorf("%s: NetRelease = %v, want %v", g.id, s.NetRelease, g.netRelease)
		}
	}
}

func equalCounts(got, want map[interproc.LockClass]int) bool {
	if len(want) == 0 {
		return len(got) == 0
	}
	return reflect.DeepEqual(got, want)
}

// TestFunctionsIndexed asserts the FuncID scheme over the corpus: the
// package functions and methods are indexed under their stable IDs.
func TestFunctionsIndexed(t *testing.T) {
	eng := loadEngine(t)
	indexed := make(map[string]bool)
	for _, id := range eng.Functions() {
		indexed[id] = true
	}
	for _, id := range []string{
		"ip.withLock", "ip.viaHelper", "ip.methodValue",
		"ip.even", "ip.odd",
		"ip.(S).lockStripe", "ip.(S).unlockStripe",
	} {
		if !indexed[id] {
			t.Errorf("Functions() missing %s (have %v)", id, eng.Functions())
		}
	}
}
