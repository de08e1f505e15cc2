package main

import (
	"strings"
	"testing"
)

// TestJudge drives the verdict function over hand-made results: one row
// per way a line can fail, the two ways it can pass, and a gated or
// baselined name whose benchmark produced nothing.
func TestJudge(t *testing.T) {
	// Every gated benchmark ran clean, except as overridden below.
	results := make(map[string]Result)
	for name := range zeroAllocGated {
		results[name] = Result{NsPerOp: 100}
	}
	for name := range vnsCeiling {
		results[name] = Result{NsPerOp: 100}
	}
	results["BenchmarkOpHitFull"] = Result{NsPerOp: 90, VNsPerOp: 108, AllocsPerOp: 1}
	results["BenchmarkOpBatchHitFull"] = Result{NsPerOp: 100, VNsPerOp: 120}
	results["BenchmarkOpMissEvict"] = Result{NsPerOp: 126}
	results["BenchmarkOpSeq16Miss"] = Result{NsPerOp: 125}
	results["BenchmarkOpNew"] = Result{NsPerOp: 1}
	delete(results, "BenchmarkOpL2SiblingForward")
	base := map[string]Result{
		"BenchmarkOpHitFull":   {NsPerOp: 100},
		"BenchmarkOpMissEvict": {NsPerOp: 100},
		"BenchmarkOpSeq16Miss": {NsPerOp: 100},
		"BenchmarkOpGone":      {NsPerOp: 100},
	}
	want := map[string]string{
		"BenchmarkOpHitFull":          "FAIL: full-hit path allocates",
		"BenchmarkOpBatchHitFull":     "FAIL: 120.0 vns/op exceeds the 119",
		"BenchmarkOpMissEvict":        "FAIL: 126.0 ns/op is 1.26x baseline",
		"BenchmarkOpSeq16Miss":        "ok (1.25x baseline)",
		"BenchmarkOpNew":              "ok (no baseline entry)",
		"BenchmarkOpL2SiblingForward": "FAIL: gated or baselined, but the benchmark produced no result",
		"BenchmarkOpGone":             "FAIL: gated or baselined, but the benchmark produced no result",
	}

	got := judge(results, base, 1.25)
	if len(got) != len(results)+2 {
		t.Errorf("%d verdicts, want one per result plus the two names without one (%d)", len(got), len(results)+2)
	}
	for i, v := range got {
		if i > 0 && got[i-1].name >= v.name {
			t.Errorf("verdicts not sorted: %s before %s", got[i-1].name, v.name)
		}
		if _, ran := results[v.name]; v.ran != ran {
			t.Errorf("%s: ran=%v, want %v", v.name, v.ran, ran)
		}
		w, ok := want[v.name]
		if !ok {
			w = "ok (no baseline entry)"
		}
		if !strings.HasPrefix(v.status, w) || v.failed != strings.HasPrefix(w, "FAIL") {
			t.Errorf("%s: failed=%v, status %q, want %q", v.name, v.failed, v.status, w)
		}
		delete(want, v.name)
	}
	for name := range want {
		t.Errorf("no verdict for %s", name)
	}
}
