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
		results[name] = Result{}
	}
	for name := range vnsCeiling {
		results[name] = Result{}
	}
	results["BenchmarkOpHitFull"] = Result{VNsPerOp: 108, AllocsPerOp: 1}
	results["BenchmarkOpBatchHitFull"] = Result{VNsPerOp: 120}
	results["BenchmarkOpSeq16Miss"] = Result{VNsPerOp: 1257}
	results["BenchmarkOpNew"] = Result{VNsPerOp: 1}
	delete(results, "BenchmarkOpNotifyDrain")
	base := map[string]Result{
		"BenchmarkOpHitFull":   {VNsPerOp: 108},
		"BenchmarkOpSeq16Miss": {VNsPerOp: 1257},
		"BenchmarkOpGone":      {VNsPerOp: 100},
	}
	want := map[string]string{
		"BenchmarkOpHitFull":      "FAIL: full-hit path allocates",
		"BenchmarkOpBatchHitFull": "FAIL: 120.0 vns/op exceeds the 119",
		"BenchmarkOpSeq16Miss":    "ok",
		"BenchmarkOpNew":          "ok (no baseline entry)",
		"BenchmarkOpNotifyDrain":  "FAIL: gated or baselined, but the benchmark produced no result",
		"BenchmarkOpGone":         "FAIL: gated or baselined, but the benchmark produced no result",
	}

	got := judge(results, base)
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
		// FAIL statuses carry the measured numbers after the prefix; the
		// two ok statuses are exact ("ok" is a prefix of the other).
		wantFail := strings.HasPrefix(w, "FAIL")
		if v.failed != wantFail || !strings.HasPrefix(v.status, w) || (!wantFail && v.status != w) {
			t.Errorf("%s: failed=%v, status %q, want %q", v.name, v.failed, v.status, w)
		}
		delete(want, v.name)
	}
	for name := range want {
		t.Errorf("no verdict for %s", name)
	}
}
