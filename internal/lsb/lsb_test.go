package lsb

import (
	"math/rand"
	"strings"
	"testing"

	"clampi/internal/simtime"
)

func TestSummarizeEmpty(t *testing.T) {
	r := Summarize(nil)
	if r.N != 0 || r.Median != 0 {
		t.Fatalf("empty summarize = %+v", r)
	}
}

func TestSummarizeBasics(t *testing.T) {
	r := Summarize([]simtime.Duration{5, 1, 3})
	if r.Median != 3 || r.Min != 1 || r.Max != 5 || r.Mean != 3 || r.N != 3 {
		t.Fatalf("summarize = %+v", r)
	}
	r = Summarize([]simtime.Duration{1, 2, 3, 4})
	if r.Median != 2 { // (2+3)/2
		t.Fatalf("even median = %v", r.Median)
	}
	if r.String() == "" {
		t.Fatalf("empty String")
	}
}

func TestCIBracketsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]simtime.Duration, 200)
	for i := range samples {
		samples[i] = simtime.Duration(1000 + rng.Intn(100))
	}
	r := Summarize(samples)
	if r.CILow > r.Median || r.CIHigh < r.Median {
		t.Fatalf("CI [%v, %v] does not bracket median %v", r.CILow, r.CIHigh, r.Median)
	}
	if !r.Converged(0.2) {
		t.Fatalf("tight distribution did not converge at 20%%: %+v", r)
	}
}

func TestConvergedZeroMedian(t *testing.T) {
	r := Summarize([]simtime.Duration{0, 0, 0, 0, 0})
	if !r.Converged(0.05) {
		t.Fatalf("all-zero samples should converge")
	}
}

func TestPaperConvergenceCriterion(t *testing.T) {
	// The paper's 95%-CI-within-5%-of-median criterion on a realistic
	// noisy latency distribution (±10% uniform noise): met by 100 reps.
	rng := rand.New(rand.NewSource(3))
	samples := make([]simtime.Duration, 100)
	for i := range samples {
		samples[i] = simtime.Duration(1800 + rng.Intn(360) - 180)
	}
	if r := Summarize(samples); !r.Converged(0.05) {
		t.Fatalf("did not converge: %+v after %d reps", r, len(samples))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "size", "latency", "speedup")
	tb.AddRow(4096, simtime.Duration(1234), 2.5)
	tb.AddRow(16384, simtime.Duration(5678), 1.25)
	out := tb.String()
	if !strings.Contains(out, "Fig X") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "2.5") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableUntitled(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Fatalf("untitled table printed title marker")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", `with,comma and "quote"`)
	out := tb.CSV()
	want := "a,b\nplain,\"with,comma and \"\"quote\"\"\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
