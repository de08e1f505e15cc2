package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"clampi/internal/analysis"
	"clampi/internal/analysis/suite"
)

// registeredNames is the one place the analyzer set is asserted (go test
// ./... runs it in CI): the suite names exactly these six analyzers,
// in reporting order.
var registeredNames = []string{
	"epochcheck", "simclock", "sentinelerr", "atomicfield",
	"observerlock", "wireproto",
}

// TestSuiteRegistration guards against silent deregistration: All()
// must name exactly the six analyzers -list advertises.
func TestSuiteRegistration(t *testing.T) {
	all := suite.All()
	if len(all) != len(registeredNames) {
		t.Fatalf("suite.All() has %d analyzers, want %d", len(all), len(registeredNames))
	}
	for i, a := range all {
		if a.Name != registeredNames[i] {
			t.Errorf("suite.All()[%d] = %s, want %s", i, a.Name, registeredNames[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// fakeDiags builds two diagnostics at known positions for the printers.
func fakeDiags() (*token.FileSet, []analysis.Diagnostic) {
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, 100)
	f.AddLine(10)
	return fset, []analysis.Diagnostic{
		{Pos: f.Pos(5), Analyzer: "observerlock", Message: `Observer notified under "mu"`},
		{Pos: f.Pos(15), Analyzer: "wireproto", Message: "op OpX has no opNames entry"},
	}
}

// TestPrintDiagsHuman pins the default "pos: analyzer: message" lines.
func TestPrintDiagsHuman(t *testing.T) {
	fset, diags := fakeDiags()
	var buf bytes.Buffer
	printDiags(&buf, fset, diags, false)
	want := "x.go:1:6: observerlock: Observer notified under \"mu\"\nx.go:2:6: wireproto: op OpX has no opNames entry\n"
	if buf.String() != want {
		t.Errorf("human output:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestPrintDiagsJSON asserts the -json mode: one JSON object per line
// with the stable analyzer/position/message keys, quoting included.
func TestPrintDiagsJSON(t *testing.T) {
	fset, diags := fakeDiags()
	var buf bytes.Buffer
	printDiags(&buf, fset, diags, true)

	var got []jsonDiag
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		var d jsonDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if strings.ContainsAny(line, "\n") {
			t.Errorf("diagnostic spans lines: %q", line)
		}
		got = append(got, d)
	}
	if len(got) != len(diags) {
		t.Fatalf("got %d JSON lines, want %d", len(got), len(diags))
	}
	for i, d := range diags {
		if got[i].Analyzer != d.Analyzer || got[i].Message != d.Message {
			t.Errorf("line %d = %+v, want analyzer %s message %q", i, got[i], d.Analyzer, d.Message)
		}
		if got[i].Position != fset.Position(d.Pos).String() {
			t.Errorf("line %d position = %s, want %s", i, got[i].Position, fset.Position(d.Pos))
		}
	}
}
