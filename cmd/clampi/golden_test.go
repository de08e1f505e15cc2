package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clampi/internal/experiments"
	"clampi/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the goldens and BENCH_micro.json from this run")

// goldenCases are the figure modes at their scaled defaults. A case's
// golden is testdata/<argv joined by "_", dashes dropped>.golden, with
// the exec mode before the suffix where the output names the mode.
var goldenCases = []struct {
	args    []string
	perMode bool // the output names the exec mode
	noMode  bool // the subcommand takes no -mode
}{
	{args: []string{"latency"}, noMode: true},
	{args: []string{"micro"}},
	{args: []string{"lcc", "-fig", "3"}},
	{args: []string{"lcc", "-fig", "15"}},
	{args: []string{"lcc", "-fig", "16"}},
	{args: []string{"lcc", "-fig", "17"}},
	{args: []string{"lcc", "-fig", "locality"}},
	{args: []string{"nbody", "-fig", "2"}},
	{args: []string{"nbody", "-fig", "2", "-paper"}}, // the paper's N: its magnitude is the claim
	{args: []string{"nbody", "-fig", "12"}},
	{args: []string{"nbody", "-fig", "13"}},
	{args: []string{"nbody", "-fig", "14"}},
	{args: []string{"ext"}},
	{args: []string{"stencil", "-compare"}},
	{args: []string{"stencil", "-compare", "-writeback"}},
	{args: []string{"chaos", "-app", "all", "-scenario", "all", "-seed", "42"}, perMode: true},
}

// TestGoldens runs every figure mode in-process in both exec modes and
// diffs its stdout against its golden. With -update the fidelity run
// rewrites the golden, which the throughput run is then held to.
func TestGoldens(t *testing.T) {
	for _, c := range goldenCases {
		name := strings.ReplaceAll(strings.Join(c.args, "_"), "-", "")
		for _, mode := range []string{"fidelity", "throughput"} {
			if c.noMode && mode != "fidelity" {
				continue
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				args, file := c.args, name+".golden"
				if !c.noMode {
					args = append(args[:len(args):len(args)], "-mode", mode)
				}
				if c.perMode {
					file = name + "." + mode + ".golden"
				}
				var stdout, stderr bytes.Buffer
				if err := run(args, &stdout, &stderr); err != nil {
					t.Fatalf("clampi %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
				}
				checkGolden(t, filepath.Join("testdata", file), stdout.Bytes(), mode == "fidelity" || c.perMode)
			})
		}
	}
}

// TestBenchMicroJSON holds the committed BENCH_micro.json to what
// `clampi micro -json` writes in fidelity mode, the mode the file records.
func TestBenchMicroJSON(t *testing.T) {
	committed, err := filepath.Abs(filepath.Join("..", "..", "BENCH_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	if err := run([]string{"micro", "-fig", "8", "-json", "-mode", "fidelity"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "BENCH_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, committed, got, true)
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update when rewrite is set.
func checkGolden(t *testing.T, path string, got []byte, rewrite bool) {
	t.Helper()
	if *update && rewrite {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs first at line %d:\n got: %q\nwant: %q\n(go test ./cmd/clampi -update rewrites the goldens)", path, i+1, g, w)
		}
	}
}

// TestChaosUnknownNames checks that a bad -app or -scenario is refused
// with every valid name listed.
func TestChaosUnknownNames(t *testing.T) {
	var scenarios []string
	for _, sc := range fault.Canned() {
		scenarios = append(scenarios, sc.Name)
	}
	for _, c := range []struct {
		flag  string
		names []string
	}{
		{"-app", experiments.ChaosApps()},
		{"-scenario", scenarios},
	} {
		err := run([]string{"chaos", c.flag, "nope"}, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("chaos %s nope: no error", c.flag)
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("chaos %s nope: error %q does not name %q", c.flag, err, name)
			}
		}
	}
}
