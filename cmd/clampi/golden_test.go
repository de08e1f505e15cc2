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
	"clampi/internal/schedtest"
)

var update = flag.Bool("update", false, "rewrite the goldens and BENCH_micro.json from this run")

// goldenCases are the figure modes at their scaled defaults. A case's
// golden is testdata/<argv joined by "_", dashes dropped>.golden.
var goldenCases = [][]string{
	{"latency"},
	{"micro"},
	{"lcc", "-fig", "3"},
	{"lcc", "-fig", "15"},
	{"lcc", "-fig", "16"},
	{"lcc", "-fig", "17"},
	{"lcc", "-fig", "locality"},
	{"nbody", "-fig", "2"},
	{"nbody", "-fig", "2", "-paper"}, // the paper's N: its magnitude is the claim
	{"nbody", "-fig", "12"},
	{"nbody", "-fig", "13"},
	{"nbody", "-fig", "14"},
	{"ext"},
	{"stencil", "-compare"},
	{"stencil", "-compare", "-writeback"},
	{"chaos", "-app", "all", "-scenario", "all", "-seed", "42"},
}

// TestGoldens runs every figure mode in-process under both goroutine
// schedules (see schedtest) and diffs its stdout against its golden.
// With -update the first schedule rewrites the golden, which the second
// is then held to.
func TestGoldens(t *testing.T) {
	for _, args := range goldenCases {
		name := strings.ReplaceAll(strings.Join(args, "_"), "-", "")
		for i, sched := range schedtest.Schedules {
			t.Run(name+"/"+sched.Name, func(t *testing.T) {
				sched.Set(t)
				var stdout, stderr bytes.Buffer
				if err := run(args, &stdout, &stderr); err != nil {
					t.Fatalf("clampi %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
				}
				checkGolden(t, filepath.Join("testdata", name+".golden"), stdout.Bytes(), i == 0)
			})
		}
	}
}

// TestBenchMicroJSON holds the committed BENCH_micro.json to what
// `clampi micro -json` writes.
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

	if err := run([]string{"micro", "-fig", "8", "-json"}, io.Discard, io.Discard); err != nil {
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
