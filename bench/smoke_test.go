package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"
	"time"

	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/wire"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go")

// TestMain lets the test binary play the server child: the _wire
// workloads re-execute whatever binary they run in.
func TestMain(m *testing.M) {
	if spec := os.Getenv(serveEnv); spec != "" {
		os.Exit(serveMain(spec))
	}
	os.Exit(m.Run())
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced,
// and checks that verification passes and every named metric is there.
func TestWorkloadsToy(t *testing.T) {
	dir, err := scratchDir()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	o := options{seed: 7, seconds: 0.05, toy: true}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			e := &env{seed: o.seed, toy: true, dir: dir}
			plain, err := runUntraced(w, e, o)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, e, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				res  result
				defs []metricDef
			}{{plain.result(false), endToEnd}, {traced.result(true), perLayer}} {
				if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", r.res.Correct, r.res.Failed, r.res.Attempted)
				}
				if len(r.res.Metrics) != len(r.defs) {
					t.Errorf("%d metrics reported, %d defined", len(r.res.Metrics), len(r.defs))
				}
				for _, d := range r.defs {
					v, ok := r.res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: %+v (reported %v)", d.Name, v, ok)
					}
				}
			}
			for name, v := range plain.result(false).Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", name, v.Value)
				}
			}
			if w.sim && traced.layers["core.self_ns_per_op"]+traced.layers["app.self_ns_per_op"] <= 0 {
				t.Error("the traced rep attributed no time above the rma boundary")
			}
			if _, err := json.Marshal(traced.result(true)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSON holds the driver's contract file in step with the
// tables in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	contract := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 18,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if w.ungated {
			continue
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
		contract.Workloads = append(contract.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range perLayer {
		contract.PerLayer = append(contract.PerLayer, perLayerJSON{d.Name, d.Unit, d.Better})
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	want, err := json.MarshalIndent(contract, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with spec.go; run go test -run TestBenchmarkJSON -update", path)
	}
}

// bareWindow is a backend without any optional extension.
type bareWindow struct{ rma.Window }

// TestDecoratorExtensions checks that the tracing decorator answers the
// core's type assertions exactly as the backend under it does.
func TestDecoratorExtensions(t *testing.T) {
	log := newSpanLog(time.Now())
	err := mpi.Run(1, mpi.Config{}, func(r *mpi.Rank) error {
		win := r.WinCreate(make([]byte, 64), nil)
		defer win.Free()
		rw, _, err := trace(win, log)
		if err != nil {
			return err
		}
		if _, ok := rw.(rma.DeadlineWindow); ok {
			t.Error("the decorator gives the simulated backend a deadline extension it does not have")
		}
		if extensions(win) != extensions(rw) {
			t.Error("decorated simulated window differs in its extension set")
		}
		if _, _, err := trace(bareWindow{win}, log); err == nil {
			t.Error("a backend without extensions was decorated with all of them")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rw, _, err := trace(&wire.Window{}, log)
	if err != nil {
		t.Fatal(err)
	}
	if extensions(&wire.Window{}) != extensions(rw) {
		t.Error("decorated wire window differs in its extension set")
	}
}

func TestSelfTime(t *testing.T) {
	l := &spanLog{open: -1}
	l.spans = []span{
		{kind: spPass, parent: -1, start: 0, end: 100},
		{kind: spClampiGet, parent: 0, start: 10, end: 60},
		{kind: spRMAGet, parent: 1, start: 20, end: 50},
		{kind: spClampiFlush, parent: 0, start: 60, end: 90},
		{kind: spRMAFlush, parent: 3, start: 65, end: 85},
		{kind: spCoreEpoch, parent: 4, start: 70, end: 80},
	}
	sum := l.summarize()
	for layer, want := range map[string]int64{"app": 20, "core": 20 + 10 + 10, "rma": 30 + 10} {
		if got := sum.layerSelf(layer); got != want {
			t.Errorf("%s self time %d, want %d", layer, got, want)
		}
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) is
	// [3.5, 13.5, 31.0]; the median is 13.5.
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
