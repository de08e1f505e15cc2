// Command clampi-perfgate is the CI performance gate for the caching hot
// paths. It runs the op-level benchmarks (BenchmarkOp* in internal/core)
// with -benchmem and enforces three invariants, none of which reads the
// host clock (ns/op swings 1.3-1.8x between runs of one tree on the CI
// VM; paired bench/run.sh runs are where host time is compared):
//
//   - the hit paths perform 0 allocs/op — bare (BenchmarkOpHitFull),
//     batched as the LCC replay issues them (BenchmarkOpBatchHitFull, and
//     BenchmarkOpBatchHitWide over a working set beyond the CPU caches),
//     with the resilience layer armed (BenchmarkOpHitFullResilient) and
//     with a notification subscription armed (BenchmarkOpNotifyDrain) —
//     and so do the coherence paths behind every write and notification:
//     a range query on a 16384-entry cache
//     (BenchmarkOpInvalidateRange16k), a write that patches the entry it
//     covers (BenchmarkOpPutHit) and a notified write no entry overlaps
//     (BenchmarkOpPutNotifyUncovered), as does the transparent mode's
//     blanket invalidation of a sparse index (BenchmarkOpInvalidateSparse),
//   - deterministic virtual time stays within its budget: the full-hit
//     path at 108 vns/op (119 per get of the 576 B batch), a range query
//     at a seek plus the entries it scans (vns/op has no host variance,
//     so any excess is a modeled-cost regression), and
//   - every benchmark named by a gate or by the committed baseline
//     (PERF_baseline.json) produced a result: a renamed, deleted or
//     unparsable benchmark fails the gate instead of silently leaving it.
//
// Usage:
//
//	clampi-perfgate [-update] [-baseline PERF_baseline.json] [-pkg ./internal/core]
//
// -update reruns the benchmarks and rewrites the baseline file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's gated numbers.
type Result struct {
	VNsPerOp    float64 `json:"vns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// zeroAllocGated names the benchmarks whose hit paths must never
// allocate, regardless of the committed baseline.
var zeroAllocGated = map[string]bool{
	"BenchmarkOpHitFull":          true,
	"BenchmarkOpBatchHitFull":     true,
	"BenchmarkOpBatchHitWide":     true,
	"BenchmarkOpHitFullResilient": true,
	"BenchmarkOpNotifyDrain":      true,
	// One allocation per call is what a victim list or a charge closure
	// escaping to the heap would cost; the flush of the staged writes
	// leaves 1/32 (mpi's copy of the notification payload).
	"BenchmarkOpInvalidateRange16k": true,
	"BenchmarkOpPutHit":             true,
	"BenchmarkOpPutNotifyUncovered": true,
	// The blanket invalidation drains the index into the record pool.
	"BenchmarkOpInvalidateSparse": true,
}

// vnsCeiling pins deterministic virtual-time budgets: vns/op is exact
// (no host variance), so exceeding the ceiling is a modeled-cost
// regression, not noise. The full-hit budget is the §III-B lookup +
// copy cost — and the notification depth probe must not move it: an
// armed subscription with an empty queue keeps the identical 108 vns.
var vnsCeiling = map[string]float64{
	"BenchmarkOpHitFull":          108,
	"BenchmarkOpBatchHitFull":     119, // per get: the lookup plus a 576 B copy
	"BenchmarkOpBatchHitWide":     119, // the same gets, scattered over 8192 entries
	"BenchmarkOpHitFullResilient": 108,
	"BenchmarkOpNotifyDrain":      108,
	// Two range queries of ceil(log2(n+1)) + k slot visits each (n =
	// 16384 then 16383, k = 1 then 0), the victim's removal, and the miss
	// and flush that fetch it back. A whole-index walk charged per entry,
	// as before the ordered view, is 821553.
	"BenchmarkOpInvalidateRange16k": 3128,
	// A range query over a 2-entry view that scans the covered entry (75),
	// the 512 B patch, the write-through Put and 1/32 of an epoch closure.
	"BenchmarkOpPutHit": 440,
	// A range query over a 2-entry view that scans nothing (50), staging
	// and the copy, and 1/32 of the epoch's flush.
	"BenchmarkOpPutNotifyUncovered": 207,
	// Two 512 B misses, the epoch closure that completes them, and the
	// blanket invalidation: 500 + 4096 × 1 vns for the index memset,
	// whatever the two entries cost the host to drain.
	"BenchmarkOpInvalidateSparse": 7551,
}

// Baseline is the committed PERF_baseline.json schema.
type Baseline struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	update := flag.Bool("update", false, "rewrite the baseline from this run")
	baselinePath := flag.String("baseline", "PERF_baseline.json", "baseline file")
	pkg := flag.String("pkg", "./internal/core", "package holding the BenchmarkOp* set")
	benchtime := flag.String("benchtime", "0.5s", "benchtime passed to go test")
	flag.Parse()

	results, err := runBenchmarks(*pkg, *benchtime)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("perfgate: no BenchmarkOp* results parsed")
	}

	if *update {
		if err := writeBaseline(*baselinePath, results); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("perfgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(results))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		log.Fatalf("perfgate: %v (run with -update to create the baseline)", err)
	}

	failed := false
	for _, v := range judge(results, base.Benchmarks) {
		failed = failed || v.failed
		if !v.ran {
			fmt.Printf("%-30s %s\n", v.name, v.status)
			continue
		}
		fmt.Printf("%-30s %10.1f vns/op %6.2f allocs/op  %s\n",
			v.name, v.r.VNsPerOp, v.r.AllocsPerOp, v.status)
	}
	if failed {
		os.Exit(1)
	}
}

// verdict is the gate's finding on one benchmark name.
type verdict struct {
	name   string
	r      Result
	ran    bool // false: named by a gate or the baseline, but no result
	status string
	failed bool
}

// judge applies the gates to what ran and returns one verdict per name,
// sorted. A name in zeroAllocGated, vnsCeiling or the baseline with no
// result fails: a gate that cannot see its benchmark is not passing.
func judge(results, base map[string]Result) []verdict {
	seen := make(map[string]bool)
	for name := range results {
		seen[name] = true
	}
	for name := range zeroAllocGated {
		seen[name] = true
	}
	for name := range vnsCeiling {
		seen[name] = true
	}
	for name := range base {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)

	out := make([]verdict, 0, len(names))
	for _, name := range names {
		r, ran := results[name]
		v := verdict{name: name, r: r, ran: ran}
		if !ran {
			v.status, v.failed = "FAIL: gated or baselined, but the benchmark produced no result", true
			out = append(out, v)
			continue
		}
		if zeroAllocGated[name] && r.AllocsPerOp > 0 {
			v.status = fmt.Sprintf("FAIL: full-hit path allocates (%.2f allocs/op, want 0)", r.AllocsPerOp)
			v.failed = true
		}
		if ceil, ok := vnsCeiling[name]; ok && r.VNsPerOp > ceil {
			v.status = fmt.Sprintf("FAIL: %.1f vns/op exceeds the %.0f vns/op budget", r.VNsPerOp, ceil)
			v.failed = true
		}
		if !v.failed {
			v.status = "ok"
			if _, ok := base[name]; !ok {
				v.status = "ok (no baseline entry)"
			}
		}
		out = append(out, v)
	}
	return out
}

// runBenchmarks executes the BenchmarkOp* set and parses the -benchmem
// output into per-benchmark results.
func runBenchmarks(pkg, benchtime string) (map[string]Result, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^BenchmarkOp",
		"-benchmem", "-benchtime", benchtime, pkg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("perfgate: benchmark run failed: %w\n%s", err, out.String())
	}
	results := make(map[string]Result)
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if name, r, ok := parseBenchLine(sc.Text()); ok {
			results[name] = r
		}
	}
	return results, sc.Err()
}

// parseBenchLine parses one `go test -bench` output line of the form
//
//	BenchmarkOpHitFull-8  12039924  31.35 ns/op  108.0 vns/op  0 B/op  0 allocs/op
//
// returning the benchmark name with the -GOMAXPROCS suffix stripped.
func parseBenchLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "BenchmarkOp") {
		return "", Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var r Result
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			seen = true
		case "vns/op":
			r.VNsPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return name, r, seen
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	buf, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(buf, &b)
}

func writeBaseline(path string, results map[string]Result) error {
	b := Baseline{
		Note:       "Virtual-time and allocation baseline for cmd/clampi-perfgate; refresh with `go run ./cmd/clampi-perfgate -update` on the CI runner class.",
		Benchmarks: results,
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
