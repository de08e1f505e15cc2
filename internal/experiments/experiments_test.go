package experiments

import (
	"strings"
	"testing"

	"clampi/internal/simtime"
)

func TestFig1ShapesAndRuntimeAgreement(t *testing.T) {
	rows, tbl, err := Fig1Latency([]int{8, 1024, 65536})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(tbl.String(), "same-process") {
		t.Fatalf("table missing mappings:\n%s", tbl)
	}
	// Latency grows with size within each mapping.
	byMapping := map[string][]Fig1Row{}
	for _, r := range rows {
		byMapping[r.Mapping] = append(byMapping[r.Mapping], r)
	}
	for m, rs := range byMapping {
		for i := 1; i < len(rs); i++ {
			if rs[i].Latency <= rs[i-1].Latency {
				t.Errorf("%s: latency not increasing with size", m)
			}
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	sizes := []int{4096, 16384}
	rows, tbl, err := Fig7AccessCosts(sizes, 20)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(size int, typ string) Fig7Row {
		for _, r := range rows {
			if r.Size == size && r.Type == typ {
				return r
			}
		}
		t.Fatalf("missing row %d/%s", size, typ)
		return Fig7Row{}
	}
	for _, size := range sizes {
		fompi := get(size, "foMPI")
		hit := get(size, "hitting")
		// The paper reports hits up to 9.3x (4KB) and 3.7x (16KB)
		// faster than foMPI. Require >2x and the right direction.
		if hit.VsFoMPI < 2 {
			t.Errorf("%dB: hit only %.1fx faster than foMPI", size, hit.VsFoMPI)
		}
		// Misses must not be much slower than foMPI (bounded overhead:
		// the paper's premise of never slowing down communication).
		for _, typ := range []string{"direct", "conflicting", "capacity", "failing"} {
			r := get(size, typ)
			if float64(r.Median) > 1.5*float64(fompi.Median) {
				t.Errorf("%dB %s: %v vs foMPI %v — overhead not bounded", size, typ, r.Median, fompi.Median)
			}
		}
		// Lookup cost constant across access types (paper: "the lookup
		// cost is constant for all the access types").
		base := hit.Lookup
		for _, typ := range []string{"direct", "capacity", "failing"} {
			if get(size, typ).Lookup != base {
				t.Errorf("%dB %s: lookup %v != %v", size, typ, get(size, typ).Lookup, base)
			}
		}
		// Eviction cost present only where an eviction happens.
		if get(size, "direct").Evict != 0 {
			t.Errorf("direct access charged eviction")
		}
		if get(size, "capacity").Evict == 0 {
			t.Errorf("capacity access has no eviction cost")
		}
	}
	// Hit advantage shrinks with size (9.3x @4KB vs 3.7x @16KB).
	if get(4096, "hitting").VsFoMPI <= get(16384, "hitting").VsFoMPI {
		t.Errorf("hit speedup should shrink with size: %.1fx @4KB vs %.1fx @16KB",
			get(4096, "hitting").VsFoMPI, get(16384, "hitting").VsFoMPI)
	}
}

func TestFig8Shapes(t *testing.T) {
	sizes := []int{512, 4096, 65536}
	rows, tbl, err := Fig8Overlap(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(size int, typ string) float64 {
		for _, r := range rows {
			if r.Size == size && r.Type == typ {
				return r.Overlap
			}
		}
		t.Fatalf("missing %d/%s", size, typ)
		return 0
	}
	for _, size := range sizes {
		// foMPI is the upper bound for miss-type accesses.
		fompi := get(size, "foMPI")
		for _, typ := range []string{"direct", "capacity", "failing"} {
			if get(size, typ) > fompi {
				t.Errorf("%dB %s overlap %.2f above foMPI %.2f", size, typ, get(size, typ), fompi)
			}
		}
		// Failing overlaps more than direct at larger sizes (no copy;
		// the paper observes this divergence growing with size).
		if size >= 16384 && get(size, "failing") <= get(size, "direct") {
			t.Errorf("%dB: failing overlap %.2f <= direct %.2f", size, get(size, "failing"), get(size, "direct"))
		}
	}
	// foMPI overlap grows with size, reaching high values at 64KB.
	if get(65536, "foMPI") < 0.8 {
		t.Errorf("foMPI 64KB overlap %.2f, want > 0.8", get(65536, "foMPI"))
	}
	if get(512, "foMPI") >= get(65536, "foMPI") {
		t.Errorf("foMPI overlap should grow with size")
	}
}

func TestFig9Shapes(t *testing.T) {
	// Small instance of the paper's setup: N=256 distinct, Z=4K gets.
	const n, z = 256, 4096
	rows, tbl, err := Fig9Adaptive([]int{64, 128, 512, 2048}, n, z)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(slots int, strategy string) Fig9Row {
		for _, r := range rows {
			if r.IndexSlots == slots && r.Strategy == strategy {
				return r
			}
		}
		t.Fatalf("missing %d/%s", slots, strategy)
		return Fig9Row{}
	}
	// Fixed with a too-small index is much slower than fixed with an
	// ample one (conflict storm).
	smallFixed := get(64, "fixed")
	bigFixed := get(2048, "fixed")
	if float64(smallFixed.Time) < 1.3*float64(bigFixed.Time) {
		t.Errorf("fixed: small index %v not clearly slower than ample %v", smallFixed.Time, bigFixed.Time)
	}
	// Adaptive recovers from the bad start: much closer to the ample
	// configuration than fixed is.
	smallAdaptive := get(64, "adaptive")
	if smallAdaptive.Adjustments == 0 {
		t.Errorf("adaptive never adjusted from a 64-slot start")
	}
	if float64(smallAdaptive.Time) > 0.8*float64(smallFixed.Time) {
		t.Errorf("adaptive from bad start (%v) not clearly better than fixed (%v)", smallAdaptive.Time, smallFixed.Time)
	}
}

func TestFig10Shapes(t *testing.T) {
	// Storage sized well below the distinct footprint so eviction works
	// continuously.
	const n, z = 256, 8192
	points, tbl, err := Fig10Fragmentation(n, z, 384, 256<<10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	avg := map[string]float64{}
	cnt := map[string]int{}
	for _, p := range points {
		avg[p.Scheme] += p.Occupancy
		cnt[p.Scheme]++
	}
	for s := range avg {
		avg[s] /= float64(cnt[s])
	}
	if cnt["temporal"] == 0 || cnt["full"] == 0 || cnt["positional"] == 0 {
		t.Fatalf("missing schemes: %v", cnt)
	}
	// The paper's Fig. 10: Full and Positional keep occupancy high
	// (~90%); Temporal fragments and decays. Require the ordering.
	if avg["full"] <= avg["temporal"] {
		t.Errorf("full scheme occupancy %.3f not above temporal %.3f", avg["full"], avg["temporal"])
	}
	if avg["positional"] <= avg["temporal"] {
		t.Errorf("positional occupancy %.3f not above temporal %.3f", avg["positional"], avg["temporal"])
	}
	if avg["full"] < 0.75 {
		t.Errorf("full scheme occupancy %.3f, want ~0.9", avg["full"])
	}
}

func TestFig11Shapes(t *testing.T) {
	const n, z = 256, 8192
	rows, tbl, err := Fig11VictimSelection([]int{512, 1024, 4096}, n, z, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(slots int, scheme string) Fig11Row {
		for _, r := range rows {
			if r.IndexSlots == slots && r.Scheme == scheme {
				return r
			}
		}
		t.Fatalf("missing %d/%s", slots, scheme)
		return Fig11Row{}
	}
	// Visited slots per eviction grow with index size (sparsity), and
	// the non-empty fraction shrinks.
	if get(4096, "full").VisitedPerEvict <= get(512, "full").VisitedPerEvict {
		t.Errorf("visited/evict should grow with |I_w|")
	}
	if get(4096, "full").NonEmptyVisited >= get(512, "full").NonEmptyVisited {
		t.Errorf("non-empty fraction should shrink with |I_w|")
	}
	// Temporal leaves the most free space (external fragmentation) —
	// the central claim of the figure. Hit rates are comparable across
	// schemes in this reproduction (the paper shows Full slightly
	// ahead; our differences stay within a few percent), with Full at
	// least matching Positional-only. One end-of-run occupancy sample
	// flips with the index placement of a single seed, so the orderings
	// are asserted on means over cache seeds 1–20.
	sizes := []int{1024, 4096}
	type key struct {
		slots  int
		scheme string
	}
	free, hit := map[key]float64{}, map[key]float64{}
	const seeds = 20
	for seed := int64(1); seed <= seeds; seed++ {
		rows, err := fig11Rows(sizes, n, z, 256<<10, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			k := key{r.IndexSlots, r.Scheme}
			free[k] += r.FreeSpace / seeds
			hit[k] += r.HitRate / seeds
		}
	}
	for _, slots := range sizes {
		temporal, positional, full := key{slots, "temporal"}, key{slots, "positional"}, key{slots, "full"}
		if testing.Verbose() {
			t.Logf("|I_w|=%d, mean of %d seeds: free temporal %.3f positional %.3f full %.3f; hit temporal %.3f positional %.3f full %.3f",
				slots, seeds, free[temporal], free[positional], free[full], hit[temporal], hit[positional], hit[full])
		}
		if free[temporal] < free[full] {
			t.Errorf("|I_w|=%d: mean temporal free space %.3f below full %.3f — fragmentation ordering broken",
				slots, free[temporal], free[full])
		}
		if hit[full] < hit[positional]-0.01 {
			t.Errorf("|I_w|=%d: mean full hit rate %.3f well below positional %.3f",
				slots, hit[full], hit[positional])
		}
		if hit[full] < hit[temporal]-0.05 {
			t.Errorf("|I_w|=%d: mean full hit rate %.3f far below temporal %.3f",
				slots, hit[full], hit[temporal])
		}
	}
}

func TestFig2Shape(t *testing.T) {
	rec, tbl, err := Fig2NBodyReuse(400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	if rec.MaxRepetition() < 50 {
		t.Errorf("max repetition %d — Fig 2 expects heavy reuse", rec.MaxRepetition())
	}
	if rec.ReuseFactor() < 5 {
		t.Errorf("reuse factor %.1f too low", rec.ReuseFactor())
	}
}

func TestFig3Shape(t *testing.T) {
	rec, tbl, err := Fig3LCCSizes(10, 8, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	if rec.Total() == 0 {
		t.Fatalf("no gets recorded")
	}
	// Sizes span a wide range (scale-free degrees) and most requests
	// are small — the variable-size motivation of §II.
	hist := rec.SizeHistogram()
	if len(hist) < 4 {
		t.Errorf("size histogram too narrow: %d bins", len(hist))
	}
	if rec.SizeQuantile(0.5) > int(rec.MeanSize()) {
		t.Errorf("median %d above mean %.0f — distribution not right-skewed", rec.SizeQuantile(0.5), rec.MeanSize())
	}
}

func TestFig12And13Shapes(t *testing.T) {
	const n, p = 600, 4
	// Tree footprint: ~2N nodes * 64B across ranks ≈ 77KB. Sweep
	// storage from pressure (8KB) to ample (256KB). The index is sized
	// to the working set (an oversized index slows eviction scans).
	rows, tbl, err := Fig12NBodyParams(n, p, 1024, []int{8 << 10, 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(sys string, sw int) Fig12Row {
		for _, r := range rows {
			if r.System == sys && r.StorageBytes == sw {
				return r
			}
		}
		t.Fatalf("missing %s/%d", sys, sw)
		return Fig12Row{}
	}
	fompi := rows[0]
	if fompi.System != "foMPI" {
		t.Fatalf("first row not foMPI")
	}
	// Every cached system beats foMPI at ample memory.
	for _, sys := range []string{"native", "CLaMPI-fixed", "CLaMPI-adaptive"} {
		if get(sys, 256<<10).TimePerBody >= fompi.TimePerBody {
			t.Errorf("%s at 256KB (%v) not faster than foMPI (%v)", sys, get(sys, 256<<10).TimePerBody, fompi.TimePerBody)
		}
	}
	// The native cache's performance depends strongly on memory size;
	// CLaMPI beats it under pressure.
	if get("native", 8<<10).TimePerBody <= get("native", 256<<10).TimePerBody {
		t.Errorf("native should degrade at small memory")
	}
	if get("CLaMPI-fixed", 8<<10).TimePerBody >= get("native", 8<<10).TimePerBody {
		t.Errorf("CLaMPI at 8KB (%v) not faster than native (%v)",
			get("CLaMPI-fixed", 8<<10).TimePerBody, get("native", 8<<10).TimePerBody)
	}

	// Fig 13: conflict fraction falls as the index grows.
	rows13, tbl13, err := Fig13NBodyStats(n, p, 256<<10, []int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl13.String())
	}
	if rows13[0].ConflictFrac <= rows13[1].ConflictFrac {
		t.Errorf("conflicts should fall with |I_w|: %.3f vs %.3f", rows13[0].ConflictFrac, rows13[1].ConflictFrac)
	}
	if rows13[1].HitFrac < 0.5 {
		t.Errorf("ample config hit fraction %.3f too low", rows13[1].HitFrac)
	}
}

func TestFig14Shape(t *testing.T) {
	rows, tbl, err := Fig14NBodyWeak(100, []int{2, 4}, 1<<12, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	get := func(sys string, p int) simtime.Duration {
		for _, r := range rows {
			if r.System == sys && r.P == p {
				return r.TimePerBody
			}
		}
		t.Fatalf("missing %s/%d", sys, p)
		return 0
	}
	for _, p := range []int{2, 4} {
		if get("CLaMPI-fixed", p) >= get("foMPI", p) {
			t.Errorf("P=%d: CLaMPI (%v) not faster than foMPI (%v)", p, get("CLaMPI-fixed", p), get("foMPI", p))
		}
	}
}

func TestFig15To18Shapes(t *testing.T) {
	g := BuildLCCGraph(10, 8, 99)
	const p, maxVerts = 4, 96

	rows, tbl, err := Fig15LCCParams(g, p, maxVerts, []int{16 << 10, 1 << 20}, []int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	var fompi LCCConfigRow
	best := LCCConfigRow{TimePerVert: 1 << 60}
	for _, r := range rows {
		if r.System == "foMPI" {
			fompi = r
		} else if r.TimePerVert < best.TimePerVert {
			best = r
		}
	}
	if best.TimePerVert >= fompi.TimePerVert {
		t.Errorf("best CLaMPI config (%v) not faster than foMPI (%v)", best.TimePerVert, fompi.TimePerVert)
	}
	// The ample fixed configuration must show a healthy hit rate (the
	// paper reports >60% hitting accesses).
	for _, r := range rows {
		if r.System == "CLaMPI-fixed" && r.StorageBytes == 1<<20 && r.IndexSlots == 4096 {
			if r.HitRate < 0.5 {
				t.Errorf("ample fixed hit rate %.3f", r.HitRate)
			}
		}
	}

	rows16, tbl16, err := Fig16LCCStats(g, p, maxVerts, 16<<10, []int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl16.String())
	}
	// Small index: fixed suffers conflicts; bigger index: conflicts < 1%.
	for _, r := range rows16 {
		if r.System == "fixed" && r.IndexSlots == 4096 && r.ConflictFrac > 0.01 {
			t.Errorf("conflicts %.3f with ample index", r.ConflictFrac)
		}
	}

	rows17, t17, t18, err := Fig17And18LCCWeak(9, 8, []int{2, 4}, 64, 4096, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + t17.String() + "\n" + t18.String())
	}
	for _, r := range rows17 {
		if r.System == "foMPI" {
			continue
		}
		if r.TimePerVert <= 0 {
			t.Errorf("empty weak-scaling row: %+v", r)
		}
	}
	// CLaMPI beats foMPI at the smallest P (reuse is highest there).
	var f2, c2 simtime.Duration
	for _, r := range rows17 {
		if r.P == 2 && r.System == "foMPI" {
			f2 = r.TimePerVert
		}
		if r.P == 2 && r.System == "CLaMPI-fixed" {
			c2 = r.TimePerVert
		}
	}
	if c2 >= f2 {
		t.Errorf("P=2: CLaMPI %v not faster than foMPI %v", c2, f2)
	}
}

func TestBatchMicroBenchSpeedup(t *testing.T) {
	res, err := BatchMicroBench(32, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoalesceRatio != 16 {
		t.Errorf("CoalesceRatio = %v, want 16 (every 16-op group merges into one message)", res.CoalesceRatio)
	}
	if res.Speedup < 1.5 {
		t.Errorf("batched misses only %.2fx faster than sequential (%.0f vs %.0f virtual ns/op), want >= 1.5x",
			res.Speedup, res.BatchVirtualNsPerOp, res.SeqVirtualNsPerOp)
	}
}
