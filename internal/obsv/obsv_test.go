package obsv

import (
	"reflect"
	"sync"
	"testing"

	"clampi/internal/core"
	"clampi/internal/simtime"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gets_total", L("type", "hit"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same instance, independent of
	// label order.
	c2 := r.Counter("gets_total", L("type", "hit"))
	if c2 != c {
		t.Error("re-lookup returned a different counter")
	}
	multi := r.Counter("x", L("b", "2"), L("a", "1"))
	multi2 := r.Counter("x", L("a", "1"), L("b", "2"))
	if multi != multi2 {
		t.Error("label order changed identity")
	}
	// Different labels are a different series.
	if r.Counter("gets_total", L("type", "miss")) == c {
		t.Error("different labels returned the same counter")
	}
	g := r.Gauge("slots")
	g.Set(42)
	g.Set(17)
	if g.Value() != 17 {
		t.Errorf("gauge = %d, want 17", g.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("conflicting kind did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram not zero-valued")
	}

	h.Observe(100) // bucket of le=128
	if h.Count() != 1 || h.Sum() != 100 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	// Single sample: every quantile reports its bucket bound.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 128 {
			t.Errorf("Quantile(%v) = %v, want 128", q, got)
		}
	}

	h.Observe(1000)    // le=1024
	h.Observe(1000000) // le=2^20
	if got := h.Quantile(0); got != 128 {
		t.Errorf("p0 = %v, want 128", got)
	}
	if got := h.Quantile(1); got != 1<<20 {
		t.Errorf("p100 = %v, want 2^20", got)
	}
	if got := h.Quantile(0.5); got != 1024 {
		t.Errorf("p50 = %v, want 1024", got)
	}
	if h.Mean() != simtime.Duration((100+1000+1000000)/3) {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		d    simtime.Duration
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Append(Event{Rank: i})
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, e := range snap {
		if e.Rank != i+2 || e.Seq != uint64(i+2) {
			t.Errorf("snap[%d] = rank %d seq %d, want oldest-first 2..5", i, e.Rank, e.Seq)
		}
	}
}

func TestCollectorTranslatesEvents(t *testing.T) {
	reg := NewRegistry()
	ring := NewRing(16)
	col := NewCollector(reg, ring)

	col.OnAccess(core.AccessEvent{
		Rank: 0, Type: core.AccessHit, Size: 512, Lookup: 80, Copy: 200,
	})
	col.OnAccess(core.AccessEvent{
		Rank: 0, Type: core.AccessDirect, Issued: true, Size: 1024, Lookup: 80, Mgmt: 350,
	})
	col.OnEviction(core.EvictionEvent{Rank: 0, Bytes: 256, Conflict: true})
	col.OnEviction(core.EvictionEvent{Rank: 0, Bytes: 64})
	col.OnAdjustment(core.AdjustmentEvent{Rank: 0, PrevIndexSlots: 64, IndexSlots: 128, PrevStorageBytes: 1024, StorageBytes: 1024})
	col.OnEpochClose(core.EpochEvent{Rank: 0, Epoch: 3, Completed: 1, CopiedBytes: 1024, Invalidated: true})

	check := func(name string, want int64, labels ...Label) {
		t.Helper()
		if got := reg.Counter(name, labels...).Value(); got != want {
			t.Errorf("%s%v = %d, want %d", name, labels, got, want)
		}
	}
	check(MetricAccesses, 1, L("type", "hitting"))
	check(MetricAccesses, 1, L("type", "direct"))
	check(MetricAccesses, 0, L("type", "failing"))
	check(MetricGetBytes, 512+1024)
	check(MetricRemoteGets, 1)
	check(MetricEvictions, 1, L("kind", "conflict"))
	check(MetricEvictions, 1, L("kind", "capacity"))
	check(MetricEvictedBytes, 256+64)
	check(MetricAdjustments, 1)
	check(MetricEpochs, 1)
	check(MetricInvalidation, 1)
	check(MetricCopiedBytes, 1024)

	if g := reg.Gauge(MetricIndexSlots, L("rank", "0")).Value(); g != 128 {
		t.Errorf("index-slots gauge = %d, want 128", g)
	}
	h := reg.Histogram(MetricAccessVtime, L("type", "hitting"), L("phase", "total"))
	if h.Count() != 1 || h.Sum() != 280 {
		t.Errorf("hit total hist count=%d sum=%d, want 1/280", h.Count(), h.Sum())
	}
	// Zero-cost phases are skipped: the hit never evicted.
	if ev := reg.Histogram(MetricAccessVtime, L("type", "hitting"), L("phase", "evict")); ev.Count() != 0 {
		t.Errorf("evict phase observed %d times for an eviction-free hit", ev.Count())
	}
	if ring.Total() != 6 {
		t.Errorf("ring total = %d, want 6 events", ring.Total())
	}
	kinds := map[string]int{}
	for _, e := range ring.Snapshot() {
		kinds[e.Kind]++
	}
	if kinds["access"] != 2 || kinds["eviction"] != 2 || kinds["adjustment"] != 1 || kinds["epoch"] != 1 {
		t.Errorf("ring kinds = %v", kinds)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c", L("r", "0")).Add(3)
	b.Counter("c", L("r", "0")).Add(4)
	b.Counter("c", L("r", "1")).Add(5)
	a.Histogram("h").Observe(100)
	b.Histogram("h").Observe(1000)
	b.Gauge("g").Set(7)

	a.Merge(b)
	if got := a.Counter("c", L("r", "0")).Value(); got != 7 {
		t.Errorf("merged shared counter = %d, want 7", got)
	}
	if got := a.Counter("c", L("r", "1")).Value(); got != 5 {
		t.Errorf("merged new counter = %d, want 5", got)
	}
	if h := a.Histogram("h"); h.Count() != 2 || h.Sum() != 1100 {
		t.Errorf("merged histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	if got := a.Gauge("g").Value(); got != 7 {
		t.Errorf("merged gauge = %d, want 7", got)
	}
}

// TestConcurrentCollector exercises the collector from many goroutines;
// meaningful under -race.
func TestConcurrentCollector(t *testing.T) {
	reg := NewRegistry()
	col := NewCollector(reg, NewRing(64))
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				col.OnAccess(core.AccessEvent{Rank: rank, Type: core.AccessHit, Size: 64, Lookup: 80})
				if i%10 == 0 {
					col.OnEviction(core.EvictionEvent{Rank: rank, Bytes: 64})
					col.OnEpochClose(core.EpochEvent{Rank: rank})
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter(MetricAccesses, L("type", "hitting")).Value(); got != workers*perWorker {
		t.Errorf("accesses = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter(MetricEpochs).Value(); got != workers*perWorker/10 {
		t.Errorf("epochs = %d, want %d", got, workers*perWorker/10)
	}
}

// TestPublishCoversEveryField fails when a counter is added to core.Stats
// without a gauge: every numeric field, set to a value no other field
// has, must come out of the registry.
func TestPublishCoversEveryField(t *testing.T) {
	var cs core.Stats
	v := reflect.ValueOf(&cs).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInt() {
			t.Fatalf("core.Stats.%s: non-integer field; teach this test how to publish it", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(int64(1000 + i))
	}
	r := NewRegistry()
	PublishStats(r, cs)
	published := make(map[int64]bool)
	for _, f := range r.snapshot() {
		for _, s := range f.series {
			published[s.metric.(*Gauge).Value()] = true
		}
	}
	for i := 0; i < v.NumField(); i++ {
		if !published[int64(1000+i)] {
			t.Errorf("core.Stats.%s is not published", v.Type().Field(i).Name)
		}
	}
}
