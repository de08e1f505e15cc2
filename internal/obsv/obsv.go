// Package obsv is the observability layer of the CLaMPI reproduction
// (DESIGN.md §8): a metrics registry of atomic counters and gauges keyed
// by name+labels, log2-bucketed virtual-time latency histograms, a
// bounded ring-buffer tracer of structured cache events, and exporters
// (Prometheus text format and JSON).
//
// The package connects to the caching layer through core.Observer: a
// Collector translates the structured events emitted by internal/core
// into registry updates and ring appends. Every primitive is safe for
// concurrent use, so one Collector can be shared by all the concurrent
// ranks of a simulated world; in per-rank deployments each rank owns a
// Registry and the results are combined with Registry.Merge.
//
// Invariant (enforced by internal/analysis/atomicfield): every field
// annotated // clampi:atomic — the counter, gauge and histogram cells
// and the trace-ring sequence — is accessed exclusively through
// sync/atomic operations, keeping the hot path lock-free.
package obsv

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelKey canonicalizes a label set: sorted by key, joined as
// k="v" pairs. It doubles as the exporter's rendering.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64 // clampi:atomic
}

// Add increments the counter by d (negative deltas are ignored so a
// counter can never go backwards).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64 // clampi:atomic
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind tags a registry family for the exporters.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family groups all metrics sharing one name (differing only in labels).
type family struct {
	name string
	kind metricKind
	// series maps the canonical label string to the metric instance
	// (*Counter, *Gauge or *Histogram depending on kind).
	series map[string]any
	labels map[string]string // canonical label string → rendered form (same value; kept for ordering)
}

// Registry holds named metrics. Lookup (Counter/Gauge/Histogram) takes a
// mutex; the returned instances update lock-free, so hot paths resolve
// their metrics once and then only touch atomics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the metric instance for (name, labels), creating family
// and series as needed. A name registered with a different kind panics:
// that is a programming error, not an operational condition.
func (r *Registry) lookup(name string, kind metricKind, mk func() any, labels []Label) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]any), labels: make(map[string]string)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic("obsv: metric " + name + " registered with conflicting kinds")
	}
	m, ok := f.series[key]
	if !ok {
		m = mk()
		f.series[key] = m
		f.labels[key] = key
	}
	return m
}

// Counter returns the counter registered under name+labels, creating it
// at zero on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, func() any { return &Counter{} }, labels).(*Counter)
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, func() any { return &Gauge{} }, labels).(*Gauge)
}

// Histogram returns the histogram registered under name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, func() any { return &Histogram{} }, labels).(*Histogram)
}

// Merge folds every metric of o into r: counters and histogram buckets
// add, gauges take o's value (last writer wins, matching the
// per-rank-then-aggregate flow where each gauge exists in one rank's
// registry only).
func (r *Registry) Merge(o *Registry) {
	o.mu.Lock()
	// Snapshot o's structure so we never hold both mutexes at once.
	type item struct {
		name   string
		kind   metricKind
		labels string
		metric any
	}
	var items []item
	for name, f := range o.families {
		for key, m := range f.series {
			items = append(items, item{name: name, kind: f.kind, labels: key, metric: m})
		}
	}
	o.mu.Unlock()

	for _, it := range items {
		labels := parseLabelKey(it.labels)
		switch it.kind {
		case kindCounter:
			r.Counter(it.name, labels...).Add(it.metric.(*Counter).Value())
		case kindGauge:
			r.Gauge(it.name, labels...).Set(it.metric.(*Gauge).Value())
		case kindHistogram:
			r.Histogram(it.name, labels...).merge(it.metric.(*Histogram))
		}
	}
}

// parseLabelKey inverts labelKey (k="v",k2="v2" → []Label).
func parseLabelKey(s string) []Label {
	if s == "" {
		return nil
	}
	var out []Label
	for _, part := range strings.Split(s, `",`) {
		kv := strings.SplitN(part, `="`, 2)
		if len(kv) != 2 {
			continue
		}
		out = append(out, Label{Key: kv[0], Value: strings.TrimSuffix(kv[1], `"`)})
	}
	return out
}
