package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// Spans are recorded from this package only: around each pass of a
// workload (the app layer), around each clampi.Window call the
// benchmark's own loops and getter adapter make, and around every
// rma.Window call by the pass-through decorator of decorator.go. A
// layer's self time is its spans' duration minus the part their direct
// children cover.

// spanKind names a span; the prefix of its name is the layer it belongs to.
type spanKind uint8

const (
	spPass spanKind = iota
	spClampiGet
	spClampiGetBatch
	spClampiFlush
	spCoreEpoch // core's epoch listener, which runs inside a backend completion call
	spRMAGet
	spRMAGetBatch
	spRMAPut
	spRMAPutNotify
	spRMAFlush
	spRMAFence
	spRMANotifyPoll
	spRMAOther
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"app.pass", "clampi.get", "clampi.get_batch", "clampi.flush", "core.epoch_close",
	"rma.get", "rma.get_batch", "rma.put", "rma.put_notify", "rma.flush", "rma.fence",
	"rma.notify_poll", "rma.other",
}

// layerOf groups span kinds into the layers of the self-time stack.
func layerOf(k spanKind) string {
	switch {
	case k == spPass:
		return "app"
	case k <= spCoreEpoch:
		return "core"
	default:
		return "rma"
	}
}

type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span in the same log, -1 at the root
	start, end int64 // ns since the log's epoch
}

// spanLog holds the spans of one goroutine (one rank): nesting is the
// call stack, so the innermost open span is the parent of the next one.
// A nil *spanLog records nothing — the untraced reps pass nil.
type spanLog struct {
	epoch time.Time
	spans []span
	open  int32
}

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, 1<<16), open: -1}
}

// begin opens a span and returns its handle for end.
func (l *spanLog) begin(k spanKind) int32 {
	if l == nil {
		return -1
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{kind: k, parent: l.open, start: int64(time.Since(l.epoch))})
	l.open = i
	return i
}

func (l *spanLog) end(i int32) {
	if l == nil {
		return
	}
	s := &l.spans[i]
	s.end = int64(time.Since(l.epoch))
	l.open = s.parent
}

// kindSum aggregates the spans of one kind.
type kindSum struct {
	calls       int64
	total, self int64 // ns, inclusive and exclusive of children
}

type traceSum [numSpanKinds]kindSum

func (t *traceSum) add(o traceSum) {
	for k := range t {
		t[k].calls += o[k].calls
		t[k].total += o[k].total
		t[k].self += o[k].self
	}
}

// layerSelf returns the summed self time of one layer's span kinds.
func (t *traceSum) layerSelf(layer string) int64 {
	var ns int64
	for k := range t {
		if layerOf(spanKind(k)) == layer {
			ns += t[k].self
		}
	}
	return ns
}

// perCall returns the mean inclusive duration of one kind's spans.
func (t *traceSum) perCall(k spanKind) float64 {
	return ratio(float64(t[k].total), float64(t[k].calls))
}

func (l *spanLog) summarize() traceSum {
	var sum traceSum
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range l.spans {
		k := &sum[s.kind]
		k.calls++
		k.total += s.end - s.start
		k.self += self[i]
	}
	return sum
}

// durations returns the sorted inclusive durations (ns) of the spans
// whose kind is in kinds — the per-call latency samples.
func durations(logs []*spanLog, kinds ...spanKind) []int64 {
	var out []int64
	for _, l := range logs {
		for _, s := range l.spans {
			if slices.Contains(kinds, s.kind) {
				out = append(out, s.end-s.start)
			}
		}
	}
	slices.Sort(out)
	return out
}

// writeSpans dumps raw spans as CSV (log, kind, parent, start_ns, end_ns).
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log,span,parent,start_ns,end_ns")
	for li, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", li, spanNames[s.kind], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
