package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"clampi/internal/core"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// env is what a workload's set-up gets: the seed every input derives
// from, the size class, and where sockets and outputs go.
type env struct {
	seed int64
	toy  bool   // smoke-test sizes
	dir  string // scratch directory for sockets, relative to the working directory
}

// instance is a set-up workload. Load is closed loop everywhere: an RMA
// caller waits for its reply, so a slow system receives less load.
type instance interface {
	// rep runs one repetition — a fixed amount of work on a fresh cache —
	// and, when verify is set, an untimed verified pass on the same cache
	// afterwards. tr is nil for the untraced reps that give the
	// end-to-end numbers.
	rep(tr *tracer, verify bool) (repResult, error)
	// uncached runs the rep's work without the cache and returns its
	// wall time: the denominator of the paper's speed-up.
	uncached() (time.Duration, error)
	close()
}

type repResult struct {
	wall    time.Duration
	ops     int64
	virtual simtime.Duration // origin endpoint-clock advance over the timed section
	stats   core.Stats       // cache counters after the timed section, summed over ranks
	failed  int64            // errors, byte mismatches and result-check failures
	checked int64            // ops of the verified pass
	server  *serverDump      // wire workloads, traced rep only
	lanes   int              // ranks running concurrently; 0 means 1
}

// tracer collects the span logs and decorators of one traced rep.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
	wins  []*tracedWin
	err   error
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// wrap decorates win with a fresh span log; a nil tracer (the untraced
// reps) returns win itself and a nil log. Safe to call from concurrently
// running ranks.
func (tr *tracer) wrap(win rma.Window) (rma.Window, *spanLog, error) {
	if tr == nil {
		return win, nil, nil
	}
	l := newSpanLog(tr.epoch)
	rw, t, err := trace(win, l)
	if err == nil && extensions(win) != extensions(rw) {
		err = fmt.Errorf("bench: decorator over %T changes the extension set the core sees", win)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err != nil {
		tr.err = err
		return nil, nil, err
	}
	tr.logs = append(tr.logs, l)
	tr.wins = append(tr.wins, t)
	return rw, l, nil
}

// summary folds all logs; with several concurrent ranks the sums are
// rank-time, to be compared with wall x lanes.
func (tr *tracer) summary() traceSum {
	var sum traceSum
	for _, l := range tr.logs {
		sum.add(l.summarize())
	}
	return sum
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// fastest is the estimator of every end-to-end time: the first decile of
// the samples, the time the fastest tenth of them beat. What disturbs a
// rep on a shared machine only ever adds time, in bursts of seconds, so
// the low end of the distribution is the program and the rest is the
// machine: on lcc_replay_sim the medians of runs of the same code spread
// twice as wide as their first deciles.
func fastest(v []float64) float64 { return quantile(v, 0.1) }

// quantile interpolates linearly between the sorted samples.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 4 {
		if len(v) < 2 {
			return 0
		}
		return ratio(slices.Max(v)-slices.Min(v), median(v))
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 { // the exclusive method of Python's statistics.quantiles
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(0.75)-q(0.25), median(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs untraced reps of inst for about budget, at least minReps,
// the last one followed by the verified pass when verify is set. Every
// rep is checked against ref, the first rep of the run (nil: the first
// of this call): what must repeat exactly must also repeat across
// set-ups.
func measure(w *workloadDef, inst instance, budget time.Duration, minReps int, verify bool, ref *repResult) ([]repResult, error) {
	var reps []repResult
	start := time.Now()
	for {
		// A rep is the last when, at the pace so far, the one after it
		// would end further from the budget than it does.
		elapsed := time.Since(start)
		var perRep time.Duration
		switch {
		case len(reps) > 0:
			perRep = elapsed / time.Duration(len(reps))
		case ref != nil:
			perRep = ref.wall
		}
		last := len(reps)+1 >= minReps && perRep > 0 && elapsed+perRep*3/2 >= budget
		r, err := inst.rep(nil, last && verify)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", len(reps), err)
		}
		reps = append(reps, r)
		if ref == nil {
			ref = &reps[0]
		}
		if err := sameCounts(w, *ref, r); err != nil {
			return nil, fmt.Errorf("determinism check, rep %d against the first: %w", len(reps)-1, err)
		}
		if last {
			return reps, nil
		}
	}
}

// sameCounts is the determinism check: op counts always, cache counters
// and virtual time on the simulated backend.
func sameCounts(w *workloadDef, a, b repResult) error {
	if a.ops != b.ops {
		return fmt.Errorf("op count %d != %d", b.ops, a.ops)
	}
	if !w.sim {
		return nil
	}
	if a.stats != b.stats {
		return fmt.Errorf("cache counters differ:\n  %+v\n  %+v", b.stats, a.stats)
	}
	if a.virtual != b.virtual {
		return fmt.Errorf("virtual time %d != %d", b.virtual, a.virtual)
	}
	return nil
}
