// Package schedtest runs a test under the two goroutine schedules the
// simulated runtime (internal/mpi) must not be able to tell apart. On
// one P the ranks of a world interleave but never run in parallel; on
// every P they do. Virtual clocks advance by modelled costs only, so a
// program's results, clocks and counters must be the same under both.
//
// The schedules are named "fidelity" and "throughput" after the
// runtime's former serialized and concurrent engines, whose schedules
// they are, so that the subtests keep their names.
package schedtest

import (
	"runtime"
	"testing"
)

// Schedule is one goroutine schedule.
type Schedule struct {
	Name  string
	Procs int // GOMAXPROCS under the schedule; 0 keeps the process's setting
}

// Schedules lists the one-P schedule first.
var Schedules = []Schedule{{"fidelity", 1}, {"throughput", 0}}

// apply sets GOMAXPROCS for s and returns the function that restores it.
func (s Schedule) apply() (restore func()) {
	if s.Procs <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(s.Procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// Set applies s to the rest of t.
func (s Schedule) Set(t testing.TB) { t.Cleanup(s.apply()) }

// Run runs f as one subtest per schedule, named after it.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, s := range Schedules {
		t.Run(s.Name, func(t *testing.T) {
			s.Set(t)
			f(t)
		})
	}
}

// Do calls f once per schedule, in the order of Schedules, under that
// schedule.
func Do(f func(s Schedule)) {
	for _, s := range Schedules {
		func() {
			defer s.apply()()
			f(s)
		}()
	}
}
