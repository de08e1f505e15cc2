// Package lsb reproduces the measurement methodology of LibLSB (Hoefler &
// Belli, "Scientific Benchmarking of Parallel Computing Systems"), which
// the paper uses for all timings: experiments are repeated until the 95%
// confidence interval of the median is within 5% of the median.
//
// Samples here are virtual durations produced by the simulation's hybrid
// clocks, but the statistics are the real thing: nonparametric median
// CIs from binomial order statistics.
package lsb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"clampi/internal/simtime"
)

// Result summarizes a measurement.
type Result struct {
	Median simtime.Duration
	CILow  simtime.Duration
	CIHigh simtime.Duration
	Mean   simtime.Duration
	Min    simtime.Duration
	Max    simtime.Duration
	N      int
}

// Converged reports whether the 95% CI is within frac of the median
// (the paper uses frac = 0.05).
func (r Result) Converged(frac float64) bool {
	if r.Median <= 0 {
		return r.CIHigh == r.CILow
	}
	lo := float64(r.Median) * (1 - frac)
	hi := float64(r.Median) * (1 + frac)
	return float64(r.CILow) >= lo && float64(r.CIHigh) <= hi
}

func (r Result) String() string {
	return fmt.Sprintf("median %v [%v, %v] (n=%d)", r.Median, r.CILow, r.CIHigh, r.N)
}

// Summarize computes median, 95% CI of the median (order statistics),
// mean, min and max of the samples.
func Summarize(samples []simtime.Duration) Result {
	n := len(samples)
	if n == 0 {
		return Result{}
	}
	s := make([]simtime.Duration, n)
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })

	var sum simtime.Duration
	for _, v := range s {
		sum += v
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	// Nonparametric 95% CI for the median: ranks n/2 ± 1.96*sqrt(n)/2.
	half := 1.96 * math.Sqrt(float64(n)) / 2
	lo := int(math.Floor(float64(n)/2 - half))
	hi := int(math.Ceil(float64(n)/2 + half))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return Result{
		Median: med,
		CILow:  s[lo],
		CIHigh: s[hi],
		Mean:   sum / simtime.Duration(n),
		Min:    s[0],
		Max:    s[n-1],
		N:      n,
	}
}

// Table is a simple fixed-width text table for benchmark output; it
// mirrors the rows/series the paper's figures report.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case simtime.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// CSV renders the table as comma-separated values (header row first),
// for piping benchmark output into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.headers)
	for _, r := range t.rows {
		writeCSVRow(r)
	}
	return b.String()
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
