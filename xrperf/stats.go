package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minQueriesForP95 is the smallest sample with at least ten samples beyond
// its 95th percentile: n - ceil(0.95 n) >= 10.
const minQueriesForP95 = 200

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of raw samples: the smallest sample with at least p% of the samples at or
// below it. It never interpolates, so the value is always one that was
// measured.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// beyond reports how many samples lie strictly above the p-th percentile's
// rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// p95 returns the 95th percentile, or an error when the sample is too small
// to have ten samples beyond it.
func p95(samples []float64) (float64, error) {
	if len(samples) < minQueriesForP95 {
		return 0, fmt.Errorf("%d query samples: p95 needs at least %d (ten beyond the percentile); raise -seconds",
			len(samples), minQueriesForP95)
	}
	return percentile(samples, 95), nil
}

// hostProbeMS times a fixed single-threaded integer loop. The figure is
// not a metric: runs record it so that a shift in every timing can be told
// apart from a change in the program (on a shared host the same loop has
// taken anywhere from 0.37 to 0.76 s within one hour).
func hostProbeMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(start)) / 1e6
}

var probeSink uint64

// mean returns the arithmetic mean (NaN when empty).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// metric is one reported value with its unit and the sample count behind
// it (0 for values that are not aggregated from samples).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Note carries a ratio's base or an aggregation note for the report.
	Note string `json:"note,omitempty"`
}

func (m metric) String() string {
	s := fmt.Sprintf("%-28s %14.4f %-6s", m.Name, m.Value, m.Unit)
	if m.Samples > 0 {
		s += fmt.Sprintf("  n=%d", m.Samples)
	}
	if m.Note != "" {
		s += "  " + m.Note
	}
	return s
}

// ratio returns num/den with its base spelled out.
func ratio(name string, num, den float64) metric {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	return metric{Name: name, Value: v, Unit: "ratio", Note: fmt.Sprintf("(%.0f / %.0f)", num, den)}
}
