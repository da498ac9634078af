package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	// 1..200 shuffled: the p-th percentile is the sample ranked ceil(p n/100).
	var s []float64
	for i := 200; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Never interpolates: the result is always a measured sample.
	if got := percentile([]float64{1, 10}, 50); got != 1 {
		t.Errorf("median of {1, 10} = %v, want the sample 1", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if s[0] != 200 {
		t.Error("percentile reordered its input")
	}
}

func TestP95NeedsTenSamplesBeyond(t *testing.T) {
	if got := beyond(minQueriesForP95, 95); got != 10 {
		t.Fatalf("beyond(%d, 95) = %d, want 10", minQueriesForP95, got)
	}
	if got := beyond(minQueriesForP95-1, 95); got >= 10 {
		t.Fatalf("beyond(%d, 95) = %d, want fewer than 10", minQueriesForP95-1, got)
	}
	short := make([]float64, minQueriesForP95-1)
	if _, err := p95(short); err == nil || !strings.Contains(err.Error(), "p95 needs") {
		t.Fatalf("p95 on %d samples: err = %v, want a loud refusal", len(short), err)
	}
	full := make([]float64, minQueriesForP95)
	for i := range full {
		full[i] = float64(i + 1)
	}
	if v, err := p95(full); err != nil || v != 190 {
		t.Fatalf("p95(1..200) = %v, %v; want 190", v, err)
	}
}

func TestEndToEndRefusesShortRuns(t *testing.T) {
	rep := &report{cfg: config{workload: wlGenomeChurn}}
	var ph [clients][]*result
	for i := 0; i < minQueriesForP95-1; i++ {
		ph[i%clients] = append(ph[i%clients], &result{op: &op{kind: opQuery}, latency: 1e6})
	}
	err := rep.endToEnd([]float64{1}, ph, nil, 1, 1)
	if err == nil {
		t.Fatal("a run with fewer than 200 queries printed query_p95_ms")
	}
	if len(rep.metrics) != 0 {
		t.Fatalf("short run still reported %d metrics", len(rep.metrics))
	}
}

func TestEveryTimingCarriesItsSampleCount(t *testing.T) {
	rep := &report{cfg: config{workload: wlGenomeChurn}}
	var ph [clients][]*result
	for i := 0; i < 300; i++ {
		k := opQuery
		if i%10 == 0 {
			k = opLoad
		}
		ph[i%clients] = append(ph[i%clients], &result{op: &op{kind: k}, latency: 2e6})
	}
	if err := rep.endToEnd([]float64{1, 2, 3}, ph, nil, 10, 5e6); err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.metrics {
		if m.Unit == "ms" || m.Unit == "s" || m.Unit == "1/s" {
			if m.Samples == 0 || !strings.Contains(m.String(), "n=") {
				t.Errorf("%s printed without its sample count: %q", m.Name, m.String())
			}
		}
	}
	if got := len(rep.metrics); got != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", got, len(endToEnd))
	}
}
