package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestNilSafety exercises every instrument method on nil receivers and a
// nil registry: the disabled-telemetry fast path must never panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram value")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.CounterNames() != nil {
		t.Fatal("nil registry counter names")
	}
}

// TestInstrumentInterning checks the same name yields the same instrument.
func TestInstrumentInterning(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not interned")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("gauge not interned")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("histogram not interned")
	}
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("b").Set(10)
	r.Gauge("b").Add(-4)
	if got := r.Gauge("b").Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

// TestHistogramBuckets pins the log₂ bucketing: 0, 1µs, 1ms, 1s land in
// increasing buckets and the sum/count aggregate correctly.
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	durations := []time.Duration{0, time.Microsecond, time.Millisecond, time.Second}
	for _, d := range durations {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := time.Second + time.Millisecond + time.Microsecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	last := -1
	for _, d := range durations {
		i := bucketIndex(d)
		if i <= last {
			t.Fatalf("bucketIndex(%v) = %d, not increasing past %d", d, i, last)
		}
		last = i
	}
	// Overflow clamps to the last bucket.
	if i := bucketIndex(100 * time.Hour); i != numBuckets-1 {
		t.Fatalf("overflow bucket = %d, want %d", i, numBuckets-1)
	}
	h.Observe(-time.Second) // negative durations clamp to zero
	if h.Sum() != wantSum {
		t.Fatalf("negative observation changed the sum: %v", h.Sum())
	}
}

// TestSnapshotDeterministicJSON checks two registries built in different
// orders with equal values marshal byte-identically.
func TestSnapshotDeterministicJSON(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("xr_one").Add(1)
	a.Counter("xr_two").Add(2)
	a.Gauge("g").Set(7)
	b.Gauge("g").Set(7)
	b.Counter("xr_two").Add(2)
	b.Counter("xr_one").Add(1)
	ja, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ:\n%s\n%s", ja, jb)
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; totals
// must be exact and the race detector must stay quiet.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", i%4) // contend on registration too
			for j := 0; j < perG; j++ {
				r.Counter(name).Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	total := int64(0)
	for _, name := range r.CounterNames() {
		total += r.Counter(name).Value()
	}
	if total != goroutines*perG {
		t.Fatalf("counter total = %d, want %d", total, goroutines*perG)
	}
	if got := r.Histogram("h").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestWritePrometheus checks the text exposition shape: type lines, sorted
// order, cumulative buckets ending at +Inf == count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("xr_b_total").Add(2)
	r.Counter("xr_a_total").Add(1)
	r.Gauge("xr_g").Set(5)
	r.Histogram("xr_h_seconds").Observe(3 * time.Millisecond)
	r.Histogram("xr_h_seconds").Observe(2 * time.Second)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE xr_a_total counter\nxr_a_total 1\n",
		"# TYPE xr_b_total counter\nxr_b_total 2\n",
		"# TYPE xr_g gauge\nxr_g 5\n",
		"# TYPE xr_h_seconds histogram\n",
		`xr_h_seconds_bucket{le="+Inf"} 2`,
		"xr_h_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "xr_a_total") > strings.Index(out, "xr_b_total") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

// TestServeEndpoints boots the HTTP endpoint on an ephemeral port and
// fetches every mounted path.
func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("xr_served_total").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "xr_served_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["xr_served_total"] != 9 {
		t.Fatalf("/metrics.json counters = %v", snap.Counters)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "xr_metrics") {
		t.Fatalf("/debug/vars missing xr_metrics:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "pprof") {
		t.Fatalf("/debug/pprof/ unexpected body:\n%s", body)
	}
}

// TestLabeled checks labeled-name construction: sorted label keys for a
// canonical series name, value escaping, and pass-through without labels.
func TestLabeled(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   []string
		want string
	}{
		{"q_total", nil, "q_total"},
		{"q_total", []string{"scenario", "genome"}, `q_total{scenario="genome"}`},
		{"q_total", []string{"b", "2", "a", "1"}, `q_total{a="1",b="2"}`},
		{"q_total", []string{"scenario", `we"ird\n` + "\n"}, `q_total{scenario="we\"ird\\n\n"}`},
		{"q_total", []string{"odd"}, `q_total{odd=""}`},
	} {
		if got := Labeled(tc.name, tc.kv...); got != tc.want {
			t.Errorf("Labeled(%q, %v) = %q, want %q", tc.name, tc.kv, got, tc.want)
		}
	}
	// Canonical: the same label set in any order names the same series.
	a := Labeled("m", "x", "1", "y", "2")
	b := Labeled("m", "y", "2", "x", "1")
	if a != b {
		t.Errorf("label order changed the series name: %q vs %q", a, b)
	}
}

// TestWritePrometheusLabeled checks labeled series group under one # TYPE
// line per metric family, as the exposition format requires.
func TestWritePrometheusLabeled(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Labeled("xr_server_queries_total", "scenario", "genome")).Add(3)
	reg.Counter(Labeled("xr_server_queries_total", "scenario", "tricolor")).Add(5)
	reg.Counter("xr_server_queries_total").Add(8)
	reg.Gauge(Labeled("xr_server_inflight", "scenario", "genome")).Set(1)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE xr_server_queries_total counter"); n != 1 {
		t.Errorf("want exactly one TYPE line for the family, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		"xr_server_queries_total 8\n",
		`xr_server_queries_total{scenario="genome"} 3` + "\n",
		`xr_server_queries_total{scenario="tricolor"} 5` + "\n",
		"# TYPE xr_server_inflight gauge\n",
		`xr_server_inflight{scenario="genome"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// The unlabeled series must precede its labeled variants (family
	// grouping puts the TYPE line first, then series in sorted order).
	if strings.Index(out, "xr_server_queries_total 8") > strings.Index(out, `scenario="genome"`) {
		t.Errorf("series ordering within family wrong:\n%s", out)
	}
}
