package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// logBuffer is a goroutine-safe sink for the structured log: handlers log
// from request goroutines while tests read.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) lines() []map[string]interface{} {
	b.mu.Lock()
	raw := b.buf.String()
	b.mu.Unlock()
	var out []map[string]interface{}
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// findLog returns the first log record with the given msg and request_id
// ("" matches any id).
func findLog(lines []map[string]interface{}, msg, requestID string) map[string]interface{} {
	for _, m := range lines {
		if m["msg"] != msg {
			continue
		}
		if requestID != "" && m["request_id"] != requestID {
			continue
		}
		return m
	}
	return nil
}

func jsonLogger(sink *logBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(sink, nil))
}

// TestRequestIDPropagation drives the full correlation chain with a pinned
// client-supplied ID: response header, response body, access log line,
// trace fetch, and the span tree's request_id annotation all agree, and
// the normalized span tree matches the golden file.
func TestRequestIDPropagation(t *testing.T) {
	sink := &logBuffer{}
	// One lane: the solve is sequential, so the span tree is deterministic.
	_, ts := newTestServer(t, Config{TotalLanes: 1, Logger: jsonLogger(sink)})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	const reqID = "corr-test-0042"
	body, _ := json.Marshal(QueryRequest{Query: geneQuery}) // reaches the solver
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenarios/genome/query?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, body %s", resp.StatusCode, respBody)
	}

	// 1. Response header echoes the ID.
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("X-Request-Id header = %q, want %q", got, reqID)
	}
	// 2. Response body carries it, plus the inline span tree.
	var qr QueryResponse
	if err := json.Unmarshal(respBody, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID != reqID {
		t.Errorf("body request_id = %q, want %q", qr.RequestID, reqID)
	}
	if len(qr.Trace) == 0 {
		t.Fatalf("?trace=1 returned no spans: %s", respBody)
	}
	// The query span is annotated with the request ID (engines read it
	// from the context).
	foundArg := false
	for _, sp := range qr.Trace {
		for _, a := range sp.Args {
			if a.Key == "request_id" && a.Value == reqID {
				foundArg = true
			}
		}
	}
	if !foundArg {
		t.Errorf("no span carries the request_id annotation: %s", respBody)
	}
	// 3. The trace ring serves the same tree by ID.
	code, traceBody, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/requests/"+reqID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: status %d, body %s", code, traceBody)
	}
	var tr TraceResponse
	if err := json.Unmarshal(traceBody, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.RequestID != reqID || len(tr.Trace) != len(qr.Trace) {
		t.Errorf("trace fetch: id %q, %d spans; want %q, %d", tr.RequestID, len(tr.Trace), reqID, len(qr.Trace))
	}
	// 4. The access log line agrees on ID, route, tenant, and status.
	rec := findLog(sink.lines(), "request", reqID)
	if rec == nil {
		t.Fatalf("no access-log line for %s in:\n%s", reqID, &sink.buf)
	}
	if rec["route"] != "/v1/scenarios/{name}/query" || rec["tenant"] != "genome" || rec["status"] != float64(200) {
		t.Errorf("access log fields: %v", rec)
	}
	if _, ok := rec["duration_ms"]; !ok {
		t.Errorf("access log missing duration_ms: %v", rec)
	}
	// Solver work was attributed to the request.
	if rec["decisions"] == nil {
		t.Errorf("access log missing per-request decisions: %v", rec)
	}

	// 5. Golden: the span tree shape (names, nesting, annotations) is
	// pinned; timings are normalized to 0.
	norm := regexp.MustCompile(`"(start_ns|dur_ns)":\d+`).ReplaceAll(traceBody, []byte(`"$1":0`))
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, norm, "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.WriteByte('\n')
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -update` to create)", err)
	}
	if !bytes.Equal(pretty.Bytes(), want) {
		t.Errorf("trace drifted from golden:\ngot:\n%s\nwant:\n%s", pretty.Bytes(), want)
	}
}

// TestRequestIDGeneration checks hostile or absent inbound IDs are
// replaced with a generated one.
func TestRequestIDGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, inbound := range []string{"", "has space", "semi;colon", strings.Repeat("x", 65)} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set("X-Request-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if got == inbound && inbound != "" {
			t.Errorf("hostile id %q echoed verbatim", inbound)
		}
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
			t.Errorf("generated id %q does not look like 16 hex chars (inbound %q)", got, inbound)
		}
	}
}

// TestInflightVisibility races N held-open requests against /v1/inflight:
// all N appear while blocked and disappear after completion. Run with
// -race (make check does) to validate the table and state atomics.
func TestInflightVisibility(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	const n = 4
	started := make(chan struct{}, n)
	release := make(chan struct{})
	blocked := httptest.NewServer(s.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusNoContent)
	})))
	defer blocked.Close()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, blocked.URL+"/hold", nil)
			req.Header.Set("X-Request-Id", fmt.Sprintf("blk-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("blocked request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}

	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/inflight", nil)
	if code != http.StatusOK {
		t.Fatalf("inflight: status %d", code)
	}
	var inf InflightResponse
	if err := json.Unmarshal(body, &inf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range inf.Requests {
		seen[e.RequestID] = true
		if e.StartTime == "" || e.ElapsedMS < 0 {
			t.Errorf("inflight entry missing timing: %+v", e)
		}
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("blk-%d", i)] {
			t.Errorf("blocked request blk-%d not visible in /v1/inflight: %s", i, body)
		}
	}

	close(release)
	wg.Wait()

	code, body, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/inflight", nil)
	if code != http.StatusOK {
		t.Fatalf("inflight after release: status %d", code)
	}
	if err := json.Unmarshal(body, &inf); err != nil {
		t.Fatal(err)
	}
	for _, e := range inf.Requests {
		if strings.HasPrefix(e.RequestID, "blk-") {
			t.Errorf("completed request %s still listed in /v1/inflight", e.RequestID)
		}
	}
}

// TestSlowRingEviction pins the ring's FIFO eviction and newest-first
// listing at the data-structure level.
func TestSlowRingEviction(t *testing.T) {
	r := newSlowRing(3)
	for i := 1; i <= 5; i++ {
		r.add(SlowEntry{AccessRecord: AccessRecord{RequestID: fmt.Sprintf("r%d", i)}})
	}
	got := r.list()
	if len(got) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(got))
	}
	for i, want := range []string{"r5", "r4", "r3"} {
		if got[i].RequestID != want {
			t.Errorf("list[%d] = %s, want %s (newest first, oldest evicted)", i, got[i].RequestID, want)
		}
	}
}

// TestNoteSignatureOrder pins the request's hardest-signature list: the
// longest solves first, ties by key, a key solved twice keeps its longest
// solve, at most hotSignatureCap entries, and an empty key is ignored.
func TestNoteSignatureOrder(t *testing.T) {
	type note struct {
		key string
		ms  int
	}
	for _, tc := range []struct {
		name  string
		notes []note
		want  []string
	}{
		{"empty", nil, nil},
		{"one", []note{{"3", 5}}, []string{"3"}},
		{"longest first", []note{{"1", 2}, {"2", 9}, {"3", 5}}, []string{"2", "3", "1"}},
		{"ties by key", []note{{"7", 4}, {"10", 4}, {"2", 4}}, []string{"10", "2", "7"}},
		{"retry keeps its maximum", []note{{"1", 9}, {"2", 5}, {"1", 1}}, []string{"1", "2"}},
		{"retry raises", []note{{"1", 1}, {"2", 5}, {"1", 9}}, []string{"1", "2"}},
		{"retry ties", []note{{"b", 3}, {"a", 3}, {"b", 3}}, []string{"a", "b"}},
		{"cap", []note{{"1", 1}, {"2", 2}, {"3", 3}, {"4", 4}, {"5", 5}}, []string{"5", "4", "3"}},
		{"cap drops the coldest", []note{{"5", 5}, {"4", 4}, {"3", 3}, {"2", 2}}, []string{"5", "4", "3"}},
		{"cap tie drops the larger key", []note{{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}, {"0", 1}}, []string{"0", "a", "b"}},
		{"evicted key returns hotter", []note{{"1", 1}, {"2", 2}, {"3", 3}, {"4", 4}, {"1", 9}}, []string{"1", "4", "3"}},
		{"retry at the cap", []note{{"1", 1}, {"2", 2}, {"3", 3}, {"1", 4}}, []string{"1", "3", "2"}},
		{"empty key ignored", []note{{"", 9}, {"1", 1}}, []string{"1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &requestState{}
			for _, n := range tc.notes {
				st.noteSignature(n.key, time.Duration(n.ms)*time.Millisecond)
			}
			if got := st.hotSignatures(); !slices.Equal(got, tc.want) {
				t.Fatalf("hot signatures %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTraceRingEviction pins the completed-request trace ring bound.
func TestTraceRingEviction(t *testing.T) {
	r := newTraceRing(2)
	r.put("a", nil)
	r.put("b", nil)
	r.put("c", nil)
	if _, ok := r.get("a"); ok {
		t.Error("oldest trace not evicted")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := r.get(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
}

// TestSlowlogCapture runs queries over a zero-ish threshold server and
// checks the slowlog endpoint: bounded, newest first, entries carry the
// access record and span tree, and the WARN line fired.
func TestSlowlogCapture(t *testing.T) {
	sink := &logBuffer{}
	_, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowLogSize: 2, Logger: jsonLogger(sink)})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	for i := 1; i <= 3; i++ {
		body, _ := json.Marshal(QueryRequest{Name: "q"})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenarios/genome/query", bytes.NewReader(body))
		req.Header.Set("X-Request-Id", fmt.Sprintf("slow-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}

	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/slowlog", nil)
	if code != http.StatusOK {
		t.Fatalf("slowlog: status %d", code)
	}
	var sl SlowlogResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.ThresholdMS <= 0 {
		t.Errorf("threshold_ms = %v, want > 0", sl.ThresholdMS)
	}
	// The load request is also over the 1ns threshold, so the ring saw 4
	// entries; capacity 2 keeps the newest two queries, newest first.
	if len(sl.Entries) != 2 {
		t.Fatalf("slowlog holds %d entries, want 2 (bounded): %s", len(sl.Entries), body)
	}
	if sl.Entries[0].RequestID != "slow-3" || sl.Entries[1].RequestID != "slow-2" {
		t.Errorf("slowlog order: got [%s %s], want [slow-3 slow-2]",
			sl.Entries[0].RequestID, sl.Entries[1].RequestID)
	}
	for _, e := range sl.Entries {
		if e.Route != "/v1/scenarios/{name}/query" || e.Tenant != "genome" || e.Status != 200 {
			t.Errorf("slowlog record incomplete: %+v", e.AccessRecord)
		}
		if len(e.Trace) == 0 {
			t.Errorf("slowlog entry %s has no span tree", e.RequestID)
		}
	}
	if rec := findLog(sink.lines(), "slow query", "slow-3"); rec == nil {
		t.Errorf("no WARN slow-query log line for slow-3:\n%s", &sink.buf)
	}
}

// TestREDMetrics checks the per-route series appear in the Prometheus
// exposition with route templates (not raw tenant-bearing paths).
func TestREDMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)
	code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query", QueryRequest{Name: "q"})
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}

	_, body, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	out := string(body)
	for _, want := range []string{
		`xr_http_requests_total{code="200",route="/v1/scenarios/{name}/query",tenant="genome"} 1`,
		`xr_http_requests_total{code="201",route="/v1/scenarios",tenant="genome"} 1`,
		`xr_http_requests_total{code="200",route="/healthz",tenant=""} 1`,
		"# TYPE xr_http_request_seconds histogram",
		`xr_http_request_seconds_bucket{route="/v1/scenarios/{name}/query",le=`,
		`xr_http_request_seconds_count{route="/v1/scenarios/{name}/query"} 1`,
		// The /metrics request itself is in flight while the snapshot is
		// taken, so the gauge reads 1.
		"xr_inflight_requests 1",
		"xr_lanes_in_use 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "/v1/scenarios/genome/query") {
		t.Error("raw tenant-bearing path leaked into metric labels")
	}
}

// TestHealthzObservabilityFields checks the enriched health document
// keeps its status-code semantics and reports uptime/version/counts.
func TestHealthzObservabilityFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)
	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.UptimeSeconds < 0 || h.Scenarios != 1 {
		t.Errorf("healthz fields: %+v", h)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"status", "version", "uptime_seconds", "scenarios", "inflight", "lanes_busy", "lanes_max"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("healthz missing %q: %s", key, body)
		}
	}
}

// TestRecoverMiddleware checks a handler panic surfaces as a JSON 500
// with the request ID echoed, and the process (and suite) survives. The
// panic is recovered before anything reads the status, so the access log
// and the RED series record the 500.
func TestRecoverMiddleware(t *testing.T) {
	sink := &logBuffer{}
	s := New(Config{Logger: jsonLogger(sink)})
	panicky := httptest.NewServer(s.observe(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	defer panicky.Close()
	resp, err := http.Get(panicky.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("panicking request lost its X-Request-Id header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("500 body not an ErrorResponse: %s", body)
	}
	if rec := findLog(sink.lines(), "panic in handler", ""); rec == nil {
		t.Errorf("panic not logged:\n%s", &sink.buf)
	}
	rec := findLog(sink.lines(), "request", resp.Header.Get("X-Request-Id"))
	if rec == nil || rec["status"] != float64(500) || rec["route"] != "unmatched" {
		t.Errorf("access-log line of the panicking request = %v, want status 500, route unmatched", rec)
	}
	red := `xr_http_requests_total{code="500",route="unmatched",tenant=""}`
	if got := s.cfg.Metrics.Counter(red).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", red, got)
	}
}
