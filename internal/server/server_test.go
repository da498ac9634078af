package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

var update = flag.Bool("update", false, "rewrite golden files")

const demoMapping = `
source Observed(transcript, exons).
source Curated(transcript, exons).
target Gene(transcript, exons).
tgd obs: Observed(t, e) -> Gene(t, e).
tgd cur: Curated(t, e) -> Gene(t, e).
egd key: Gene(t, e1) & Gene(t, e2) -> e1 = e2.
`

const demoFacts = `
Observed(tx1, 4).
Curated(tx1, 5).
Observed(tx2, 7).
Curated(tx2, 7).
`

const demoQueries = `
q(t, e) :- Gene(t, e).
anyGene() :- Gene(t, e).
`

// geneQuery projects the demo's Gene onto its transcript: tx1 is certain
// without being safe, so no greedy repair decides it and its ask still
// reaches the solver, where a one-decision budget degrades it; tx2 is
// safe.
const geneQuery = "gene(t) :- Gene(t, e)."

// The Theorem 3 tricolor gadget (examples/tricolor), hand-encoded for K4
// (not 3-colorable: the marker is XR-certain) and K3 (3-colorable: it is
// not). Two structurally different tenants exercise mixed-tenant load.
const tricolorMapping = `
source E(x, y, u, v).
source Cr(x).
source Cg(x).
source Cb(x).
source F(u, v).
target E1(x, y).
target F1(u, v).
target Fsrc(u, v).
target Cr1(x).
target Cg1(x).
target Cb1(x).

tgd E(x, y, u, v) & Cr(x) -> E1(x, y).
tgd E(x, y, u, v) & Cg(x) -> E1(x, y).
tgd E(x, y, u, v) & Cb(x) -> E1(x, y).
tgd E(x, y, u, v) & Cr(x) -> F1(u, v).
tgd E(x, y, u, v) & Cg(x) -> F1(u, v).
tgd E(x, y, u, v) & Cb(x) -> F1(u, v).
tgd Cr(x) -> Cr1(x).
tgd Cg(x) -> Cg1(x).
tgd Cb(x) -> Cb1(x).
tgd F(u, v) -> F1(u, v).
tgd F(u, v) -> Fsrc(u, v).
tgd trans: F1(u, v) & F1(v, w) -> F1(u, w).

egd E1(x, y) & Cr1(x) & Cr1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cg1(x) & Cg1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cb1(x) & Cb1(y) & F1(u, v) -> u = v.
egd F1(u, u) & F1(v, w) -> v = w.
`

const k4Facts = `
E(a, b, n1, n2). E(c, a, n2, n3). E(d, a, n3, n4).
E(b, c, n4, n5). E(b, d, n5, n6). E(c, d, n6, n7).
Cr(a). Cg(a). Cb(a).
Cr(b). Cg(b). Cb(b).
Cr(c). Cg(c). Cb(c).
Cr(d). Cg(d). Cb(d).
F(n7, n1).
`

const k4Query = "inAllRepairs() :- Fsrc(n7, n1).\n"

const k3Facts = `
E(a, b, n1, n2). E(b, c, n2, n3). E(c, a, n3, n4).
Cr(a). Cg(a). Cb(a).
Cr(b). Cg(b). Cb(b).
Cr(c). Cg(c). Cb(c).
F(n4, n1).
`

const k3Query = "inAllRepairs() :- Fsrc(n4, n1).\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body interface{}) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func loadScenario(t *testing.T, base, name, mapping, facts, queries string) {
	t.Helper()
	code, body, _ := doJSON(t, http.MethodPost, base+"/v1/scenarios",
		LoadRequest{Name: name, Mapping: mapping, Facts: facts, Queries: queries})
	if code != http.StatusCreated {
		t.Fatalf("load %s: status %d, body %s", name, code, body)
	}
}

func TestLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxScenarios: 2})

	// Empty listing first.
	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil || len(list.Scenarios) != 0 {
		t.Fatalf("empty list = %s (err %v)", body, err)
	}

	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	// Duplicate name conflicts.
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios",
		LoadRequest{Name: "genome", Mapping: demoMapping, Facts: demoFacts})
	if code != http.StatusConflict {
		t.Fatalf("duplicate load: status %d, want 409", code)
	}

	// Invalid mapping rejected and the name is released.
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios",
		LoadRequest{Name: "broken", Mapping: "nonsense !!", Facts: ""})
	if code != http.StatusBadRequest {
		t.Fatalf("bad mapping: status %d, want 400", code)
	}

	loadScenario(t, ts.URL, "tri-k4", tricolorMapping, k4Facts, k4Query)

	// Registry full at MaxScenarios=2.
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios",
		LoadRequest{Name: "three", Mapping: demoMapping, Facts: demoFacts})
	if code != http.StatusInsufficientStorage {
		t.Fatalf("registry full: status %d, want 507", code)
	}

	code, body, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Scenarios) != 2 || list.Scenarios[0].Name != "genome" || list.Scenarios[1].Name != "tri-k4" {
		t.Fatalf("list = %s", body)
	}

	// Per-scenario info reflects the exchange.
	code, body, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/genome", nil)
	if code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	var info ScenarioInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.SourceFacts != 4 || info.Consistent || info.Violations != 1 ||
		info.Clusters != 1 || info.SuspectFacts != 2 ||
		!reflect.DeepEqual(info.Queries, []string{"q", "anyGene"}) {
		t.Fatalf("info = %+v", info)
	}

	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown info: status %d, want 404", code)
	}

	code, _, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/scenarios/genome", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", code)
	}
	code, _, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/scenarios/genome", nil)
	if code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", code)
	}
}

// TestQueryMatchesLibrary is the acceptance gate that the wire path returns
// byte-identical tuples to the in-process library path.
func TestQueryMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	sys, err := repro.Load(demoMapping)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.ParseFacts(demoFacts)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.ParseQueries(demoQueries)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sys.NewExchange(in)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"certain", "possible"} {
		for _, q := range qs {
			var want *repro.Answers
			if mode == "possible" {
				want, err = ex.Possible(q)
			} else {
				want, err = ex.Answer(q)
			}
			if err != nil {
				t.Fatal(err)
			}
			code, body, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
				QueryRequest{Name: q.Name(), Mode: mode})
			if code != http.StatusOK {
				t.Fatalf("%s/%s: status %d, body %s", mode, q.Name(), code, body)
			}
			var got QueryResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			wantJSON, _ := json.Marshal(want.Tuples)
			gotJSON, _ := json.Marshal(got.Answers.Tuples)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("%s/%s: server tuples %s, library tuples %s", mode, q.Name(), gotJSON, wantJSON)
			}
			if got.Partial || got.Answers.Partial() {
				t.Fatalf("%s/%s: unexpected partial result", mode, q.Name())
			}
		}
	}
}

// TestConcurrentMixedTenants hammers three structurally different tenants
// from many goroutines (run under -race via `make check`): shared warm
// caches, the process-wide lane pool, and per-scenario symbol-table locks
// all get concurrent traffic, including inline-query parsing (a write-lock
// path) interleaved with named-query execution (read-lock paths).
func TestConcurrentMixedTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentQueries: 8, TotalLanes: 4})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)
	loadScenario(t, ts.URL, "tri-k4", tricolorMapping, k4Facts, k4Query)
	loadScenario(t, ts.URL, "tri-k3", tricolorMapping, k3Facts, k3Query)

	type call struct {
		scenario string
		req      QueryRequest
		wantRows int
	}
	calls := []call{
		{"genome", QueryRequest{Name: "q"}, 1},
		{"genome", QueryRequest{Name: "q", Mode: "possible"}, 3},
		{"genome", QueryRequest{Query: "inline(t) :- Gene(t, 7).\n"}, 1},
		{"tri-k4", QueryRequest{Name: "inAllRepairs"}, 1}, // K4 not 3-colorable
		{"tri-k3", QueryRequest{Name: "inAllRepairs"}, 0}, // K3 3-colorable
	}
	const workers = 6
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(calls))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := calls[(w+r)%len(calls)]
				code, body, _ := doJSON(t, http.MethodPost,
					ts.URL+"/v1/scenarios/"+c.scenario+"/query", c.req)
				// 429 is a legitimate overload answer under saturation;
				// anything else must be a clean 200 with the right rows.
				if code == http.StatusTooManyRequests {
					continue
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d, body %s", c.scenario, code, body)
					continue
				}
				var resp QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					continue
				}
				if len(resp.Answers.Tuples) != c.wantRows {
					errs <- fmt.Errorf("%s %+v: rows = %d, want %d",
						c.scenario, c.req, len(resp.Answers.Tuples), c.wantRows)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBudgetPartial exercises the graceful-degradation contract over the
// wire: a decision budget of 1 deterministically exhausts the conflicted
// signature of geneQuery, yet the response is HTTP 200 with the degraded
// signature reported and the undecided tuples ?-marked (in the unknown
// set).
func TestBudgetPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	code, body, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Query: geneQuery, MaxDecisions: 1})
	if code != http.StatusOK {
		t.Fatalf("budgeted query: status %d, body %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || !resp.Answers.Partial() {
		t.Fatalf("budgeted query not partial: %s", body)
	}
	if len(resp.Answers.Degraded) == 0 || resp.Answers.DegradedSignatures == 0 {
		t.Fatalf("no degraded signatures reported: %s", body)
	}
	if len(resp.Answers.Unknown) == 0 || resp.Answers.UnknownTuples != len(resp.Answers.Unknown) {
		t.Fatalf("no unknown tuples reported: %s", body)
	}
	// The certain row survives degradation (sound lower bound).
	if len(resp.Answers.Tuples) != 1 || resp.Answers.Tuples[0][0] != "tx2" {
		t.Fatalf("tuples = %v", resp.Answers.Tuples)
	}

	// partial=false selects exact-or-error: the same budget now fails.
	no := false
	code, body, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Query: geneQuery, MaxDecisions: 1, Partial: &no})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("strict budgeted query: status %d, want 422; body %s", code, body)
	}
}

// TestSaturation429 fills the admission semaphore and checks overload
// handling: 429 with Retry-After, the rejection counted, and capacity
// restored afterwards.
func TestSaturation429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentQueries: 1})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	// Occupy the only admission slot deterministically.
	s.admit <- struct{}{}
	code, body, hdr := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Name: "q"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated query: status %d, want 429; body %s", code, body)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", hdr.Get("Retry-After"))
	}
	if got := s.cfg.Metrics.Counter("xr_server_rejected_total").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	<-s.admit

	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Name: "q"})
	if code != http.StatusOK {
		t.Fatalf("post-saturation query: status %d, want 200", code)
	}
}

// TestDrainOrdering checks graceful shutdown: once draining, new requests
// get 503 and healthz flips, while Drain itself blocks until the last
// in-flight request leaves.
func TestDrainOrdering(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	// Pin one synthetic in-flight request, then start draining.
	if !s.group.Enter() {
		t.Fatal("Enter refused before drain")
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(t.Context()) }()
	for !s.group.Draining() {
		time.Sleep(time.Millisecond)
	}

	code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Name: "q"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", code)
	}
	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" || h.Inflight != 1 {
		t.Fatalf("healthz = %s (err %v)", body, err)
	}

	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.group.Leave()
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestStreamNDJSON pins the streamed framing to a golden file: a budgeted
// partial query (geneQuery) yields header, the certain row, ?-marked
// unknowns, the degraded signature, stats, and end — durations normalized
// to 0.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	body, err := json.Marshal(QueryRequest{Query: geneQuery, MaxDecisions: 1, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenarios/genome/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`"duration_ns":\d+`).ReplaceAll(raw, []byte(`"duration_ns":0`))

	path := filepath.Join("testdata", "stream.golden.ndjson")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -run TestStreamNDJSON -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Structural checks independent of the golden bytes: every line is a
	// framed JSON object, unknowns carry the ? mark, and the stream is
	// properly terminated.
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	var frames []string
	unknownMarked := 0
	for _, ln := range lines {
		var f map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &f); err != nil {
			t.Fatalf("bad frame %q: %v", ln, err)
		}
		frames = append(frames, f["frame"].(string))
		if f["frame"] == "unknown" {
			if f["mark"] != "?" {
				t.Fatalf("unknown frame without ? mark: %q", ln)
			}
			unknownMarked++
		}
	}
	if frames[0] != "header" || frames[len(frames)-2] != "stats" || frames[len(frames)-1] != "end" {
		t.Fatalf("frame order = %v", frames)
	}
	if unknownMarked == 0 {
		t.Fatal("no ?-marked unknown frames in a budgeted stream")
	}
}

// TestStreamViaAcceptHeader checks content negotiation: Accept:
// application/x-ndjson selects streaming without the body flag.
func TestStreamViaAcceptHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		strings.NewReader(`{"name":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
}

// TestExplainEndpoint checks the explanation route end to end.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	code, body, _ := doJSON(t, http.MethodGet,
		ts.URL+"/v1/scenarios/genome/explain?query=q&tuple=tx2,7", nil)
	if code != http.StatusOK {
		t.Fatalf("explain: status %d, body %s", code, body)
	}
	var resp ExplainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	e := resp.Explanation
	if e == nil || e.Query != "q" || !reflect.DeepEqual(e.Tuple, []string{"tx2", "7"}) || e.Text == "" {
		t.Fatalf("explanation = %s", body)
	}

	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/genome/explain", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("explain without query: status %d, want 400", code)
	}
	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/genome/explain?query=nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("explain unknown query: status %d, want 404", code)
	}
	for _, tuple := range []string{"tx2", "tx2,7,9"} {
		code, body, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/genome/explain?query=q&tuple="+tuple, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("explain q(%s) of arity 2: status %d, want 400; body %s", tuple, code, body)
		}
	}
}

// TestExplainUsesServerBudgets checks /explain runs under the server's
// default budgets and partial-by-default, as /query does: on tri-K4 a
// one-decision budget degrades the marker's signature, so /query reports
// it degraded by budget and /explain answers "unknown" with cause
// "budget" and HTTP 200 instead of solving unbudgeted to "certain".
func TestExplainUsesServerBudgets(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultMaxDecisions: 1})
	loadScenario(t, ts.URL, "tri-k4", tricolorMapping, k4Facts, k4Query)

	code, body, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/tri-k4/query",
		QueryRequest{Name: "inAllRepairs"})
	if code != http.StatusOK {
		t.Fatalf("query: status %d, body %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial || len(qr.Answers.Degraded) != 1 || !errors.Is(&qr.Answers.Degraded[0], repro.ErrBudget) {
		t.Fatalf("query under DefaultMaxDecisions 1 not degraded by budget: %s", body)
	}

	code, body, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/tri-k4/explain?query=inAllRepairs", nil)
	if code != http.StatusOK {
		t.Fatalf("explain: status %d, body %s", code, body)
	}
	var er ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if e := er.Explanation; e == nil || e.Verdict != "unknown" || e.Cause != "budget" {
		t.Fatalf("explain under DefaultMaxDecisions 1 = %s, want verdict unknown, cause budget", body)
	}
}

// TestExplainAccessLogCarriesSolverWork checks an /explain request
// attributes its solver work to itself, as a query does: its access-log
// line carries decisions and the hardest signatures. The K3 gadget's
// marker is rejected only by a search: no greedy repair refutes it.
func TestExplainAccessLogCarriesSolverWork(t *testing.T) {
	sink := &logBuffer{}
	_, ts := newTestServer(t, Config{Logger: jsonLogger(sink)})
	loadScenario(t, ts.URL, "k3", tricolorMapping, k3Facts, k3Query)

	const reqID = "explain-work-1"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/scenarios/k3/explain?query=inAllRepairs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"verdict":"rejected"`) {
		t.Fatalf("explain: status %d, body %s", resp.StatusCode, body)
	}
	rec := findLog(sink.lines(), "request", reqID)
	if rec == nil {
		t.Fatalf("no access-log line for %s in:\n%s", reqID, &sink.buf)
	}
	if d, _ := rec["decisions"].(float64); d <= 0 {
		t.Errorf("explain access log decisions = %v, want > 0: %v", rec["decisions"], rec)
	}
	if rec["hot_signatures"] == nil {
		t.Errorf("explain access log missing hot_signatures: %v", rec)
	}
}

// blockingWriter is a ResponseWriter whose first Write blocks until
// unblock is closed, standing in for a client that does not read.
type blockingWriter struct {
	header  http.Header
	blocked chan struct{} // closed when the first Write starts blocking
	unblock chan struct{}
	once    sync.Once
	body    bytes.Buffer
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: http.Header{}, blocked: make(chan struct{}), unblock: make(chan struct{})}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}

func (w *blockingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() {
		close(w.blocked)
		<-w.unblock
	})
	return w.body.Write(b)
}

// TestLanesFreedBeforeResponseWrite checks a request hands its solver
// lanes back when the engine returns, not when the body is written: while
// the first response Write blocks, no lane stays leased. Query (buffered
// and NDJSON) and explain share the path.
func TestLanesFreedBeforeResponseWrite(t *testing.T) {
	s, ts := newTestServer(t, Config{TotalLanes: 2})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	for _, c := range []struct {
		name, method, target, body string
	}{
		{"query", http.MethodPost, "/v1/scenarios/genome/query", `{"name":"q"}`},
		{"stream", http.MethodPost, "/v1/scenarios/genome/query", `{"name":"q","stream":true}`},
		{"explain", http.MethodGet, "/v1/scenarios/genome/explain?query=q&tuple=tx1,4", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newBlockingWriter()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Handler().ServeHTTP(w, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
			}()
			<-w.blocked
			inUse := s.lanes.InUse()
			close(w.unblock)
			<-done
			if inUse != 0 {
				t.Fatalf("%d lane(s) still leased while the response write blocks", inUse)
			}
			if w.body.Len() == 0 {
				t.Fatal("empty response body")
			}
		})
	}
}

// TestLaneWaitCountsAgainstTimeout holds the pool's only lane. A query
// whose signature job must wait for it fails with 504 once its timeout_ms
// passes, and succeeds when the lane frees in time; either way its access
// line reports the wait as lane_wait_ms.
func TestLaneWaitCountsAgainstTimeout(t *testing.T) {
	sink := &logBuffer{}
	s, ts := newTestServer(t, Config{TotalLanes: 1, Logger: jsonLogger(sink)})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)
	serve := func(id, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/scenarios/genome/query", strings.NewReader(body))
		req.Header.Set("X-Request-Id", id)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}

	if _, err := s.lanes.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := serve("lane-timeout", `{"name":"q","timeout_ms":50}`); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("query behind a held lane: status %d, want 504 (body %s)", w.Code, w.Body)
	}
	time.AfterFunc(50*time.Millisecond, s.lanes.Release)
	if w := serve("lane-wait", `{"name":"q"}`); w.Code != http.StatusOK {
		t.Fatalf("query after the lane frees: status %d, want 200 (body %s)", w.Code, w.Body)
	}
	for _, id := range []string{"lane-timeout", "lane-wait"} {
		rec := findLog(sink.lines(), "request", id)
		if wait, _ := rec["lane_wait_ms"].(float64); wait <= 0 {
			t.Errorf("%s: access log lane_wait_ms = %v, want > 0: %v", id, rec["lane_wait_ms"], rec)
		}
	}
	if n := s.lanes.InUse(); n != 0 {
		t.Fatalf("%d lane(s) held after both requests returned", n)
	}
}

// TestQueryValidation covers the request-shape error paths.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)

	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"missing query", QueryRequest{}, http.StatusBadRequest},
		{"both name and query", QueryRequest{Name: "q", Query: "x() :- Gene(t, e).\n"}, http.StatusBadRequest},
		{"unknown named query", QueryRequest{Name: "nope"}, http.StatusNotFound},
		{"bad inline syntax", QueryRequest{Query: "not a query"}, http.StatusBadRequest},
		{"bad mode", QueryRequest{Name: "q", Mode: "maybe"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query", c.req)
		if code != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, code, c.want, body)
		}
	}

	code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/nowhere/query",
		QueryRequest{Name: "q"})
	if code != http.StatusNotFound {
		t.Errorf("unknown scenario: status %d, want 404", code)
	}
}

// TestMetricsExposition checks that per-tenant labeled series reach the
// Prometheus endpoint on the shared mux.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "genome", demoMapping, demoFacts, demoQueries)
	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/genome/query",
		QueryRequest{Name: "q"}); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`xr_server_queries_total{mode="certain",scenario="genome"} 1`,
		"# TYPE xr_server_queries_total counter",
		"xr_server_scenarios 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestQueryStateBytesPerTenant: each tenant reports the size of its own
// query state. A tenant nothing has asked holds none, asking one tenant
// leaves the other's number alone, and a repeat adds nothing.
func TestQueryStateBytesPerTenant(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadScenario(t, ts.URL, "k4", tricolorMapping, k4Facts, k4Query)
	loadScenario(t, ts.URL, "k3", tricolorMapping, k3Facts, k3Query)
	sizes := func() map[string]int64 {
		t.Helper()
		code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios", nil)
		if code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		var list ListResponse
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, info := range list.Scenarios {
			out[info.Name] = info.QueryStateBytes
		}
		return out
	}
	ask := func(name string) {
		t.Helper()
		if code, body, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/scenarios/"+name+"/query",
			QueryRequest{Name: "inAllRepairs"}); code != http.StatusOK {
			t.Fatalf("query %s: status %d, body %s", name, code, body)
		}
	}
	if got := sizes(); got["k4"] != 0 || got["k3"] != 0 {
		t.Fatalf("query state before any query: %v, want none", got)
	}
	ask("k4")
	afterK4 := sizes()
	if afterK4["k4"] <= 0 || afterK4["k3"] != 0 {
		t.Fatalf("query state after asking k4: %v, want k4 only", afterK4)
	}
	ask("k3")
	ask("k4")
	got := sizes()
	if got["k3"] <= 0 || got["k4"] != afterK4["k4"] {
		t.Fatalf("query state after asking k3 and repeating k4: %v, want k3 > 0 and k4 = %d", got, afterK4["k4"])
	}
	code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios/k3", nil)
	var info ScenarioInfo
	if err := json.Unmarshal(body, &info); code != http.StatusOK || err != nil || info.QueryStateBytes != got["k3"] {
		t.Fatalf("info k3: status %d, %+v (err %v), want query_state_bytes %d", code, info, err, got["k3"])
	}
}
