package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xr"
)

// result is one completed request as the client saw it.
type result struct {
	op      *op
	client  int
	id      string // X-Request-Id
	start   time.Time
	latency time.Duration
	status  int
	bytes   int
	err     string // non-empty when the request failed (any cause)

	// Decoded parts of the response, kept for per-layer analysis.
	query *queryResponse
	load  *loadResponse
}

// queryResponse is the subset of the xrserved query body the benchmark
// reads.
type queryResponse struct {
	Partial   bool   `json:"partial"`
	RequestID string `json:"request_id"`
	Answers   struct {
		Tuples         [][]string `json:"tuples"`
		Candidates     int        `json:"candidates"`
		SafeAccepted   int        `json:"safe_accepted"`
		SolverAccepted int        `json:"solver_accepted"`
		Programs       int        `json:"programs"`
		CacheHits      int        `json:"cache_hits"`
		Duration       int64      `json:"duration_ns"`
	} `json:"answers"`
	Trace []telemetry.SpanNode `json:"trace"`
}

// loadResponse is the subset of the load (ScenarioInfo) body the benchmark
// reads.
type loadResponse struct {
	SourceFacts int              `json:"source_facts"`
	Clusters    int              `json:"clusters"`
	Stats       xr.ExchangeStats `json:"stats"`
}

// tupleDigest summarizes an answer set independently of tuple order: the
// tuple count and the wrapping sum of each tuple's FNV-64a hash.
type tupleDigest struct {
	Count int
	Sum   uint64
}

func digestOf(tuples [][]string) tupleDigest {
	d := tupleDigest{Count: len(tuples)}
	h := fnv.New64a()
	for _, t := range tuples {
		h.Reset()
		for _, v := range t {
			_, _ = h.Write([]byte(v))
			_, _ = h.Write([]byte{0})
		}
		d.Sum += h.Sum64()
	}
	return d
}

// checkQuery validates a decoded query response against its expectation
// and returns the failure reason, or "".
func checkQuery(resp *queryResponse, want *expectation) string {
	if resp.Partial {
		return "degraded (partial) answer"
	}
	n := len(resp.Answers.Tuples)
	if want.count >= 0 && n != want.count {
		return fmt.Sprintf("answer has %d tuples, want %d", n, want.count)
	}
	if want.noSolver && resp.Answers.SolverAccepted != 0 {
		return fmt.Sprintf("solver_accepted = %d, want 0", resp.Answers.SolverAccepted)
	}
	if want.digest != nil {
		if got := digestOf(resp.Answers.Tuples); got != *want.digest {
			return fmt.Sprintf("answer digest %d/%016x differs from the library's %d/%016x",
				got.Count, got.Sum, want.digest.Count, want.digest.Sum)
		}
	}
	return ""
}

// checkResponse classifies one HTTP exchange; it fills r.err on failure and
// the decoded body on success.
func checkResponse(r *result, body []byte) {
	o := r.op
	switch o.kind {
	case opQuery:
		if r.status != http.StatusOK {
			r.err = fmt.Sprintf("status %d: %.200s", r.status, body)
			return
		}
		var q queryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			r.err = "decoding query response: " + err.Error()
			return
		}
		if msg := checkQuery(&q, o.want); msg != "" {
			r.err = msg
			return
		}
		q.Answers.Tuples = nil // keep stats and spans only
		r.query = &q
	case opLoad:
		if r.status != http.StatusCreated {
			r.err = fmt.Sprintf("status %d: %.200s", r.status, body)
			return
		}
		var l loadResponse
		if err := json.Unmarshal(body, &l); err != nil {
			r.err = "decoding load response: " + err.Error()
			return
		}
		if l.SourceFacts != o.want.sourceFcs {
			r.err = fmt.Sprintf("loaded %d source facts, want %d", l.SourceFacts, o.want.sourceFcs)
			return
		}
		r.load = &l
	case opDelete:
		if r.status != http.StatusNoContent {
			r.err = fmt.Sprintf("status %d: %.200s", r.status, body)
		}
	}
}

// daemonClient sends requests to one daemon over at most two connections.
type daemonClient struct {
	base   string
	http   *http.Client
	traced bool // add ?trace=1 to queries
	nextID int
	mu     sync.Mutex
}

func newDaemonClient(base string) *daemonClient {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &daemonClient{base: base, http: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

func (d *daemonClient) close() { d.http.CloseIdleConnections() }

// requestID returns a fresh, deterministic X-Request-Id.
func (d *daemonClient) requestID(client int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	return fmt.Sprintf("xrperf-c%d-%06d", client, d.nextID)
}

// do sends one planned request; latency runs from just before the request
// is sent until the last body byte is read.
func (d *daemonClient) do(ctx context.Context, o *op, client int) *result {
	r := &result{op: o, client: client, id: d.requestID(client)}
	url := d.base + o.path
	if d.traced && o.kind == opQuery {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, o.method, url, bytes.NewReader(o.body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	req.Header.Set("X-Request-Id", r.id)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.start = time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		r.latency = time.Since(r.start)
		r.err = "transport: " + err.Error()
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(r.start)
	r.status, r.bytes = resp.StatusCode, len(body)
	if err != nil {
		r.err = "reading body: " + err.Error()
		return r
	}
	checkResponse(r, body)
	return r
}

// get fetches an observability endpoint and decodes its JSON body into v
// (v nil discards the body).
func (d *daemonClient) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// counters reads the /metrics.json counter snapshot.
func (d *daemonClient) counters(ctx context.Context) (map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := d.get(ctx, "/metrics.json", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// heapAfterGC forces collections in the daemon and returns its live heap:
// the HeapAlloc that the text heap profile reads right after its forced GC
// and before it allocates anything itself. (Reading /debug/vars afterwards
// would also count the garbage the profile and expvar handlers allocate,
// which moved the figure by megabytes run to run.) The profile is taken
// twice because sync.Pool contents survive one collection.
func (d *daemonClient) heapAfterGC(ctx context.Context) (uint64, error) {
	if _, err := d.heapProfileAlloc(ctx); err != nil {
		return 0, err
	}
	return d.heapProfileAlloc(ctx)
}

func (d *daemonClient) heapProfileAlloc(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	const key = "\n# HeapAlloc = "
	i := bytes.Index(body, []byte(key))
	if resp.StatusCode != http.StatusOK || i < 0 {
		return 0, fmt.Errorf("heap profile: status %d without a HeapAlloc line", resp.StatusCode)
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseUint(string(rest), 10, 64)
}

// sequential sends ops one after another from one client, honouring each
// op's await and signal gates.
func (d *daemonClient) sequential(ctx context.Context, ops []op, client int) []*result {
	out := make([]*result, 0, len(ops))
	for i := range ops {
		o := &ops[i]
		for _, gate := range o.await {
			select {
			case <-gate:
			case <-ctx.Done():
				return out
			}
		}
		out = append(out, d.do(ctx, o, client))
		if o.signal != nil {
			close(o.signal)
		}
	}
	return out
}

// phase runs every client's sequence in a closed loop (each client sends
// its next request only after the previous one completed) and returns the
// results per client and the phase's wall time.
func (d *daemonClient) phase(ctx context.Context, seqs [clients][]op) ([clients][]*result, time.Duration) {
	var out [clients][]*result
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = d.sequential(ctx, seqs[c], c)
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}
