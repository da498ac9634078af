package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/xr"
)

// Config tunes one Server. The zero value is usable: every field has a
// production-safe default applied by New.
type Config struct {
	// MaxConcurrentQueries is the admission semaphore: requests beyond it
	// receive 429 with Retry-After instead of queueing unboundedly.
	// Default 2×GOMAXPROCS.
	MaxConcurrentQueries int
	// TotalLanes is the process-wide solver-lane pool shared by all
	// tenants (see lanePool). Default GOMAXPROCS.
	TotalLanes int
	// PerQueryLanes caps the lanes a single query may lease.
	// Default TotalLanes.
	PerQueryLanes int

	// DefaultTimeout bounds each query unless the request asks for less;
	// requests can never exceed MaxTimeout. Defaults 30s / 5m. These are
	// the server-side budgets that keep a hostile query from wedging a
	// tenant: combined with Partial-by-default, an expensive query
	// degrades to a sound lower bound instead of holding a lane forever.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultSignatureTimeout, DefaultMaxDecisions, and DefaultMaxConflicts
	// are per-signature budgets applied when the request does not set its
	// own (zero leaves the dimension unlimited by default).
	DefaultSignatureTimeout time.Duration
	DefaultMaxDecisions     int64
	DefaultMaxConflicts     int64

	// MaxScenarios caps the tenant registry (default 64).
	MaxScenarios int
	// MaxBodyBytes caps request bodies (default 16 MiB — fact files are
	// the large case).
	MaxBodyBytes int64

	// Metrics receives engine counters and the per-tenant server series
	// (xr_server_queries_total{scenario="..."} etc.), and is exposed at
	// /metrics on the same mux. Defaults to a fresh registry.
	Metrics *repro.Metrics

	// Store, when non-nil, persists scenarios across restarts (xrserved
	// -data-dir): loads write behind to it, unloads delete from it, and
	// RecoverFromStore rebuilds the registry from it at boot. Nil runs
	// the daemon purely in-memory, exactly as before.
	Store *store.Store

	// Logger receives structured lifecycle and access-log records.
	// Defaults to a discard logger: the library stays silent unless the
	// embedding process (cmd/xrserved) opts in.
	Logger *slog.Logger
	// SlowQuery is the slow-request threshold: a request whose wall time
	// meets it is logged at WARN and captured (access record + span tree)
	// in the slowlog ring. Zero disables capture.
	SlowQuery time.Duration
	// SlowLogSize bounds the slowlog ring (default 64 entries).
	SlowLogSize int
	// TraceRingSize bounds the completed-request trace ring backing
	// GET /v1/requests/{id}/trace (default 128 entries).
	TraceRingSize int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	procs := runtime.GOMAXPROCS(0)
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = 2 * procs
	}
	if c.TotalLanes <= 0 {
		c.TotalLanes = procs
	}
	if c.PerQueryLanes <= 0 {
		c.PerQueryLanes = c.TotalLanes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxScenarios <= 0 {
		c.MaxScenarios = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Metrics == nil {
		c.Metrics = repro.NewMetrics()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 128
	}
	return c
}

// Server is the multi-tenant query daemon: a scenario registry, the
// process-wide admission controls, and the HTTP API. Create with New,
// mount Handler, stop with Drain.
type Server struct {
	cfg      Config
	log      *slog.Logger
	reg      *Registry
	admit    chan struct{}
	lanes    *lanePool
	group    *drainGroup
	mux      *http.ServeMux
	root     http.Handler
	inflight *inflightTable
	slow     *slowRing
	traces   *traceRing
	start    time.Time
	version  string
}

// New builds a Server from cfg (zero-value fields get defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		reg:      NewRegistry(cfg.MaxScenarios),
		admit:    make(chan struct{}, cfg.MaxConcurrentQueries),
		lanes:    newLanePool(cfg.TotalLanes),
		group:    newDrainGroup(),
		inflight: newInflightTable(),
		slow:     newSlowRing(cfg.SlowLogSize),
		traces:   newTraceRing(cfg.TraceRingSize),
		start:    time.Now(),
		version:  buildVersion(),
	}
	mux := http.NewServeMux()
	// Routes register through s.route so logs and metrics carry the route
	// template instead of raw (tenant-bearing) paths.
	mux.Handle("POST /v1/scenarios", s.route("/v1/scenarios", s.handleLoad))
	mux.Handle("GET /v1/scenarios", s.route("/v1/scenarios", s.handleList))
	mux.Handle("GET /v1/scenarios/{name}", s.route("/v1/scenarios/{name}", s.handleInfo))
	mux.Handle("DELETE /v1/scenarios/{name}", s.route("/v1/scenarios/{name}", s.handleUnload))
	mux.Handle("POST /v1/scenarios/{name}/query", s.route("/v1/scenarios/{name}/query", s.handleQuery))
	mux.Handle("GET /v1/scenarios/{name}/explain", s.route("/v1/scenarios/{name}/explain", s.handleExplain))
	mux.Handle("GET /v1/scenarios/{name}/profile", s.route("/v1/scenarios/{name}/profile", s.handleProfile))
	mux.Handle("GET /v1/store", s.route("/v1/store", s.handleStore))
	mux.Handle("GET /v1/inflight", s.route("/v1/inflight", s.handleInflight))
	mux.Handle("GET /v1/slowlog", s.route("/v1/slowlog", s.handleSlowlog))
	mux.Handle("GET /v1/requests/{id}/trace", s.route("/v1/requests/{id}/trace", s.handleRequestTrace))
	mux.Handle("GET /healthz", s.route("/healthz", s.handleHealthz))
	// Metrics/pprof exposition shares the mux: the daemon is its own
	// observability endpoint (/metrics, /metrics.json, /debug/vars,
	// /debug/pprof/).
	obs := telemetry.Handler(s.cfg.Metrics)
	mux.Handle("/metrics", s.route("/metrics", obs.ServeHTTP))
	mux.Handle("/metrics.json", s.route("/metrics.json", obs.ServeHTTP))
	mux.Handle("/debug/", s.route("/debug/", obs.ServeHTTP))
	s.mux = mux
	s.root = s.observe(mux)
	return s
}

// buildVersion reports the main module version from the embedded build
// info ("devel" for an un-stamped build).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// Handler returns the daemon's HTTP handler (the mux wrapped in the
// observability middleware stack; see middleware.go).
func (s *Server) Handler() http.Handler { return s.root }

// Registry exposes the tenant table (used by cmd/xrserved for preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's registry.
func (s *Server) Metrics() *repro.Metrics { return s.cfg.Metrics }

// Drain gracefully stops the daemon: new requests are refused with 503,
// in-flight requests (queries and loads) run to completion, and Drain
// returns once the server is quiescent or ctx expires. Call before
// closing the listener so clients see clean completions, not resets.
// Once quiescent, every tenant's cumulative workload profile is persisted
// (when a store is configured) so a restart resumes the hardness history.
func (s *Server) Drain(ctx context.Context) error {
	err := s.group.Drain(ctx)
	s.persistProfiles()
	return err
}

// ---------------------------------------------------------------------------
// Wire types (request/response bodies). Field names are the compatibility
// contract; see DESIGN.md §14.

// LoadRequest is the body of POST /v1/scenarios.
type LoadRequest struct {
	Name    string `json:"name"`
	Mapping string `json:"mapping"`
	Facts   string `json:"facts"`
	// Queries optionally preloads named queries, addressable by name in
	// query and explain requests (and parsed once, at load time).
	Queries string `json:"queries,omitempty"`
}

// ScenarioInfo describes one loaded tenant.
type ScenarioInfo struct {
	Name         string           `json:"name"`
	SourceFacts  int              `json:"source_facts"`
	Consistent   bool             `json:"consistent"`
	Violations   int              `json:"violations"`
	Clusters     int              `json:"clusters"`
	SuspectFacts int              `json:"suspect_facts"`
	Queries      []string         `json:"queries"`
	Stats        xr.ExchangeStats `json:"stats"`
}

// ListResponse is the body of GET /v1/scenarios.
type ListResponse struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// QueryRequest is the body of POST /v1/scenarios/{name}/query. Exactly one
// of Name (a preloaded query) or Query (inline text defining one query)
// must be set. Budgets left zero inherit the server defaults; the request
// timeout is additionally capped at the server maximum.
type QueryRequest struct {
	Name  string `json:"name,omitempty"`
	Query string `json:"query,omitempty"`
	// Mode is "certain" (default) or "possible".
	Mode               string `json:"mode,omitempty"`
	TimeoutMS          int64  `json:"timeout_ms,omitempty"`
	SignatureTimeoutMS int64  `json:"signature_timeout_ms,omitempty"`
	MaxDecisions       int64  `json:"max_decisions,omitempty"`
	MaxConflicts       int64  `json:"max_conflicts,omitempty"`
	// Partial selects sound partial answers on budget exhaustion. It
	// defaults to true: a hostile or overweight query degrades (HTTP 200,
	// degraded signatures reported, unknowns ?-marked) rather than
	// erroring. Set explicitly to false for exact-or-error semantics.
	Partial *bool `json:"partial,omitempty"`
	Explain bool  `json:"explain,omitempty"`
	// Stream selects NDJSON framing (also selectable with
	// Accept: application/x-ndjson).
	Stream bool `json:"stream,omitempty"`
}

// QueryResponse is the buffered-JSON body of a query call.
type QueryResponse struct {
	Scenario string `json:"scenario"`
	Query    string `json:"query"`
	Mode     string `json:"mode"`
	Partial  bool   `json:"partial"`
	// RequestID echoes the X-Request-Id header in the body, so a stored
	// response stays correlatable with logs, slowlog, and trace fetches.
	RequestID string         `json:"request_id,omitempty"`
	Answers   *repro.Answers `json:"answers"`
	// Trace is the request's span tree, included when the request asked
	// for it with ?trace=1 (also fetchable later at
	// GET /v1/requests/{id}/trace while the trace ring retains it).
	Trace []telemetry.SpanNode `json:"trace,omitempty"`
}

// ExplainResponse is the body of GET /v1/scenarios/{name}/explain.
type ExplainResponse struct {
	Scenario    string             `json:"scenario"`
	Explanation *repro.Explanation `json:"explanation"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Scenarios     int     `json:"scenarios"`
	Inflight      int     `json:"inflight"`
	LanesBusy     int     `json:"lanes_busy"`
	LanesMax      int     `json:"lanes_max"`
	// Store summarizes the persistence layer; absent when the daemon runs
	// without -data-dir.
	Store *StoreHealth `json:"store,omitempty"`
	// Profile aggregates the per-tenant workload profilers; absent when no
	// loaded scenario records one.
	Profile *ProfileHealth `json:"profile,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := HealthResponse{
		Status:        "ok",
		Version:       s.version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Scenarios:     s.reg.Len(),
		Inflight:      s.group.Inflight(),
		LanesBusy:     s.lanes.inUse(),
		LanesMax:      s.lanes.capacity(),
		Store:         s.storeHealth(),
		Profile:       s.profileHealth(),
	}
	code := http.StatusOK
	if s.group.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !s.group.Enter() {
		s.writeError(w, http.StatusServiceUnavailable, "", errors.New("server draining"))
		return
	}
	defer s.group.Leave()
	var req LoadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if st := stateFrom(r.Context()); st != nil {
		st.setTenant(req.Name)
	}
	sc, err := s.reg.Load(req.Name, req.Mapping, req.Facts, req.Queries,
		repro.WithMetrics(s.cfg.Metrics), repro.WithProfiling(true))
	if err != nil {
		switch {
		case errors.Is(err, ErrScenarioExists):
			s.writeError(w, http.StatusConflict, req.Name, err)
		case errors.Is(err, ErrRegistryFull):
			s.writeError(w, http.StatusInsufficientStorage, req.Name, err)
		default:
			s.writeError(w, http.StatusBadRequest, req.Name, err)
		}
		return
	}
	s.cfg.Metrics.Gauge("xr_server_scenarios").Set(int64(s.reg.Len()))
	s.cfg.Metrics.Counter("xr_server_loads_total").Inc()
	s.persistScenario(telemetry.RequestIDFromContext(r.Context()), &req)
	info := sc.Info()
	s.log.Info("scenario loaded",
		"request_id", telemetry.RequestIDFromContext(r.Context()),
		"scenario", info.Name,
		"source_facts", info.SourceFacts,
		"consistent", info.Consistent,
		"violations", info.Violations,
		"queries", len(info.Queries))
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	scs := s.reg.List()
	resp := ListResponse{Scenarios: make([]ScenarioInfo, 0, len(scs))}
	for _, sc := range scs {
		resp.Scenarios = append(resp.Scenarios, sc.Info())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if st := stateFrom(r.Context()); st != nil {
		st.setTenant(r.PathValue("name"))
	}
	sc, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, r.PathValue("name"), err)
		return
	}
	writeJSON(w, http.StatusOK, sc.Info())
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if st := stateFrom(r.Context()); st != nil {
		st.setTenant(name)
	}
	sc, err := s.reg.Remove(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, name, err)
		return
	}
	requestID := telemetry.RequestIDFromContext(r.Context())
	// New requests 404 from here on; in-flight ones drain against the old
	// exchange, and the drained callback fires when the last finishes.
	sc.markRemoved(s.scenarioDrained(requestID, name))
	s.forgetScenario(requestID, name)
	s.cfg.Metrics.Gauge("xr_server_scenarios").Set(int64(s.reg.Len()))
	s.cfg.Metrics.Counter("xr_server_unloads_total").Inc()
	s.log.Info("scenario unloaded", "request_id", requestID, "scenario", name)
	w.WriteHeader(http.StatusNoContent)
}

// admitQuery is the prologue the query and explain handlers share before
// reading their request: tag the tenant, join the drain group (503 while
// draining), take an admission slot, and pin the scenario against a
// concurrent unload (404 when unknown). On failure it has written the
// response and returns a nil Scenario; otherwise the caller defers leave,
// which undoes the steps in reverse.
func (s *Server) admitQuery(w http.ResponseWriter, st *requestState, scenario string) (sc *Scenario, leave func()) {
	if st != nil {
		st.setTenant(scenario)
	}
	if !s.group.Enter() {
		s.writeError(w, http.StatusServiceUnavailable, scenario, errors.New("server draining"))
		return nil, nil
	}
	// Admission: bounded concurrency across all tenants. Saturation is a
	// normal overload signal, not an error — 429 with Retry-After tells
	// well-behaved clients to back off.
	select {
	case s.admit <- struct{}{}:
	default:
		s.cfg.Metrics.Counter("xr_server_rejected_total").Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, scenario, errors.New("query capacity saturated"))
		s.group.Leave()
		return nil, nil
	}
	unadmit := func() {
		<-s.admit
		s.group.Leave()
	}
	sc, releaseRef, err := s.reg.Acquire(scenario)
	if err != nil {
		s.writeError(w, http.StatusNotFound, scenario, err)
		unadmit()
		return nil, nil
	}
	return sc, func() {
		releaseRef()
		unadmit()
	}
}

// leaseLanes leases solver lanes for an admitted request from the
// process-wide pool and keeps xr_lanes_in_use current. The request
// context bounds the wait, so an abandoned request never holds a slot
// (503 when canceled while waiting). It then gives the request its own
// tracer, whose span tree the middleware harvests into the trace ring and
// slowlog, and records the lane count and the hash of queryText for
// /v1/inflight. On failure it has written the response and returns a nil
// release; otherwise the caller defers release.
func (s *Server) leaseLanes(w http.ResponseWriter, r *http.Request, st *requestState, scenario, queryText string) (lanes int, tracer *telemetry.Tracer, release func()) {
	lanesGauge := s.cfg.Metrics.Gauge("xr_lanes_in_use")
	lanes, free := s.lanes.lease(r.Context(), s.cfg.PerQueryLanes)
	if free == nil {
		s.writeError(w, http.StatusServiceUnavailable, scenario, errors.New("canceled while waiting for solver lanes"))
		lanesGauge.Set(int64(s.lanes.inUse()))
		return 0, nil, nil
	}
	lanesGauge.Set(int64(s.lanes.inUse()))
	tracer = telemetry.NewTracer()
	if st != nil {
		tracer.SetRequestID(st.id)
		st.setTracer(tracer)
		st.lanes.Store(int64(lanes))
		st.setQueryHash(queryTextHash(queryText))
	}
	return lanes, tracer, func() {
		free()
		lanesGauge.Set(int64(s.lanes.inUse()))
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	scenario := r.PathValue("name")
	st := stateFrom(r.Context())
	sc, leave := s.admitQuery(w, st, scenario)
	if sc == nil {
		return
	}
	defer leave()
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "certain"
	}
	if mode != "certain" && mode != "possible" {
		s.writeError(w, http.StatusBadRequest, scenario, fmt.Errorf("unknown mode %q (want certain or possible)", req.Mode))
		return
	}

	var q *repro.Query
	var err error
	switch {
	case req.Name != "" && req.Query != "":
		s.writeError(w, http.StatusBadRequest, scenario, errors.New("set either name or query, not both"))
		return
	case req.Name != "":
		var ok bool
		if q, ok = sc.Query(req.Name); !ok {
			s.writeError(w, http.StatusNotFound, scenario, fmt.Errorf("%w: no preloaded query %q", ErrBadQuery, req.Name))
			return
		}
	case req.Query != "":
		if q, err = sc.ParseQuery(req.Query); err != nil {
			s.writeError(w, http.StatusBadRequest, scenario, err)
			return
		}
	default:
		s.writeError(w, http.StatusBadRequest, scenario, errors.New("missing query: set name or query"))
		return
	}

	queryText := req.Query
	if req.Name != "" {
		queryText = req.Name
	}
	lanes, tracer, release := s.leaseLanes(w, r, st, scenario, queryText)
	if release == nil {
		return
	}
	defer release()

	opts := s.queryOptions(r.Context(), &req, lanes, st, tracer)

	mt := s.cfg.Metrics
	mt.Counter(telemetry.Labeled("xr_server_queries_total", "scenario", scenario, "mode", mode)).Inc()
	inflight := mt.Gauge(telemetry.Labeled("xr_server_inflight", "scenario", scenario))
	inflight.Add(1)
	defer inflight.Add(-1)
	start := time.Now()
	defer func() {
		mt.Histogram(telemetry.Labeled("xr_server_query_seconds", "scenario", scenario)).Observe(time.Since(start))
	}()

	var ans *repro.Answers
	if mode == "possible" {
		ans, err = sc.Possible(q, opts...)
	} else {
		ans, err = sc.Answer(q, opts...)
	}
	if err != nil {
		mt.Counter(telemetry.Labeled("xr_server_query_errors_total", "scenario", scenario)).Inc()
		switch {
		case errors.Is(err, repro.ErrTimeout):
			s.writeError(w, http.StatusGatewayTimeout, scenario, err)
		case errors.Is(err, repro.ErrCanceled):
			// The client went away; the status is best-effort.
			s.writeError(w, http.StatusServiceUnavailable, scenario, err)
		case errors.Is(err, repro.ErrBudget):
			// Only reachable with partial=false: the caller asked for
			// exact-or-error semantics and the budget lost.
			s.writeError(w, http.StatusUnprocessableEntity, scenario, err)
		default:
			s.writeError(w, http.StatusInternalServerError, scenario, err)
		}
		return
	}
	if ans.Partial() {
		mt.Counter(telemetry.Labeled("xr_server_degraded_total", "scenario", scenario)).Inc()
	}
	requestID := ""
	if st != nil {
		st.degraded.Store(int64(ans.DegradedSignatures))
		st.unknown.Store(int64(ans.UnknownTuples))
		requestID = st.id
	}

	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		streamAnswers(w, scenario, q.Name(), mode, q.Arity(), ans)
		return
	}
	resp := QueryResponse{
		Scenario:  scenario,
		Query:     q.Name(),
		Mode:      mode,
		Partial:   ans.Partial(),
		RequestID: requestID,
		Answers:   ans,
	}
	// ?trace=1 inlines the span tree; it is also retained in the trace
	// ring for GET /v1/requests/{id}/trace either way.
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = tracer.Spans()
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryOptions maps the wire request onto the options API, applying the
// server-side default budgets. The per-request tracer and the solver-trace
// hook attribute spans and solver work (decisions/conflicts, signature
// progress) to this request: the hook accumulates into the request state's
// atomics, so concurrent tenants never contaminate each other's deltas the
// way a shared-registry snapshot diff would.
func (s *Server) queryOptions(ctx context.Context, req *QueryRequest, lanes int, st *requestState, tracer *telemetry.Tracer) []repro.Option {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < s.cfg.MaxTimeout {
			timeout = d
		} else {
			timeout = s.cfg.MaxTimeout
		}
	}
	sigTimeout := s.cfg.DefaultSignatureTimeout
	if req.SignatureTimeoutMS > 0 {
		sigTimeout = time.Duration(req.SignatureTimeoutMS) * time.Millisecond
	}
	maxDecisions := s.cfg.DefaultMaxDecisions
	if req.MaxDecisions > 0 {
		maxDecisions = req.MaxDecisions
	}
	maxConflicts := s.cfg.DefaultMaxConflicts
	if req.MaxConflicts > 0 {
		maxConflicts = req.MaxConflicts
	}
	partial := true
	if req.Partial != nil {
		partial = *req.Partial
	}
	opts := []repro.Option{
		repro.WithContext(ctx),
		repro.WithTimeout(timeout),
		repro.WithParallelism(lanes),
		repro.WithPartialResults(partial),
		repro.WithMetrics(s.cfg.Metrics),
	}
	if tracer != nil {
		opts = append(opts, repro.WithTracer(tracer))
	}
	if st != nil {
		opts = append(opts, repro.WithSolverTrace(func(ev repro.TraceEvent) {
			st.sigsDone.Add(1)
			st.decisions.Add(ev.Decisions)
			st.conflicts.Add(ev.Conflicts)
			st.noteSignature(ev.SignatureKey, ev.Duration)
		}))
	}
	if sigTimeout > 0 {
		opts = append(opts, repro.WithSignatureTimeout(sigTimeout))
	}
	if maxDecisions > 0 || maxConflicts > 0 {
		opts = append(opts, repro.WithSolveBudget(maxDecisions, maxConflicts))
	}
	if req.Explain {
		opts = append(opts, repro.WithExplanations(true))
	}
	return opts
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	scenario := r.PathValue("name")
	st := stateFrom(r.Context())
	sc, leave := s.admitQuery(w, st, scenario)
	if sc == nil {
		return
	}
	defer leave()
	qname := r.URL.Query().Get("query")
	if qname == "" {
		s.writeError(w, http.StatusBadRequest, scenario, errors.New("missing ?query= (a preloaded query name)"))
		return
	}
	q, ok := sc.Query(qname)
	if !ok {
		s.writeError(w, http.StatusNotFound, scenario, fmt.Errorf("%w: no preloaded query %q", ErrBadQuery, qname))
		return
	}
	var args []string
	if t := r.URL.Query().Get("tuple"); t != "" {
		args = strings.Split(t, ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
	}
	lanes, tracer, release := s.leaseLanes(w, r, st, scenario, qname)
	if release == nil {
		return
	}
	defer release()
	e, err := sc.Why(q, args,
		repro.WithContext(r.Context()),
		repro.WithTimeout(s.cfg.DefaultTimeout),
		repro.WithParallelism(lanes),
		repro.WithTracer(tracer),
		repro.WithMetrics(s.cfg.Metrics))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, repro.ErrTimeout) {
			code = http.StatusGatewayTimeout
		} else if strings.Contains(err.Error(), "arity") {
			code = http.StatusBadRequest
		}
		s.writeError(w, code, scenario, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Scenario: scenario, Explanation: e})
}

// ---------------------------------------------------------------------------
// Plumbing.

// decodeBody decodes a JSON body with the configured size cap; on failure
// it writes the error response and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, code, "", fmt.Errorf("decoding request body: %w", err))
		return false
	}
	// Reject trailing garbage so a concatenated double-body is an error,
	// not a silent half-read.
	if dec.More() {
		s.writeError(w, http.StatusBadRequest, "", errors.New("trailing data after JSON body"))
		return false
	}
	_, _ = io.Copy(io.Discard, body)
	return true
}

func (s *Server) writeError(w http.ResponseWriter, code int, scenario string, err error) {
	if scenario != "" {
		s.cfg.Metrics.Counter(telemetry.Labeled("xr_server_http_errors_total", "scenario", scenario)).Inc()
	} else {
		s.cfg.Metrics.Counter("xr_server_http_errors_total").Inc()
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
