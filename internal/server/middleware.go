package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The request pipeline: every endpoint is served through observe, which
// wraps the route mux (see observe for its order).

// requestState is the per-request record shared by observe, the
// handlers, and the /v1/inflight view. Counter fields are atomics
// because the solver-trace hook updates them from worker goroutines while
// /v1/inflight reads them; string fields set after creation are guarded
// by mu for the same reason.
type requestState struct {
	id     string
	method string
	start  time.Time

	mu        sync.Mutex
	route     string
	tenant    string
	queryHash string
	tracer    *telemetry.Tracer

	// hot tracks the hardest signatures this request solved (by wall
	// time, capped at hotSignatureCap); guarded by mu because the
	// solver-trace hook feeds it from worker goroutines.
	hot []hotSig

	// laneWait sums the request's solver-lane waits in nanoseconds, fed
	// by the lane pool's wait callback (see queryOptions).
	laneWait  atomic.Int64
	sigsDone  atomic.Int64
	decisions atomic.Int64
	conflicts atomic.Int64
	degraded  atomic.Int64
	unknown   atomic.Int64
}

// hotSignatureCap bounds the hardest-signature list a request tracks
// (and the slowlog surfaces).
const hotSignatureCap = 3

// hotSig is one solved signature's wall time as the request's
// solver-trace hook saw it.
type hotSig struct {
	key string
	ns  int64
}

// noteSignature records one signature solve for the request's
// hardest-signature list, keeping the top hotSignatureCap by wall time.
// A signature solved twice in one request (retry) keeps its longest
// solve. Ties order by key so the list is deterministic.
func (st *requestState) noteSignature(key string, d time.Duration) {
	if key == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hot = insertHot(st.hot, hotSig{key: key, ns: int64(d)})
}

// insertHot inserts h into hot, a list sorted hottest first (longest
// solve first, ties by key) and capped at hotSignatureCap, and returns
// the list. A key already in the list keeps its longest solve.
func insertHot(hot []hotSig, h hotSig) []hotSig {
	if i := slices.IndexFunc(hot, func(e hotSig) bool { return e.key == h.key }); i >= 0 {
		if h.ns <= hot[i].ns {
			return hot
		}
		hot = slices.Delete(hot, i, i+1)
	}
	i := 0
	for i < len(hot) && (hot[i].ns > h.ns || hot[i].ns == h.ns && hot[i].key < h.key) {
		i++
	}
	if i == hotSignatureCap {
		return hot
	}
	hot = slices.Insert(hot, i, h)
	return hot[:min(len(hot), hotSignatureCap)]
}

// hotSignatures returns the tracked hardest signature keys, hottest
// first.
func (st *requestState) hotSignatures() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.hot) == 0 {
		return nil
	}
	keys := make([]string, len(st.hot))
	for i, h := range st.hot {
		keys[i] = h.key
	}
	return keys
}

// laneWaitMS is the request's summed lane wait so far, in milliseconds.
func (st *requestState) laneWaitMS() float64 {
	return float64(st.laneWait.Load()) / 1e6
}

func (st *requestState) setRoute(route string) {
	st.mu.Lock()
	st.route = route
	st.mu.Unlock()
}

func (st *requestState) setTenant(tenant string) {
	st.mu.Lock()
	st.tenant = tenant
	st.mu.Unlock()
}

func (st *requestState) setQueryHash(h string) {
	st.mu.Lock()
	st.queryHash = h
	st.mu.Unlock()
}

func (st *requestState) setTracer(t *telemetry.Tracer) {
	st.mu.Lock()
	st.tracer = t
	st.mu.Unlock()
}

// labels returns the mutex-guarded strings in one critical section.
func (st *requestState) labels() (route, tenant, queryHash string, tracer *telemetry.Tracer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.route, st.tenant, st.queryHash, st.tracer
}

type stateKey struct{}

// stateFrom returns the request state attached by observe. Every route
// is reached through observe, so a handler never sees nil.
func stateFrom(ctx context.Context) *requestState {
	st, _ := ctx.Value(stateKey{}).(*requestState)
	return st
}

// statusWriter captures the response status and byte count while passing
// Flush through — NDJSON streaming depends on the wrapped writer still
// implementing http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// queryTextHash is the FNV-64a hash of the query text, hex-encoded: stable
// across requests so an operator can group slowlog/inflight entries by
// query without the log carrying (possibly sensitive) query text.
func queryTextHash(text string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

// observe wraps next in the request pipeline. It assigns the request ID
// (honoring a well-formed inbound X-Request-Id), echoes it on the
// response, registers the request state in the inflight set, and runs
// next. Afterwards it works in a fixed order:
//
//  1. a handler panic becomes a 500 before anything reads the status
//     (http.ErrAbortHandler is re-raised: it is the sanctioned way to abort
//     a response mid-stream);
//  2. the RED series are written: the per-route/code/tenant request
//     count and the per-route latency (the in-flight gauge drops when
//     observe returns);
//  3. the span tree goes into the trace ring, then the INFO access line is
//     written;
//  4. a slow request's slowlog entry is added, then its WARN line;
//  5. the inflight entry is removed last.
//
// Rings are written before their log lines, so a reader that sees a line
// finds its ring entry.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !telemetry.SafeToken(id) {
			id = telemetry.NewRequestID()
		}
		st := &requestState{id: id, method: r.Method, start: time.Now()}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		ctx := telemetry.ContextWithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, stateKey{}, st)
		s.inflight.Store(st, struct{}{})
		defer s.inflight.Delete(st)
		mt := s.cfg.Metrics
		gauge := mt.Gauge("xr_inflight_requests")
		gauge.Add(1)
		defer gauge.Add(-1)

		func() {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.log.Error("panic in handler",
					"request_id", id, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if sw.status == 0 {
					writeJSON(sw, http.StatusInternalServerError, ErrorResponse{Error: "internal server error"})
				}
			}()
			next.ServeHTTP(sw, r.WithContext(ctx))
		}()

		elapsed := time.Since(st.start)
		rec := s.buildRecord(st, sw, elapsed)
		mt.Counter(telemetry.Labeled("xr_http_requests_total",
			"route", rec.Route, "code", strconv.Itoa(rec.Status), "tenant", rec.Tenant)).Inc()
		mt.Histogram(telemetry.Labeled("xr_http_request_seconds", "route", rec.Route)).Observe(elapsed)
		var spans []telemetry.SpanNode
		if _, _, _, tracer := st.labels(); tracer != nil {
			spans = tracer.Spans()
			s.traces.put(id, spans)
		}
		s.log.LogAttrs(ctx, slog.LevelInfo, "request", rec.logAttrs()...)
		if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
			s.slow.add(SlowEntry{AccessRecord: rec, Trace: spans})
			s.log.LogAttrs(ctx, slog.LevelWarn, "slow query", rec.logAttrs()...)
		}
	})
}

// route tags the request state with the registered route template (e.g.
// "/v1/scenarios/{name}/query") so logs and metrics label by pattern, not
// raw path — raw paths would make tenant names explode the metric
// cardinality. It runs after mux dispatch, so only matched routes tag.
func (s *Server) route(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stateFrom(r.Context()).setRoute(pattern)
		h(w, r)
	})
}

// AccessRecord is one completed request as the access log and the slowlog
// render it. Field names are part of the wire contract (slowlog entries
// embed it).
type AccessRecord struct {
	RequestID  string  `json:"request_id"`
	Time       string  `json:"time"` // request start, RFC3339Nano
	Method     string  `json:"method"`
	Route      string  `json:"route"`
	Tenant     string  `json:"tenant,omitempty"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	LaneWaitMS float64 `json:"lane_wait_ms,omitempty"`
	Degraded   int     `json:"degraded,omitempty"`
	Unknown    int     `json:"unknown,omitempty"`
	Decisions  int64   `json:"decisions,omitempty"`
	Conflicts  int64   `json:"conflicts,omitempty"`
	QueryHash  string  `json:"query_hash,omitempty"`
	// HotSignatures are the request's hardest signature keys (canonical
	// "2,7" form, hottest first, top 3 by wall time) — the handle an
	// operator takes from a slowlog entry into
	// GET /v1/scenarios/{name}/profile.
	HotSignatures []string `json:"hot_signatures,omitempty"`
}

// buildRecord renders a completed request that took elapsed. It is the one
// place a request that matched no route is labeled "unmatched" and a
// handler that wrote no header is recorded as 200.
func (s *Server) buildRecord(st *requestState, sw *statusWriter, elapsed time.Duration) AccessRecord {
	route, tenant, queryHash, _ := st.labels()
	if route == "" {
		route = "unmatched"
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	return AccessRecord{
		RequestID:     st.id,
		Time:          st.start.UTC().Format(time.RFC3339Nano),
		Method:        st.method,
		Route:         route,
		Tenant:        tenant,
		Status:        status,
		Bytes:         sw.bytes,
		DurationMS:    float64(elapsed.Nanoseconds()) / 1e6,
		LaneWaitMS:    st.laneWaitMS(),
		Degraded:      int(st.degraded.Load()),
		Unknown:       int(st.unknown.Load()),
		Decisions:     st.decisions.Load(),
		Conflicts:     st.conflicts.Load(),
		QueryHash:     queryHash,
		HotSignatures: st.hotSignatures(),
	}
}

// logAttrs renders the record as slog attributes; the access log line and
// the slow-query WARN share the exact same shape.
func (r AccessRecord) logAttrs() []slog.Attr {
	attrs := []slog.Attr{
		slog.String("request_id", r.RequestID),
		slog.String("method", r.Method),
		slog.String("route", r.Route),
		slog.String("tenant", r.Tenant),
		slog.Int("status", r.Status),
		slog.Int64("bytes", r.Bytes),
		slog.Float64("duration_ms", r.DurationMS),
	}
	if r.LaneWaitMS > 0 {
		attrs = append(attrs, slog.Float64("lane_wait_ms", r.LaneWaitMS))
	}
	if r.Degraded > 0 || r.Unknown > 0 {
		attrs = append(attrs,
			slog.Int("degraded", r.Degraded), slog.Int("unknown", r.Unknown))
	}
	if r.Decisions > 0 || r.Conflicts > 0 {
		attrs = append(attrs,
			slog.Int64("decisions", r.Decisions), slog.Int64("conflicts", r.Conflicts))
	}
	if r.QueryHash != "" {
		attrs = append(attrs, slog.String("query_hash", r.QueryHash))
	}
	if len(r.HotSignatures) > 0 {
		attrs = append(attrs, slog.String("hot_signatures", strings.Join(r.HotSignatures, " ")))
	}
	return attrs
}
