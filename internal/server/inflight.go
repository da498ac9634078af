package server

import (
	"net/http"
	"sort"
	"time"
)

// Live request introspection: observe stores every request's
// requestState in Server.inflight for the request's lifetime, and GET
// /v1/inflight renders the set. The keys are *requestState pointers, not
// request IDs (a client may reuse an X-Request-Id across concurrent
// requests). Each request stores its own key once and deletes it once —
// the disjoint-keys case sync.Map is built for — and the snapshot reads
// the live atomics without blocking the handlers.

// InflightEntry is one live request in GET /v1/inflight.
type InflightEntry struct {
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	// Route is the matched route template ("" while still in routing).
	Route     string  `json:"route,omitempty"`
	Tenant    string  `json:"tenant,omitempty"`
	StartTime string  `json:"start_time"` // RFC3339Nano
	ElapsedMS float64 `json:"elapsed_ms"`
	// QueryHash is the FNV-64a hash of the query text (query routes only).
	QueryHash string `json:"query_hash,omitempty"`
	// LaneWaitMS sums the request's completed solver-lane waits, one per
	// signature job (0 on non-query routes and when no job had to wait).
	LaneWaitMS float64 `json:"lane_wait_ms,omitempty"`
	// SignaturesDone counts signature programs solved so far; the total is
	// unknown until the candidate partition completes, so only progress is
	// reported.
	SignaturesDone int64 `json:"signatures_done,omitempty"`
	Decisions      int64 `json:"decisions,omitempty"`
	Conflicts      int64 `json:"conflicts,omitempty"`
}

// InflightResponse is the body of GET /v1/inflight.
type InflightResponse struct {
	Requests []InflightEntry `json:"requests"`
}

func (s *Server) handleInflight(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	resp := InflightResponse{Requests: []InflightEntry{}}
	s.inflight.Range(func(key, _ any) bool {
		st := key.(*requestState)
		route, tenant, queryHash, _ := st.labels()
		resp.Requests = append(resp.Requests, InflightEntry{
			RequestID:      st.id,
			Method:         st.method,
			Route:          route,
			Tenant:         tenant,
			StartTime:      st.start.UTC().Format(time.RFC3339Nano),
			ElapsedMS:      float64(now.Sub(st.start).Nanoseconds()) / 1e6,
			QueryHash:      queryHash,
			LaneWaitMS:     st.laneWaitMS(),
			SignaturesDone: st.sigsDone.Load(),
			Decisions:      st.decisions.Load(),
			Conflicts:      st.conflicts.Load(),
		})
		return true
	})
	// Oldest first: the request most likely to be stuck leads the list.
	sort.Slice(resp.Requests, func(i, j int) bool {
		if resp.Requests[i].StartTime != resp.Requests[j].StartTime {
			return resp.Requests[i].StartTime < resp.Requests[j].StartTime
		}
		return resp.Requests[i].RequestID < resp.Requests[j].RequestID
	})
	writeJSON(w, http.StatusOK, resp)
}
