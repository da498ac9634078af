package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro"
	"repro/internal/profile"
)

// Workload-profile introspection and persistence glue: every tenant the
// server loads carries a workload profiler (repro.WithProfiling), this
// file serves its cumulative snapshot over the wire, summarizes it in
// /healthz, persists it beside the scenario snapshot at drain, and
// restores it at boot. The profile is advisory history, never tenant
// state: a damaged persisted profile logs a WARN and the tenant starts
// with a fresh profiler — it is never quarantined over one.

// ProfileResponse is the body of GET /v1/scenarios/{name}/profile. The
// embedded snapshot's Signatures are ordered (and optionally truncated)
// by the request's ?sort= and ?top= parameters; Clusters always carry
// the full per-cluster table.
type ProfileResponse struct {
	Scenario string `json:"scenario"`
	// Sort is the applied signature order: "wall", "conflicts", or
	// "degraded" (the request default is wall).
	Sort string `json:"sort"`
	// Top is the requested truncation (0 = all signatures).
	Top     int            `json:"top,omitempty"`
	Profile *repro.Profile `json:"profile"`
}

// ProfileHealth is the /healthz "profile" block: the cross-tenant
// aggregate of live profiler state, present whenever at least one
// scenario is loaded (every tenant records a profile).
type ProfileHealth struct {
	Scenarios int   `json:"scenarios"`
	Records   int   `json:"records"`
	Solves    int64 `json:"solves"`
	Evictions int64 `json:"evictions"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	scenario := r.PathValue("name")
	stateFrom(r.Context()).setTenant(scenario)
	sc, err := s.reg.Get(scenario)
	if err != nil {
		s.writeError(w, http.StatusNotFound, scenario, err)
		return
	}
	sortBy := r.URL.Query().Get("sort")
	if !profile.ValidSort(sortBy) {
		s.writeError(w, http.StatusBadRequest, scenario,
			fmt.Errorf("unknown sort %q (want wall, conflicts, or degraded)", sortBy))
		return
	}
	if sortBy == "" {
		sortBy = profile.SortWall
	}
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, scenario,
				fmt.Errorf("invalid top %q (want a non-negative integer)", v))
			return
		}
		top = n
	}
	snap := sc.Profile()
	snap.Signatures = snap.Top(top, sortBy)
	writeJSON(w, http.StatusOK, ProfileResponse{
		Scenario: scenario,
		Sort:     sortBy,
		Top:      top,
		Profile:  snap,
	})
}

// profileHealth aggregates live profiler state across tenants for
// /healthz (nil when no scenario is loaded).
func (s *Server) profileHealth() *ProfileHealth {
	var h ProfileHealth
	for _, sc := range s.reg.List() {
		snap := sc.Profile()
		h.Scenarios++
		h.Records += snap.Records
		h.Solves += snap.Solves
		h.Evictions += snap.Evictions
	}
	if h.Scenarios == 0 {
		return nil
	}
	return &h
}

// restoreProfile folds a persisted workload profile back into a freshly
// rebuilt tenant. Absence is normal (first boot, or the tenant never
// drained); damage is advisory — WARN and serve with a fresh profiler.
func (s *Server) restoreProfile(name string) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	payload, err := st.LoadProfile(name)
	if err != nil {
		s.log.Warn("persisted profile unreadable; starting fresh",
			"scenario", name, "error", err.Error())
		return
	}
	if payload == nil {
		return
	}
	snap, err := profile.ParseSnapshot(payload)
	if err != nil {
		s.log.Warn("persisted profile damaged; starting fresh",
			"scenario", name, "error", err.Error())
		return
	}
	sc, err := s.reg.Get(name)
	if err != nil {
		return
	}
	sc.MergeProfile(snap)
	s.log.Info("workload profile restored",
		"scenario", name, "signatures", len(snap.Signatures), "solves", snap.Solves)
}

// persistProfiles writes every tenant's cumulative snapshot to the store.
// Called once the drain group is quiescent, so every recorded solve is in
// the snapshot; a restart with the same -data-dir then serves the
// pre-restart cumulative profile.
func (s *Server) persistProfiles() {
	st := s.cfg.Store
	if st == nil {
		return
	}
	for _, sc := range s.reg.List() {
		snap := sc.Profile()
		if snap.Solves == 0 && len(snap.Signatures) == 0 {
			continue
		}
		data, err := snap.MarshalIndent()
		if err != nil {
			s.log.Warn("encoding workload profile failed",
				"scenario", sc.Name, "error", err.Error())
			continue
		}
		if err := st.SaveProfile(sc.Name, data); err != nil {
			s.log.Warn("persisting workload profile failed",
				"scenario", sc.Name, "error", err.Error())
		}
	}
}
