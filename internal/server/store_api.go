package server

import (
	"errors"
	"net/http"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// Persistence glue: the optional crash-safe scenario store behind
// -data-dir. The server treats the store as write-behind durability — a
// failed save defers (the store retries in the background) and the HTTP
// request still succeeds; recovery at boot rebuilds tenants through the
// normal registry load path and quarantines what cannot be rebuilt,
// degrading one tenant instead of the process (DESIGN.md §16).

// StoreHealth is the /healthz "store" block, present when the daemon runs
// with a data directory.
type StoreHealth struct {
	DataDir     string `json:"data_dir"`
	Persisted   int    `json:"persisted"`
	Dirty       int    `json:"dirty"`
	Quarantined int    `json:"quarantined"`
}

// StoreResponse is the body of GET /v1/store.
type StoreResponse struct {
	Enabled bool `json:"enabled"`
	// Store carries the full store status (tracked scenarios, deferred
	// saves, quarantine records); omitted when persistence is disabled.
	Store *store.Status `json:"store,omitempty"`
}

// RecoverySummary reports what RecoverFromStore rebuilt.
type RecoverySummary struct {
	// Loaded counts snapshots rebuilt into live tenants.
	Loaded int
	// Adopted counts recovered snapshots that were on disk but absent
	// from the manifest (re-tracked with a WARN).
	Adopted int
	// Quarantined counts artifacts set aside: storage-level damage found
	// by the store plus snapshots that failed to rebuild semantically.
	Quarantined int
	// Skipped counts intact snapshots left on disk but not loaded
	// (registry full or name collision) — not damage, so not quarantined.
	Skipped int
}

func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	resp := StoreResponse{}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Status()
		resp.Enabled = true
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// RecoverFromStore replays the configured store into the registry: every
// recovered snapshot rebuilds through the normal load path (re-running
// the exchange phase and warming caches exactly as a fresh POST would).
// A snapshot that fails to rebuild — its texts no longer parse or chase —
// is quarantined so the next boot does not re-trip on it; the tenant name
// stays free for a fresh load. Call once, after New and before serving.
// A nil store is a no-op.
func (s *Server) RecoverFromStore() (RecoverySummary, error) {
	var sum RecoverySummary
	st := s.cfg.Store
	if st == nil {
		return sum, nil
	}
	rep, err := st.Recover()
	if err != nil {
		return sum, err
	}
	sum.Adopted = len(rep.Adopted)
	sum.Quarantined = len(rep.Quarantined)
	for _, sn := range rep.Recovered {
		if _, err := s.loadScenario(sn.Name, sn.Mapping, sn.Facts, sn.Queries); err != nil {
			if errors.Is(err, ErrRegistryFull) || errors.Is(err, ErrScenarioExists) {
				// The snapshot is intact; the registry just cannot host it
				// right now. Leave it persisted for a roomier boot.
				sum.Skipped++
				s.log.Error("recovered scenario not loaded; left persisted",
					"scenario", sn.Name, "error", err.Error())
				continue
			}
			rec := st.Quarantine(sn.Name, err)
			sum.Quarantined++
			s.log.Error("recovered scenario failed to rebuild; quarantined",
				"request_id", rec.ID, "scenario", sn.Name, "error", err.Error())
			continue
		}
		sum.Loaded++
		// Resume the tenant's persisted hardness history (advisory: a
		// damaged profile WARNs and the tenant starts fresh).
		s.restoreProfile(sn.Name)
	}
	s.cfg.Metrics.Gauge("xr_server_scenarios").Set(int64(s.reg.Len()))
	return sum, nil
}

// persistScenario write-behinds one loaded scenario. Persistence failures
// never fail the load: the store retries deferred saves in the
// background, and the WARN (plus the dirty count in /healthz and
// /v1/store) surfaces the durability gap.
func (s *Server) persistScenario(requestID string, req *LoadRequest) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	err := st.Save(store.Snapshot{
		Name:    req.Name,
		Mapping: req.Mapping,
		Facts:   req.Facts,
		Queries: req.Queries,
	})
	if err != nil {
		s.log.Warn("scenario persist deferred",
			"request_id", requestID, "scenario", req.Name, "error", err.Error())
	}
}

// forgetScenario removes a tenant's persisted state after an unload.
func (s *Server) forgetScenario(requestID, name string) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	if err := st.Delete(name); err != nil {
		s.log.Warn("removing persisted scenario failed",
			"request_id", requestID, "scenario", name, "error", err.Error())
	}
}

// storeHealth summarizes the store for /healthz (nil when disabled).
func (s *Server) storeHealth() *StoreHealth {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	status := st.Status()
	return &StoreHealth{
		DataDir:     status.DataDir,
		Persisted:   status.Persisted,
		Dirty:       status.Dirty,
		Quarantined: status.Quarantined,
	}
}

// scenarioDrained is the markRemoved callback for an unloaded tenant: it
// fires exactly once, when the last in-flight request against the old
// exchange finishes (immediately when none were running).
func (s *Server) scenarioDrained(requestID, name string) func() {
	return func() {
		s.cfg.Metrics.Counter(telemetry.Labeled("xr_server_scenario_drains_total", "scenario", name)).Inc()
		s.log.Info("scenario drained", "request_id", requestID, "scenario", name)
	}
}
