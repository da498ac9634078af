package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/xr"
)

// QueryReport is one segmentary query's answer count and stats; the stats
// marshal inline with the same field names as the wire Answers.
type QueryReport struct {
	Query   string `json:"query"`
	Answers int    `json:"answers"`
	xr.QueryStats
}

// BenchReport is the machine-readable result of one benchmark run on a
// single genome profile: host info, the exchange phase, per-query wall
// times, and the full telemetry snapshot (exchange stats plus solver
// counters). It marshals deterministically up to the wall-time fields.
type BenchReport struct {
	Profile     string  `json:"profile"`
	Scale       float64 `json:"scale"`
	Parallelism int     `json:"parallelism"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Exchange xr.ExchangeStats   `json:"exchange"`
	Queries  []QueryReport      `json:"queries"`
	Metrics  telemetry.Snapshot `json:"metrics"`

	// ProfileSolves and HotSignatures embed the run's workload profile:
	// total recorded solves and the top hardest signatures by wall time
	// (deterministic order; wall fields are measured, counters are not).
	// JSON-additive — absent from baselines written before profiling.
	ProfileSolves int64                      `json:"profile_solves,omitempty"`
	HotSignatures []profile.SignatureProfile `json:"hot_signatures,omitempty"`
}

// reportHotSignatures bounds the hottest-signature block a report embeds.
const reportHotSignatures = 10

// Report runs the segmentary pipeline end to end on one profile — the
// exchange phase plus the full Table 3 query suite — and returns the
// machine-readable result. The runner's Metrics registry is used if set;
// otherwise a fresh one is attached for the duration of the run, so the
// report always carries solver counters.
func (r *Runner) Report(profileName string) (*BenchReport, error) {
	if r.Metrics == nil {
		r.Metrics = telemetry.NewRegistry()
	}
	qs, err := r.queries()
	if err != nil {
		return nil, err
	}
	ex, err := r.exchange(profileName)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{
		Profile:     profileName,
		Scale:       r.Scale,
		Parallelism: r.Parallelism,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Exchange:    ex.Stats,
	}
	for _, q := range qs {
		r.logf("report query %s on %s...", q.Name, profileName)
		res, err := r.answer(ex, q)
		if err != nil {
			return nil, fmt.Errorf("benchkit: report query %s: %w", q.Name, err)
		}
		rep.Queries = append(rep.Queries, QueryReport{Query: q.Name, Answers: res.Answers.Len(), QueryStats: res.Stats})
	}
	rep.Metrics = r.Metrics.Snapshot()
	if snap := ex.Profile(); snap.Records > 0 {
		rep.ProfileSolves = snap.Solves
		rep.HotSignatures = snap.Top(reportHotSignatures, profile.SortWall)
	}
	return rep, nil
}

// WriteJSON marshals the report as indented JSON.
func (rep *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
