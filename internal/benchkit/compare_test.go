package benchkit

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xr"
)

func sampleReport() *BenchReport {
	return &BenchReport{
		Profile: "S3",
		Exchange: xr.ExchangeStats{
			Duration:      time.Second,
			ChaseDuration: 600 * time.Millisecond,
			TotalFacts:    500,
			Clusters:      3,
		},
		Queries: []QueryReport{
			{Query: "ep1", Answers: 4, QueryStats: xr.QueryStats{Candidates: 5, Programs: 1, Duration: 100 * time.Millisecond}},
			{Query: "ep2", Answers: 7, QueryStats: xr.QueryStats{Candidates: 9, Programs: 2, Duration: 200 * time.Millisecond}},
		},
		Metrics: telemetry.Snapshot{Counters: map[string]int64{
			"xr_solver_decisions_total": 1000,
			"xr_sigcache_hits_total":    12,
		}},
	}
}

func TestCompareReportsNoRegression(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	d := CompareReports(base, cur, 10)
	if d.Regressed() {
		t.Fatal("identical reports flagged as regressed")
	}
	var b strings.Builder
	d.Render(&b)
	if !strings.Contains(b.String(), "ok: no metric exceeded") {
		t.Fatalf("render lacks the ok line:\n%s", b.String())
	}
}

func TestCompareReportsRegression(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Queries[1].Duration = 500 * time.Millisecond // +150% on ep2
	d := CompareReports(base, cur, 10)
	if !d.Regressed() {
		t.Fatal("a +150% query wall time did not regress at a 10% threshold")
	}
	var hit bool
	for _, l := range d.Lines {
		if l.Metric == "query/ep2/seconds" {
			hit = l.Regression
		}
	}
	if !hit {
		t.Fatal("the regressed metric is not the one flagged")
	}
	var b strings.Builder
	d.Render(&b)
	if !strings.Contains(b.String(), "REGRESSION") {
		t.Fatalf("render lacks the REGRESSION line:\n%s", b.String())
	}
	// The same delta passes under a generous threshold.
	if CompareReports(base, cur, 200).Regressed() {
		t.Fatal("a +150% delta regressed at a 200% threshold")
	}
}

func TestCompareReportsCountDrift(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Queries[0].Answers = 5 // drift, not a regression: the workload changed
	d := CompareReports(base, cur, 10)
	if d.Regressed() {
		t.Fatal("an answer-count drift was flagged as a regression")
	}
	var noted bool
	for _, l := range d.Lines {
		if l.Metric == "query/ep1/answers" && l.Note == "count drift" {
			noted = true
		}
	}
	if !noted {
		t.Fatal("answer-count drift not noted")
	}
}

func TestCompareReportsWorkCounters(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Metrics.Counters["xr_solver_decisions_total"] = 5000 // 5x solver effort
	cur.Metrics.Counters["xr_new_counter"] = 1
	delete(cur.Metrics.Counters, "xr_sigcache_hits_total")
	d := CompareReports(base, cur, 50)
	if !d.Regressed() {
		t.Fatal("a 5x decisions counter did not regress")
	}
	var onlyBase, onlyCur bool
	for _, l := range d.Lines {
		switch l.Metric {
		case "counter/xr_sigcache_hits_total":
			onlyBase = l.Note == "only in baseline"
		case "counter/xr_new_counter":
			onlyCur = l.Note == "only in current"
		}
	}
	if !onlyBase || !onlyCur {
		t.Fatalf("structural counter differences not noted (base=%v cur=%v)", onlyBase, onlyCur)
	}
}

// TestCompareReportsGatesRegisteredCounters takes its counter names from
// a real report, so the gate is checked against the names the engine
// registers: +1 on any work counter (solver search, chase rule evaluations
// and triggers, index probes, greedy decisions) regresses however generous
// the threshold, and a change in any other counter stays a drift note.
func TestCompareReportsGatesRegisteredCounters(t *testing.T) {
	base, err := tinyRunner(t).Report("L20")
	if err != nil {
		t.Fatal(err)
	}
	work := map[string]bool{
		"xr_chase_rule_evals_total":         true,
		"xr_chase_triggers_fired_total":     true,
		"xr_greedy_decided_total":           true,
		"xr_index_probes_total":             true,
		"xr_solver_assumption_solves_total": true,
		"xr_solver_candidates_tested_total": true,
		"xr_solver_clauses_deleted_total":   true,
		"xr_solver_conflicts_total":         true,
		"xr_solver_decisions_total":         true,
		"xr_solver_loops_learned_total":     true,
		"xr_solver_propagations_total":      true,
		"xr_solver_reductions_total":        true,
		"xr_solver_restarts_total":          true,
		"xr_solver_reuse_builds_total":      true,
		"xr_solver_reuse_sessions_total":    true,
		"xr_solver_stability_fails_total":   true,
		"xr_solver_theory_rejects_total":    true,
		"xr_solver_verdict_memo_hits_total": true,
	}
	for name := range work {
		if _, ok := base.Metrics.Counters[name]; !ok {
			t.Errorf("work counter %s is not in the report", name)
		}
	}
	for name, v := range base.Metrics.Counters {
		cur := *base
		cur.Metrics.Counters = maps.Clone(base.Metrics.Counters)
		cur.Metrics.Counters[name] = v + 1
		d := CompareReports(base, &cur, 1000)
		if d.Regressed() != work[name] {
			t.Errorf("+1 on %s: regressed = %v, want %v", name, d.Regressed(), work[name])
		}
		for _, l := range d.Lines {
			if l.Metric == "counter/"+name && !work[name] && l.Note != "count drift" {
				t.Errorf("+1 on size counter %s: note %q, want count drift", name, l.Note)
			}
		}
	}
}

func TestCompareReportsMissingQuery(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Queries = cur.Queries[:1]
	d := CompareReports(base, cur, 10)
	var noted bool
	for _, l := range d.Lines {
		if l.Metric == "query/ep2" && l.Note == "only in baseline" {
			noted = true
		}
	}
	if !noted {
		t.Fatal("missing query not noted")
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	path := filepath.Join(t.TempDir(), "rep.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile != rep.Profile || len(got.Queries) != len(rep.Queries) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if d := CompareReports(rep, got, 0.001); d.Regressed() {
		t.Fatal("a report must not regress against its own round trip")
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing report accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("corrupt report accepted")
	}
}
