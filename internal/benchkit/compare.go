package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// LoadReport reads a BenchReport previously written with WriteJSON.
func LoadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	return &rep, nil
}

// DiffLine is one compared metric: the baseline and current values and the
// relative change. Regression marks a wall time that grew beyond the
// comparison threshold, or a work counter that changed at all.
type DiffLine struct {
	Metric     string
	Base, Cur  float64
	DeltaPct   float64
	Regression bool
	// Note flags structural differences ("only in baseline", ...).
	Note string
}

// ReportDiff is the comparison of two BenchReports; see CompareReports.
type ReportDiff struct {
	BaseProfile, CurProfile string
	ThresholdPct            float64
	Lines                   []DiffLine
}

// Regressed reports whether any compared metric regressed.
func (d *ReportDiff) Regressed() bool {
	for _, l := range d.Lines {
		if l.Regression {
			return true
		}
	}
	return false
}

// CompareReports diffs two benchmark reports metric by metric: per-query
// wall times, the exchange-phase breakdown, and every telemetry counter.
// Wall times regress when the current value exceeds the baseline by more
// than thresholdPct percent. Work counters (solver search, chase rule
// evaluations and triggers, index probes) are deterministic for a fixed
// profile, so they are gated exactly: any change regresses, and an
// intended one needs a regenerated baseline. Size-like metrics (answers,
// facts, clusters) are compared for drift but flagged as notes, not
// regressions, since a changed count means the workload itself differs.
func CompareReports(base, cur *BenchReport, thresholdPct float64) *ReportDiff {
	d := &ReportDiff{BaseProfile: base.Profile, CurProfile: cur.Profile, ThresholdPct: thresholdPct}
	const (
		size = iota
		wall
		work
	)
	add := func(metric string, b, c float64, kind int) {
		l := DiffLine{Metric: metric, Base: b, Cur: c}
		if b != 0 {
			l.DeltaPct = 100 * (c - b) / b
		} else if c != 0 {
			l.DeltaPct = 100
		}
		switch {
		case kind == wall:
			l.Regression = c > b*(1+thresholdPct/100)
		case b != c && kind == work:
			l.Regression, l.Note = true, "work counter changed"
		case b != c:
			l.Note = "count drift"
		}
		d.Lines = append(d.Lines, l)
	}

	be, ce := &base.Exchange, &cur.Exchange
	add("exchange/seconds", be.Duration.Seconds(), ce.Duration.Seconds(), wall)
	add("exchange/reduce_seconds", be.ReduceDuration.Seconds(), ce.ReduceDuration.Seconds(), wall)
	add("exchange/chase_seconds", be.ChaseDuration.Seconds(), ce.ChaseDuration.Seconds(), wall)
	add("exchange/envelopes_seconds", be.EnvDuration.Seconds(), ce.EnvDuration.Seconds(), wall)
	add("exchange/chase_rounds", float64(be.ChaseRounds), float64(ce.ChaseRounds), size)
	add("exchange/chase_rule_evals", float64(be.ChaseRuleEvals), float64(ce.ChaseRuleEvals), size)
	add("exchange/total_facts", float64(be.TotalFacts), float64(ce.TotalFacts), size)
	add("exchange/clusters", float64(be.Clusters), float64(ce.Clusters), size)

	curQ := make(map[string]QueryReport, len(cur.Queries))
	for _, q := range cur.Queries {
		curQ[q.Query] = q
	}
	seen := make(map[string]bool, len(base.Queries))
	for _, bq := range base.Queries {
		seen[bq.Query] = true
		cq, ok := curQ[bq.Query]
		if !ok {
			d.Lines = append(d.Lines, DiffLine{Metric: "query/" + bq.Query, Base: bq.Duration.Seconds(), Note: "only in baseline"})
			continue
		}
		add("query/"+bq.Query+"/seconds", bq.Duration.Seconds(), cq.Duration.Seconds(), wall)
		add("query/"+bq.Query+"/answers", float64(bq.Answers), float64(cq.Answers), size)
		add("query/"+bq.Query+"/candidates", float64(bq.Candidates), float64(cq.Candidates), size)
		add("query/"+bq.Query+"/programs", float64(bq.Programs), float64(cq.Programs), size)
	}
	for _, q := range cur.Queries {
		if !seen[q.Query] {
			d.Lines = append(d.Lines, DiffLine{Metric: "query/" + q.Query, Cur: q.Duration.Seconds(), Note: "only in current"})
		}
	}

	// Telemetry counters: solver/chase work is gated exactly (more or less
	// work at equal answers is a changed trajectory); everything else
	// compares as drift.
	names := make([]string, 0, len(base.Metrics.Counters))
	for name := range base.Metrics.Counters {
		names = append(names, name)
	}
	for name := range cur.Metrics.Counters {
		if _, ok := base.Metrics.Counters[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, inBase := base.Metrics.Counters[name]
		c, inCur := cur.Metrics.Counters[name]
		switch {
		case !inBase:
			d.Lines = append(d.Lines, DiffLine{Metric: "counter/" + name, Cur: float64(c), Note: "only in current"})
		case !inCur:
			d.Lines = append(d.Lines, DiffLine{Metric: "counter/" + name, Base: float64(b), Note: "only in baseline"})
		case workCounter(name):
			add("counter/"+name, float64(b), float64(c), work)
		default:
			add("counter/"+name, float64(b), float64(c), size)
		}
	}
	return d
}

// workCounter reports whether a registered telemetry counter measures
// solver or chase effort, or the atoms the greedy repairs decide in the
// solver's stead (gated exactly), rather than workload size.
func workCounter(name string) bool {
	switch name {
	case "xr_chase_rule_evals_total", "xr_chase_triggers_fired_total", "xr_index_probes_total", "xr_greedy_decided_total":
		return true
	}
	return strings.HasPrefix(name, "xr_solver_") && strings.HasSuffix(name, "_total")
}

// Render writes the diff as an aligned table, regressions marked with "!".
func (d *ReportDiff) Render(w io.Writer) {
	fmt.Fprintf(w, "benchkit compare: baseline profile %s vs current profile %s (threshold %.1f%%)\n",
		d.BaseProfile, d.CurProfile, d.ThresholdPct)
	regressions := 0
	for _, l := range d.Lines {
		mark := " "
		if l.Regression {
			mark = "!"
			regressions++
		}
		note := ""
		if l.Note != "" {
			note = "  (" + l.Note + ")"
		}
		fmt.Fprintf(w, "%s %-48s %14.6g %14.6g %+8.1f%%%s\n", mark, l.Metric, l.Base, l.Cur, l.DeltaPct, note)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "REGRESSION: %d metric(s) regressed (a wall time over the %.1f%% threshold, or a changed work counter)\n", regressions, d.ThresholdPct)
	} else {
		fmt.Fprintf(w, "ok: no metric exceeded the %.1f%% threshold and no work counter changed\n", d.ThresholdPct)
	}
}
