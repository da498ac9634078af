package xr

import (
	"encoding/json"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// countersJSON marshals only the counter section of a registry snapshot —
// the part whose totals must be deterministic at any parallelism
// (histograms record wall times and are excluded by construction).
func countersJSON(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	b, err := json.Marshal(reg.Snapshot().Counters)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsMatchTraceEvents cross-checks the two observability channels:
// the registry totals must equal the sums over the raw trace events, and
// the per-query counters must match the returned stats.
func TestMetricsMatchTraceEvents(t *testing.T) {
	w, q := conflictFarm(12)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["xr_exchanges_total"] != 1 {
		t.Fatalf("exchanges counter = %d, want 1", snap.Counters["xr_exchanges_total"])
	}
	for name, want := range map[string]int64{
		"xr_exchange_source_facts_total":   int64(ex.Stats.SourceFacts),
		"xr_exchange_facts_total":          int64(ex.Stats.TotalFacts),
		"xr_exchange_violations_total":     int64(ex.Stats.Violations),
		"xr_exchange_clusters_total":       int64(ex.Stats.Clusters),
		"xr_exchange_suspect_source_total": int64(ex.Stats.SuspectSource),
		"xr_exchange_safe_derivable_total": int64(ex.Stats.SafeDerivable),
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	for _, h := range []string{
		"xr_exchange_reduce_seconds", "xr_exchange_chase_seconds",
		"xr_exchange_envelopes_seconds", "xr_exchange_seconds",
	} {
		if n := snap.Histograms[h].Count; n != 1 {
			t.Fatalf("%s count = %d, want 1", h, n)
		}
	}

	var events []TraceEvent
	res, err := ex.AnswerOpts(q, Options{
		Parallelism: 4,
		Trace:       func(ev TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}

	var decisions, conflicts, propagations, restarts, tested int64
	for _, ev := range events {
		decisions += ev.Decisions
		conflicts += ev.Conflicts
		propagations += ev.Propagations
		restarts += ev.Restarts
		tested += int64(ev.CandidatesTested)
	}
	if decisions == 0 || propagations == 0 {
		t.Fatal("conflict farm should exercise the solver")
	}
	snap = reg.Snapshot()
	for name, want := range map[string]int64{
		"xr_programs_total":                 int64(res.Stats.Programs),
		"xr_sigcache_misses_total":          int64(res.Stats.Programs - res.Stats.CacheHits),
		"xr_sigcache_hits_total":            int64(res.Stats.CacheHits),
		"xr_queries_total":                  1,
		"xr_segmentary_queries_total":       1,
		"xr_query_candidates_total":         int64(res.Stats.Candidates),
		"xr_query_safe_accepted_total":      int64(res.Stats.SafeAccepted),
		"xr_query_solver_accepted_total":    int64(res.Stats.SolverAccepted),
		"xr_solver_decisions_total":         decisions,
		"xr_solver_conflicts_total":         conflicts,
		"xr_solver_propagations_total":      propagations,
		"xr_solver_restarts_total":          restarts,
		"xr_solver_candidates_tested_total": tested,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["xr_sigcache_entries"] != int64(res.Stats.Programs) {
		t.Fatalf("sigcache gauge = %d, want %d", snap.Gauges["xr_sigcache_entries"], res.Stats.Programs)
	}
	if snap.Histograms["xr_program_seconds"].Count != int64(res.Stats.Programs) {
		t.Fatalf("program histogram count = %d, want %d",
			snap.Histograms["xr_program_seconds"].Count, res.Stats.Programs)
	}

	// A second identical query adds only cache hits, never misses.
	if _, err := ex.AnswerOpts(q, Options{}); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["xr_sigcache_misses_total"]; got != int64(res.Stats.Programs-res.Stats.CacheHits) {
		t.Fatalf("second run added cache misses: %d", got)
	}
}

// TestLearnedClausesCountedOncePerRejection pins what
// xr_sigcache_learned_clauses_total counts: distinct clauses per acceptor
// rejection. Deleting both facts of a key conflict makes each restorable
// alone, so one rejection learns the same clause twice; the solver gets
// both copies, the counter one.
func TestLearnedClausesCountedOncePerRejection(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	w.add(aRel, "t1", "5")
	w.add(aRel, "t1", "7")
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := ex.sigProgramFor("0")
	sp.ensure(ex, []int{0})
	e := sp.enc
	if len(e.deletable) != 2 {
		t.Fatalf("deletable facts = %d, want 2", len(e.deletable))
	}
	m := make([]bool, e.gp.NumAtoms())
	for _, f := range e.deletable {
		m[e.d[f]] = true
	}
	counted := 0
	clauses := e.acceptorWithIndex(sp.idx, asp.NewStableSolver(e.gp), func() { counted++ })(m)
	if len(clauses) != 2 || !slices.Equal(clauses[0], clauses[1]) {
		t.Fatalf("acceptor learned %v, want the same clause twice", clauses)
	}
	if counted != 1 {
		t.Fatalf("counted %d learned clauses, want 1", counted)
	}
}

// TestMetricsCounterDeterminism runs the same workload sequentially and
// with a saturated pool into two fresh registries; the counter sections
// must be byte-identical JSON.
func TestMetricsCounterDeterminism(t *testing.T) {
	w, q := conflictFarm(24)
	regSeq, regPar := telemetry.NewRegistry(), telemetry.NewRegistry()
	exSeq, err := NewExchangeOpts(w.m, w.src, Options{Metrics: regSeq})
	if err != nil {
		t.Fatal(err)
	}
	exPar, err := NewExchangeOpts(w.m, w.src, Options{Metrics: regPar})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeat: cache hits and warm sessions must agree too
		if _, err := exSeq.AnswerOpts(q, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := exPar.AnswerOpts(q, Options{Parallelism: 8}); err != nil {
			t.Fatal(err)
		}
		if _, err := exSeq.PossibleOpts(q, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := exPar.PossibleOpts(q, Options{Parallelism: 8}); err != nil {
			t.Fatal(err)
		}
	}
	seq, par := countersJSON(t, regSeq), countersJSON(t, regPar)
	if seq != par {
		t.Fatalf("counter totals diverge across parallelism:\nseq: %s\npar: %s", seq, par)
	}
}

// TestTraceSerializedUnderParallelism asserts the Trace hook is never
// invoked concurrently even with a saturated worker pool (run under the
// race detector, this also proves the hook needs no internal locking).
func TestTraceSerializedUnderParallelism(t *testing.T) {
	w, q := conflictFarm(24)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, maxInFlight, calls atomic.Int64
	unsynced := 0 // written without synchronization: the race detector flags overlap
	res, err := ex.AnswerOpts(q, Options{
		Parallelism: 8,
		Trace: func(TraceEvent) {
			n := inFlight.Add(1)
			if n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
			unsynced++
			calls.Add(1)
			time.Sleep(50 * time.Microsecond) // widen any overlap window
			inFlight.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("trace hook overlapped: max in-flight = %d", got)
	}
	if int(calls.Load()) != res.Stats.Programs || unsynced != res.Stats.Programs {
		t.Fatalf("trace calls = %d/%d, programs = %d", calls.Load(), unsynced, res.Stats.Programs)
	}
}

// TestMetricsOtherEngines covers the monolithic, repairs, and brute-force
// recording paths.
func TestMetricsOtherEngines(t *testing.T) {
	w, q := conflictFarm(2)
	reg := telemetry.NewRegistry()

	results, err := Monolithic(w.m, w.src, []*logic.UCQ{q, q}, MonolithicOptions{Parallelism: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["xr_monolithic_queries_total"]; got != 2 {
		t.Fatalf("monolithic queries counter = %d, want 2", got)
	}
	if got := snap.Counters["xr_programs_total"]; got != int64(len(results)) {
		t.Fatalf("programs counter = %d, want %d", got, len(results))
	}
	// The monolithic engine has no signature cache: neither hits nor misses.
	if snap.Counters["xr_sigcache_hits_total"] != 0 || snap.Counters["xr_sigcache_misses_total"] != 0 {
		t.Fatalf("monolithic run touched sigcache counters: %v", snap.Counters)
	}

	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ex.RepairsOpts(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["xr_repairs_enumerated_total"]; got != int64(len(reps)) {
		t.Fatalf("repairs counter = %d, want %d", got, len(reps))
	}

	bfReg := telemetry.NewRegistry()
	if _, err := BruteForceOpts(w.m, w.src, []*logic.UCQ{q}, Options{Metrics: bfReg}); err != nil {
		t.Fatal(err)
	}
	bf := bfReg.Snapshot()
	if bf.Counters["xr_bruteforce_queries_total"] != 1 {
		t.Fatalf("bruteforce queries counter = %d, want 1", bf.Counters["xr_bruteforce_queries_total"])
	}
	if bf.Counters["xr_repairs_enumerated_total"] != int64(len(reps)) {
		t.Fatalf("bruteforce repairs = %d, solver repairs = %d",
			bf.Counters["xr_repairs_enumerated_total"], len(reps))
	}
}
