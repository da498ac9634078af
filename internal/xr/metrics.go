package xr

import (
	"strings"

	"repro/internal/telemetry"
)

// meters pre-resolves every instrument the engines record into, so the
// solving paths pay one atomic add per update instead of a registry map
// lookup. A nil *meters is the disabled-telemetry fast path: every record
// method starts with a nil check and the underlying instruments are
// nil-safe too, so engines call them unconditionally.
//
// All updates are atomic-counter adds that commute, which is what makes
// counter totals deterministic at any Options.Parallelism: the set of
// per-program contributions is fixed by the query (each signature group is
// solved exactly once), only their order varies. Histograms record wall
// times and are therefore not expected to be run-to-run identical.
type meters struct {
	reg *telemetry.Registry

	// Exchange phase (the Table 4 columns of the paper).
	exchanges       *telemetry.Counter
	exSourceFacts   *telemetry.Counter
	exTotalFacts    *telemetry.Counter
	exViolations    *telemetry.Counter
	exClusters      *telemetry.Counter
	exSuspectSource *telemetry.Counter
	exSafeDerivable *telemetry.Counter
	exReduceSeconds *telemetry.Histogram
	exChaseSeconds  *telemetry.Histogram
	exEnvSeconds    *telemetry.Histogram
	exSeconds       *telemetry.Histogram

	// Semi-naive chase breakdown (DESIGN.md §12).
	chaseRounds     *telemetry.Counter
	chaseRuleEvals  *telemetry.Counter
	chaseRuleSkips  *telemetry.Counter
	chaseTriggers   *telemetry.Counter
	chaseDeltaFacts *telemetry.Counter
	indexProbes     *telemetry.Counter
	indexBuilds     *telemetry.Counter
	chaseTgdSeconds *telemetry.Histogram
	chaseVioSeconds *telemetry.Histogram

	// Query phase (QueryStats totals).
	queries        *telemetry.Counter
	candidates     *telemetry.Counter
	safeAccepted   *telemetry.Counter
	solverAccepted *telemetry.Counter
	querySeconds   *telemetry.Histogram

	// Per-program measurements (one disjunctive program solved).
	programs       *telemetry.Counter
	programCands   *telemetry.Counter
	groundRules    *telemetry.Counter
	groundAtoms    *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	learnedClauses *telemetry.Counter
	programSeconds *telemetry.Histogram
	sigcacheSize   *telemetry.Gauge

	// Solver effort (DPLL core + stable-model layer).
	decisions        *telemetry.Counter
	conflicts        *telemetry.Counter
	propagations     *telemetry.Counter
	restarts         *telemetry.Counter
	candidatesTested *telemetry.Counter
	stabilityFails   *telemetry.Counter
	loopsLearned     *telemetry.Counter
	theoryRejects    *telemetry.Counter
	assumptionSolves *telemetry.Counter
	reductions       *telemetry.Counter
	clausesDeleted   *telemetry.Counter

	// Persistent-solver reuse (DESIGN.md §17): sessions served on a warm
	// per-signature solver vs cold builds of one, and query atoms answered
	// without a session, from the solver's verdict memo or from the
	// witness models it stored.
	reuseSessions *telemetry.Counter
	reuseBuilds   *telemetry.Counter
	memoHits      *telemetry.Counter
	modelHits     *telemetry.Counter

	// Query plans (DESIGN.md §9.3): asks served from a cached plan, and
	// plans evicted to keep the cache within its byte bound.
	planHits      *telemetry.Counter
	planEvictions *telemetry.Counter

	// Degradation (partial-results mode; DESIGN.md §11).
	partialQueries   *telemetry.Counter
	degradedSigs     *telemetry.Counter
	signatureRetries *telemetry.Counter

	repairsEnumerated *telemetry.Counter
}

// newMeters resolves the instrument set for a registry (nil in, nil out).
func newMeters(reg *telemetry.Registry) *meters {
	if reg == nil {
		return nil
	}
	return &meters{
		reg: reg,

		exchanges:       reg.Counter("xr_exchanges_total"),
		exSourceFacts:   reg.Counter("xr_exchange_source_facts_total"),
		exTotalFacts:    reg.Counter("xr_exchange_facts_total"),
		exViolations:    reg.Counter("xr_exchange_violations_total"),
		exClusters:      reg.Counter("xr_exchange_clusters_total"),
		exSuspectSource: reg.Counter("xr_exchange_suspect_source_total"),
		exSafeDerivable: reg.Counter("xr_exchange_safe_derivable_total"),
		exReduceSeconds: reg.Histogram("xr_exchange_reduce_seconds"),
		exChaseSeconds:  reg.Histogram("xr_exchange_chase_seconds"),
		exEnvSeconds:    reg.Histogram("xr_exchange_envelopes_seconds"),
		exSeconds:       reg.Histogram("xr_exchange_seconds"),

		chaseRounds:     reg.Counter("xr_chase_rounds_total"),
		chaseRuleEvals:  reg.Counter("xr_chase_rule_evals_total"),
		chaseRuleSkips:  reg.Counter("xr_chase_rule_skips_total"),
		chaseTriggers:   reg.Counter("xr_chase_triggers_fired_total"),
		chaseDeltaFacts: reg.Counter("xr_chase_delta_facts_total"),
		indexProbes:     reg.Counter("xr_index_probes_total"),
		indexBuilds:     reg.Counter("xr_index_builds_total"),
		chaseTgdSeconds: reg.Histogram("xr_chase_tgd_seconds"),
		chaseVioSeconds: reg.Histogram("xr_chase_violations_seconds"),

		queries:        reg.Counter("xr_queries_total"),
		candidates:     reg.Counter("xr_query_candidates_total"),
		safeAccepted:   reg.Counter("xr_query_safe_accepted_total"),
		solverAccepted: reg.Counter("xr_query_solver_accepted_total"),
		querySeconds:   reg.Histogram("xr_query_seconds"),

		programs:       reg.Counter("xr_programs_total"),
		programCands:   reg.Counter("xr_program_candidates_total"),
		groundRules:    reg.Counter("xr_program_ground_rules_total"),
		groundAtoms:    reg.Counter("xr_program_ground_atoms_total"),
		cacheHits:      reg.Counter("xr_sigcache_hits_total"),
		cacheMisses:    reg.Counter("xr_sigcache_misses_total"),
		learnedClauses: reg.Counter("xr_sigcache_learned_clauses_total"),
		programSeconds: reg.Histogram("xr_program_seconds"),
		sigcacheSize:   reg.Gauge("xr_sigcache_entries"),

		decisions:        reg.Counter("xr_solver_decisions_total"),
		conflicts:        reg.Counter("xr_solver_conflicts_total"),
		propagations:     reg.Counter("xr_solver_propagations_total"),
		restarts:         reg.Counter("xr_solver_restarts_total"),
		candidatesTested: reg.Counter("xr_solver_candidates_tested_total"),
		stabilityFails:   reg.Counter("xr_solver_stability_fails_total"),
		loopsLearned:     reg.Counter("xr_solver_loops_learned_total"),
		theoryRejects:    reg.Counter("xr_solver_theory_rejects_total"),
		assumptionSolves: reg.Counter("xr_solver_assumption_solves_total"),
		reductions:       reg.Counter("xr_solver_reductions_total"),
		clausesDeleted:   reg.Counter("xr_solver_clauses_deleted_total"),

		reuseSessions: reg.Counter("xr_solver_reuse_sessions_total"),
		reuseBuilds:   reg.Counter("xr_solver_reuse_builds_total"),
		memoHits:      reg.Counter("xr_solver_verdict_memo_hits_total"),
		modelHits:     reg.Counter("xr_solver_model_memo_hits_total"),

		planHits:      reg.Counter("xr_query_plan_hits_total"),
		planEvictions: reg.Counter("xr_query_plan_evictions_total"),

		partialQueries:   reg.Counter("xr_partial_queries_total"),
		degradedSigs:     reg.Counter("xr_signatures_degraded_total"),
		signatureRetries: reg.Counter("xr_signature_retries_total"),

		repairsEnumerated: reg.Counter("xr_repairs_enumerated_total"),
	}
}

// metersFor resolves the instrument set for one call: a per-call registry
// (Options.Metrics) takes precedence over the registry the Exchange was
// built with.
func (ex *Exchange) metersFor(opts *Options) *meters {
	if opts.Metrics != nil {
		if ex.mt != nil && ex.mt.reg == opts.Metrics {
			return ex.mt
		}
		return newMeters(opts.Metrics)
	}
	return ex.mt
}

// recordExchange aggregates one exchange phase.
func (m *meters) recordExchange(st ExchangeStats) {
	if m == nil {
		return
	}
	m.exchanges.Inc()
	m.exSourceFacts.Add(int64(st.SourceFacts))
	m.exTotalFacts.Add(int64(st.TotalFacts))
	m.exViolations.Add(int64(st.Violations))
	m.exClusters.Add(int64(st.Clusters))
	m.exSuspectSource.Add(int64(st.SuspectSource))
	m.exSafeDerivable.Add(int64(st.SafeDerivable))
	m.exReduceSeconds.Observe(st.ReduceDuration)
	m.exChaseSeconds.Observe(st.ChaseDuration)
	m.exEnvSeconds.Observe(st.EnvDuration)
	m.exSeconds.Observe(st.Duration)
	m.chaseRounds.Add(int64(st.ChaseRounds))
	m.chaseRuleEvals.Add(int64(st.ChaseRuleEvals))
	m.chaseRuleSkips.Add(int64(st.ChaseRuleSkips))
	m.chaseTriggers.Add(int64(st.ChaseTriggers))
	m.chaseDeltaFacts.Add(int64(st.ChaseDeltaFacts))
	m.indexProbes.Add(int64(st.IndexProbes))
	m.indexBuilds.Add(int64(st.IndexBuilds))
	m.chaseTgdSeconds.Observe(st.ChaseTgdDuration)
	m.chaseVioSeconds.Observe(st.ChaseViolationDuration)
}

// recordQuery aggregates one finished query, plus a per-engine query count
// (xr_<engine>_queries_total; the engine label is folded into the name
// because the exposition format is label-free).
func (m *meters) recordQuery(engine string, st QueryStats) {
	if m == nil {
		return
	}
	m.queries.Inc()
	m.reg.Counter("xr_" + strings.ReplaceAll(engine, "-", "_") + "_queries_total").Inc()
	m.candidates.Add(int64(st.Candidates))
	m.safeAccepted.Add(int64(st.SafeAccepted))
	m.solverAccepted.Add(int64(st.SolverAccepted))
	m.querySeconds.Observe(st.Duration)
}

// recordProgram aggregates one solved program from its trace event. Cache
// hit/miss counts apply only to the segmentary engines (the monolithic
// engine has no program cache; counting its always-false CacheHit as a
// miss would poison the hit ratio).
func (m *meters) recordProgram(ev TraceEvent) {
	if m == nil {
		return
	}
	m.programs.Inc()
	m.programCands.Add(int64(ev.Candidates))
	m.groundRules.Add(int64(ev.Rules))
	m.groundAtoms.Add(int64(ev.Atoms))
	if strings.HasPrefix(ev.Engine, "segmentary") {
		if ev.CacheHit {
			m.cacheHits.Inc()
		} else {
			m.cacheMisses.Inc()
		}
	}
	m.decisions.Add(ev.Decisions)
	m.conflicts.Add(ev.Conflicts)
	m.propagations.Add(ev.Propagations)
	m.restarts.Add(ev.Restarts)
	m.candidatesTested.Add(int64(ev.CandidatesTested))
	m.stabilityFails.Add(int64(ev.StabilityFails))
	m.loopsLearned.Add(int64(ev.LoopsLearned))
	m.theoryRejects.Add(int64(ev.TheoryRejects))
	m.assumptionSolves.Add(ev.AssumptionSolves)
	m.reductions.Add(ev.Reductions)
	m.clausesDeleted.Add(ev.ClausesDeleted)
	m.programSeconds.Observe(ev.Duration)
}

// recordReuseBuild counts one persistent per-signature solver built (a
// cold start for that signature's reuse path).
func (m *meters) recordReuseBuild() {
	if m == nil {
		return
	}
	m.reuseBuilds.Inc()
}

// recordReuseSession counts one query session on a persistent solver;
// only warm sessions (a solver that existed before this query) count as
// reuse.
func (m *meters) recordReuseSession(reused bool) {
	if m == nil || !reused {
		return
	}
	m.reuseSessions.Inc()
}

// recordMemoHits counts the distinct query atoms of one answered group
// that the persistent solver's verdict memo decided.
func (m *meters) recordMemoHits(n int) {
	if m == nil {
		return
	}
	m.memoHits.Add(int64(n))
}

// recordModelMemoHits counts the distinct query atoms the stored witness
// models decided for one group.
func (m *meters) recordModelMemoHits(n int) {
	if m == nil {
		return
	}
	m.modelHits.Add(int64(n))
}

// recordPlanHit counts one query served from a cached plan.
func (m *meters) recordPlanHit() {
	if m == nil {
		return
	}
	m.planHits.Inc()
}

// recordPlanEvictions counts plans evicted past the plan cache's bound.
func (m *meters) recordPlanEvictions(n int) {
	if m == nil {
		return
	}
	m.planEvictions.Add(int64(n))
}

// recordLearned counts one distinct maximality clause learned by one
// acceptor rejection (see acceptorWithIndex).
func (m *meters) recordLearned() {
	if m == nil {
		return
	}
	m.learnedClauses.Inc()
}

// recordRetry counts one signature retried with a doubled budget.
func (m *meters) recordRetry() {
	if m == nil {
		return
	}
	m.signatureRetries.Inc()
}

// recordDegradation aggregates one finished query's degradation outcome: a
// query returning any degraded signature counts as one partial query, and
// each undecided signature feeds xr_signatures_degraded_total. Like every
// other counter, the totals are deterministic at any Parallelism when
// degradation is driven by the deterministic decision/conflict budgets.
func (m *meters) recordDegradation(degraded int) {
	if m == nil || degraded == 0 {
		return
	}
	m.partialQueries.Inc()
	m.degradedSigs.Add(int64(degraded))
}

// recordSigcacheSize publishes the exchange's current cache population.
func (m *meters) recordSigcacheSize(ex *Exchange) {
	if m == nil {
		return
	}
	ex.progMu.Lock()
	n := len(ex.progCache)
	ex.progMu.Unlock()
	m.sigcacheSize.Set(int64(n))
}

// recordRepairs counts repairs produced by an enumeration call.
func (m *meters) recordRepairs(n int) {
	if m == nil {
		return
	}
	m.repairsEnumerated.Add(int64(n))
}
