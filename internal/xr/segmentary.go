package xr

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/explain"
	"repro/internal/gavreduce"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/profile"
	"repro/internal/symtab"
	"repro/internal/telemetry"
)

// Cluster is a violation cluster (Definition 8, approximated per
// Propositions 5–6 by grouping violations with overlapping source repair
// envelopes) together with its source envelope and influence.
type Cluster struct {
	Violations []int // indices into the provenance's violation list
	// SourceEnvelope is the S-restriction of the union of the violations'
	// support closures — a source repair envelope for the cluster
	// (Proposition 6).
	SourceEnvelope map[chase.FactID]bool
	// Influence is influence(SourceEnvelope) (Definition 7): the target
	// half of the cluster's exchange repair envelope (Proposition 4).
	Influence map[chase.FactID]bool
}

// ExchangeStats records exchange-phase measurements (Table 4), including
// the semi-naive chase breakdown (DESIGN.md §12).
//
// ExchangeStats is part of the JSON wire format (snake_case field names
// are a compatibility contract; durations travel as integer nanoseconds).
type ExchangeStats struct {
	SourceFacts    int           `json:"source_facts"`
	TotalFacts     int           `json:"total_facts"` // source + derived (quasi-solution)
	Violations     int           `json:"violations"`
	Clusters       int           `json:"clusters"`
	SuspectSource  int           `json:"suspect_source"` // |I_suspect|
	SafeDerivable  int           `json:"safe_derivable"` // facts derivable from the safe part alone
	ReduceDuration time.Duration `json:"reduce_duration_ns"`
	ChaseDuration  time.Duration `json:"chase_duration_ns"`
	EnvDuration    time.Duration `json:"env_duration_ns"`
	Duration       time.Duration `json:"duration_ns"`

	// Chase-internal breakdown: fixpoint rounds, rule evaluations performed
	// vs skipped by the dependency index, ground derivations fired, new
	// facts added, and instance index activity during the chase.
	ChaseRounds            int           `json:"chase_rounds"`
	ChaseRuleEvals         int           `json:"chase_rule_evals"`
	ChaseRuleSkips         int           `json:"chase_rule_skips"`
	ChaseTriggers          int           `json:"chase_triggers"`
	ChaseDeltaFacts        int           `json:"chase_delta_facts"`
	IndexProbes            uint64        `json:"index_probes"`
	IndexBuilds            uint64        `json:"index_builds"`
	ChaseTgdDuration       time.Duration `json:"chase_tgd_duration_ns"`
	ChaseViolationDuration time.Duration `json:"chase_violation_duration_ns"`
}

// Exchange is the result of the query-independent exchange phase
// (Section 6.5): the reduced mapping, the chased instance with provenance,
// the suspect/safe split, and the violation clusters with influences.
type Exchange struct {
	Red  *gavreduce.Reduction
	Prov *chase.Provenance

	Clusters []*Cluster
	// suspect marks the source facts in some violation's support closure
	// (Definition 5); their union is the source repair envelope I_suspect
	// (Proposition 3).
	suspect map[chase.FactID]bool
	// safeDerivable marks facts derivable without any suspect source fact;
	// this is I_safe ∪ J_safe computed on the support hypergraph.
	safeDerivable map[chase.FactID]bool
	// clustersOf maps each fact to the (sorted) clusters whose influence
	// contains it.
	clustersOf map[chase.FactID][]int

	// progCache holds one cached signature program per canonical signature
	// key (see sigcache.go). Guarded by progMu; safe for concurrent queries.
	progMu    sync.Mutex
	progCache map[string]*sigProgram
	// solverIDs numbers the persistent solvers built for progCache. A plan
	// group's wiring names its solver by id rather than by pointer, so a
	// cached plan never keeps a poisoned or evicted solver alive.
	solverIDs atomic.Uint64

	// plans holds one queryPlan per canonical rewritten query (see
	// plancache.go), at most planCap estimated bytes of them; planLRU
	// orders the built entries by last use, most recent first. Guarded by
	// planMu.
	planMu    sync.Mutex
	plans     map[string]*planEntry
	planLRU   list.List
	planBytes int64
	planCap   int64

	// mt is the instrument set of the registry the Exchange was built with
	// (nil when telemetry is off); per-call registries override it.
	mt *meters

	// prof is the workload hardness profiler (nil when Options.Profiling
	// is off — every record call is a nil-safe no-op). Unlike mt it is
	// never overridden per call: hardness history is an Exchange-lifetime
	// aggregate.
	prof *profile.Profiler

	Stats ExchangeStats
}

// NewExchange runs the exchange phase: reduce the mapping, chase with
// provenance, compute violations, support closures, the suspect/safe split,
// violation clusters, and cluster influences. All of this is
// query-independent and polynomial (Propositions 3–6).
func NewExchange(m *mapping.Mapping, src *instance.Instance) (*Exchange, error) {
	return NewExchangeOpts(m, src, Options{})
}

// NewExchangeOpts is NewExchange with Options. Metrics, Profiling and
// Tracer are consulted: the exchange phase is polynomial and
// uninterruptible (the chase has no cancellation points), so
// Ctx/Timeout/Parallelism apply to the query phase only. The registry
// also becomes the Exchange's default for later query calls that don't
// carry their own; Profiling attaches a workload profiler seeded with the
// cluster shapes; Tracer receives the exchange phase's span tree.
func NewExchangeOpts(m *mapping.Mapping, src *instance.Instance, opts Options) (*Exchange, error) {
	start := time.Now()
	red, err := gavreduce.Reduce(m)
	if err != nil {
		return nil, err
	}
	afterReduce := time.Now()
	var cst chase.Stats
	prov, err := chase.GAVWithOptions(red.M, src, chase.Options{Stats: &cst})
	if err != nil {
		return nil, err
	}
	afterChase := time.Now()

	ex := &Exchange{
		Red:        red,
		Prov:       prov,
		suspect:    make(map[chase.FactID]bool),
		clustersOf: make(map[chase.FactID][]int),
		progCache:  make(map[string]*sigProgram),
		plans:      make(map[string]*planEntry),
		planCap:    maxPlanBytes,
	}

	// Support closure per violation; cluster by overlapping source envelopes
	// (disjoint envelopes are pairwise independent, Proposition 5).
	type vioEnv struct {
		srcEnv []chase.FactID
	}
	parent := make([]int, len(prov.Violations))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	envs := make([]vioEnv, len(prov.Violations))
	owner := make(map[chase.FactID]int) // source fact -> first violation seen
	for vi, v := range prov.Violations {
		closure := prov.SupportClosure(v.Body)
		var srcEnv []chase.FactID
		for f := range closure {
			if prov.IsSource(f) {
				srcEnv = append(srcEnv, f)
				ex.suspect[f] = true
				if prev, ok := owner[f]; ok {
					union(prev, vi)
				} else {
					owner[f] = vi
				}
			}
		}
		envs[vi] = vioEnv{srcEnv: srcEnv}
	}

	// Materialize clusters.
	byRoot := make(map[int]*Cluster)
	for vi := range prov.Violations {
		root := find(vi)
		c, ok := byRoot[root]
		if !ok {
			c = &Cluster{SourceEnvelope: make(map[chase.FactID]bool)}
			byRoot[root] = c
			ex.Clusters = append(ex.Clusters, c)
		}
		c.Violations = append(c.Violations, vi)
		for _, f := range envs[vi].srcEnv {
			c.SourceEnvelope[f] = true
		}
	}
	sort.Slice(ex.Clusters, func(i, j int) bool {
		return ex.Clusters[i].Violations[0] < ex.Clusters[j].Violations[0]
	})
	for ci, c := range ex.Clusters {
		c.Influence = prov.Influence(c.SourceEnvelope)
		for f := range c.Influence {
			ex.clustersOf[f] = append(ex.clustersOf[f], ci)
		}
	}
	for _, cs := range ex.clustersOf {
		sort.Ints(cs)
	}

	ex.safeDerivable = prov.SafeDerivable(ex.suspect)

	end := time.Now()
	ex.Stats = ExchangeStats{
		SourceFacts:    src.Len(),
		TotalFacts:     prov.NumFacts(),
		Violations:     len(prov.Violations),
		Clusters:       len(ex.Clusters),
		SuspectSource:  len(ex.suspect),
		SafeDerivable:  len(ex.safeDerivable),
		ReduceDuration: afterReduce.Sub(start),
		ChaseDuration:  afterChase.Sub(afterReduce),
		EnvDuration:    end.Sub(afterChase),
		Duration:       end.Sub(start),

		ChaseRounds:            cst.Rounds,
		ChaseRuleEvals:         cst.RuleEvals,
		ChaseRuleSkips:         cst.RuleSkips,
		ChaseTriggers:          cst.Triggers,
		ChaseDeltaFacts:        cst.DeltaFacts,
		IndexProbes:            prov.Instance.IndexProbes(),
		IndexBuilds:            prov.Instance.IndexBuilds(),
		ChaseTgdDuration:       cst.TgdDuration,
		ChaseViolationDuration: cst.ViolationDuration,
	}
	ex.mt = newMeters(opts.Metrics)
	ex.mt.recordExchange(ex.Stats)
	if opts.Profiling {
		ex.prof = profile.New(profile.Config{Metrics: opts.Metrics})
		// Seed cluster shapes now, while envelope construction is fresh:
		// every later solve only touches counters.
		for ci, c := range ex.Clusters {
			ex.prof.SeedCluster(ci, len(c.Violations), len(c.SourceEnvelope), len(c.Influence))
		}
	}
	if opts.Tracer != nil {
		// The exchange phase is not tracer-aware internally; synthesize its
		// span tree from the measured boundaries. The chase's tgd fixpoint
		// and violation sweep run sequentially in that order, so their
		// sub-spans are laid back-to-back from the chase start.
		t := opts.Tracer
		exSpan := t.AddSpan(telemetry.NoSpan, "exchange", 0, start, end.Sub(start),
			telemetry.SpanArg{Key: "clusters", Value: strconv.Itoa(len(ex.Clusters))},
			telemetry.SpanArg{Key: "facts", Value: strconv.Itoa(prov.NumFacts())},
			telemetry.SpanArg{Key: "violations", Value: strconv.Itoa(len(prov.Violations))})
		t.AddSpan(exSpan, "reduce", 0, start, afterReduce.Sub(start))
		chaseSpan := t.AddSpan(exSpan, "chase", 0, afterReduce, afterChase.Sub(afterReduce),
			telemetry.SpanArg{Key: "rounds", Value: strconv.Itoa(cst.Rounds)})
		t.AddSpan(chaseSpan, "chase/tgds", 0, afterReduce, cst.TgdDuration)
		t.AddSpan(chaseSpan, "chase/violations", 0, afterReduce.Add(cst.TgdDuration), cst.ViolationDuration)
		t.AddSpan(exSpan, "envelopes", 0, afterChase, end.Sub(afterChase))
	}
	return ex, nil
}

// SuspectSourceFacts returns |I_suspect|.
func (ex *Exchange) SuspectSourceFacts() int { return len(ex.suspect) }

// Profile returns a deterministic point-in-time snapshot of the
// Exchange's workload hardness profiler: per-signature and per-cluster
// solve accounting accumulated across every query since the Exchange was
// built (plus any history merged back via MergeProfile). When the
// Exchange was built without Options.Profiling the snapshot is empty,
// never nil.
func (ex *Exchange) Profile() *profile.Snapshot { return ex.prof.Snapshot() }

// MergeProfile folds a previously captured snapshot into the Exchange's
// profiler — the boot-recovery path that makes hardness history survive
// restarts. No-op when profiling is disabled.
func (ex *Exchange) MergeProfile(snap *profile.Snapshot) { ex.prof.Merge(snap) }

// ProfilingEnabled reports whether the Exchange records workload
// profiles (Options.Profiling at construction).
func (ex *Exchange) ProfilingEnabled() bool { return ex.prof != nil }

// Consistent reports whether the source instance has a solution (no
// violations at all).
func (ex *Exchange) Consistent() bool { return len(ex.Prov.Violations) == 0 }

// Answer computes the XR-Certain answers of one query using the segmentary
// query phase (Section 6.4/6.5): candidates are computed from the
// quasi-solution, safe candidates are accepted immediately, and the rest
// are grouped by fact signature and decided by one small DLP per signature.
func (ex *Exchange) Answer(q *logic.UCQ) (*Result, error) {
	return ex.AnswerOpts(q, Options{})
}

// AnswerOpts is Answer with per-call Options (context, timeout,
// parallelism, tracing). A canceled or expired context yields an error
// matching ErrCanceled / ErrTimeout under errors.Is.
func (ex *Exchange) AnswerOpts(q *logic.UCQ, opts Options) (*Result, error) {
	return ex.query(q, false, opts)
}

// Possible computes the XR-Possible answers of one query: the tuples that
// hold in at least one XR-solution (the union rather than the intersection
// over exchange-repair solutions — the "possible answers" dual studied in
// the inconsistency-tolerance literature). Certain answers are possible by
// definition, so safe candidates are accepted outright; the remaining
// candidates are decided by brave reasoning over the same per-signature
// programs the certain-answer path uses.
func (ex *Exchange) Possible(q *logic.UCQ) (*Result, error) {
	return ex.PossibleOpts(q, Options{})
}

// PossibleOpts is Possible with per-call Options.
func (ex *Exchange) PossibleOpts(q *logic.UCQ, opts Options) (*Result, error) {
	return ex.query(q, true, opts)
}

// query is the shared segmentary query phase: take the query's plan (its
// candidates split into safe-accepted and signature groups, cached on the
// Exchange), solve one program per signature (cautious for certain
// answers, brave for possible answers) across a bounded worker pool, and
// merge the outcomes in canonical key order.
//
// Results are deterministic at any parallelism: the answer set is merge-
// order independent (AnswerSet iterates in sorted key order) and every
// per-group stat is a pure function of the group, so totals agree with the
// sequential path. Cautious/brave consequences are semantically determined
// by the program, so what the persistent solvers learned earlier and solver
// scheduling can only change solving effort, never the answers.
func (ex *Exchange) query(q *logic.UCQ, brave bool, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.serialized()
	mt := ex.metersFor(&opts)
	ctx, cancel := opts.begin()
	defer cancel()

	rq, err := ex.Red.RewriteQuery(q)
	if err != nil {
		return nil, err
	}
	engine := "segmentary"
	if brave {
		engine = "segmentary-brave"
	}
	qspan := opts.Tracer.StartSpan(telemetry.NoSpan, "query "+q.Name+" ["+engine+"]")
	if rid := telemetry.RequestIDFromContext(ctx); rid != "" {
		qspan.Arg("request_id", rid)
	}
	res := &Result{Query: q, Answers: cq.NewAnswerSet()}
	if opts.Partial {
		res.Unknown = cq.NewAnswerSet()
	}
	defer func() {
		res.Stats.Duration = time.Since(start)
		mt.recordQuery(engine, res.Stats)
		mt.recordSigcacheSize(ex)
		qspan.ArgInt("candidates", int64(res.Stats.Candidates))
		qspan.ArgInt("programs", int64(res.Stats.Programs))
		qspan.End()
	}()

	if len(rq.Clauses) == 0 {
		return res, nil
	}
	var plan *queryPlan
	var cands []*candidate
	if opts.Explain {
		// Explanations name every candidate's support facts, which a cached
		// plan does not keep for the safe ones: collect them afresh.
		cands = collectCandidates(rq, ex.Prov)
		plan = ex.newPlan(cands)
	} else {
		plan = ex.planFor(rq, mt)
	}
	res.acceptSafe(plan)
	groups := plan.groups

	// Solve one program per signature, fanning out across the pool. With
	// Options.Explain, each worker also runs the deterministic explanation
	// pass for its group right after deciding it (results are slotted by
	// group index, so parallel order never shows).
	outcomes := make([]*groupOutcome, len(groups))
	var groupExpl [][]*explain.Explanation
	if opts.Explain {
		groupExpl = make([][]*explain.Explanation, len(groups))
	}
	ferr := forEachWorker(ctx, opts.workers(), len(groups), func(ctx context.Context, worker, i int) error {
		g := groups[i]
		out, err := ex.solveSig(ctx, g, brave, &opts, mt, q.Name, qspan.ID(), worker)
		if err != nil {
			return err
		}
		if opts.Explain {
			espan := opts.Tracer.StartSpan(qspan.ID(), "explain {"+g.key+"}")
			espan.SetLane(worker)
			es, err := ex.explainGroup(ctx, g, out, brave, q.Name)
			espan.End()
			if err != nil {
				return err
			}
			groupExpl[i] = es
		}
		outcomes[i] = out
		return nil
	})
	if ferr != nil {
		return nil, fmt.Errorf("xr: query %s: %w", q.Name, ferr)
	}
	for _, out := range outcomes {
		res.merge(out)
	}
	if opts.Explain {
		// Explanations follow candidate collection order (deterministic):
		// candidates outside every group were accepted as safe.
		solved := make(map[*candidate]*explain.Explanation, len(cands))
		for i, g := range groups {
			for j, c := range g.cands {
				solved[c] = groupExpl[i][j]
			}
		}
		res.Explanations = make([]*explain.Explanation, 0, len(cands))
		for _, c := range cands {
			if e, ok := solved[c]; ok {
				res.Explanations = append(res.Explanations, e)
			} else {
				res.Explanations = append(res.Explanations, ex.safeExplanation(c, q.Name))
			}
		}
	}
	mt.recordDegradation(res.Stats.DegradedSignatures)
	return res, nil
}

// acceptSafe records a plan's candidate count and accepts its safe
// candidates.
func (res *Result) acceptSafe(p *queryPlan) {
	res.Stats.Candidates = p.candidates
	res.Stats.SafeAccepted = p.nsafe
	if p.nsafe == 0 {
		return
	}
	arity := len(p.safe) / p.nsafe // 0 for a boolean query's empty tuple
	for i := 0; i < p.nsafe; i++ {
		res.Answers.Add(p.safe[i*arity : (i+1)*arity])
	}
}

// merge folds one signature group's outcome into the result.
func (res *Result) merge(out *groupOutcome) {
	res.Stats.Retries += out.retries
	if out.degraded != nil {
		res.Degraded = append(res.Degraded, *out.degraded)
		for _, t := range out.unknown {
			res.Unknown.Add(t)
		}
		res.Stats.DegradedSignatures++
		res.Stats.UnknownTuples += len(out.unknown)
		return
	}
	for _, t := range out.tuples {
		res.Answers.Add(t)
	}
	res.Stats.SolverAccepted += len(out.tuples)
	res.Stats.Programs++
	if out.cacheHit {
		res.Stats.CacheHits++
	}
}

// groupOutcome is the result of solving one signature group, merged into
// the Result after all groups finish.
type groupOutcome struct {
	tuples   [][]symtab.Value
	cacheHit bool
	retries  int

	// degraded marks a group that could not be decided within its budget
	// under Options.Partial; its candidate tuples are reported as unknown
	// instead of being accepted or rejected.
	degraded *SignatureError
	unknown  [][]symtab.Value
}

// solveSig decides one signature group with graceful degradation: run one
// attempt, and on a per-signature failure (budget exhaustion, signature
// timeout, panic, injected fault) either retry once with a doubled budget
// and then degrade the group to unknown (Options.Partial), or fail the
// query (strict mode). A parent-context cancellation is never degradable —
// the whole query is ending — and always propagates.
func (ex *Exchange) solveSig(ctx context.Context, g *sigGroup, brave bool, opts *Options, mt *meters, qname string, parent telemetry.SpanID, lane int) (*groupOutcome, error) {
	key := g.key
	out, err := ex.solveSigAttempt(ctx, g, brave, opts, mt, qname, parent, lane, 1)
	if err == nil {
		return out, nil
	}
	if perr := ctxErr(ctx); perr != nil {
		return nil, perr
	}
	retries := 0
	if opts.Partial && retryableSigErr(err) {
		retries = 1
		mt.recordRetry()
		ex.prof.Record(key, g.sig, profile.Counters{Retries: 1})
		out, err = ex.solveSigAttempt(ctx, g, brave, opts, mt, qname, parent, lane, 2)
		if err == nil {
			out.retries = retries
			return out, nil
		}
		if perr := ctxErr(ctx); perr != nil {
			return nil, perr
		}
	}
	if !opts.Partial {
		return nil, fmt.Errorf("signature {%s}: %w", key, err)
	}
	ex.prof.Record(key, g.sig, profile.Counters{Degraded: 1})
	deg := &groupOutcome{
		retries:  retries,
		degraded: &SignatureError{Signature: key, Tuples: len(g.cands), Retries: retries, Err: err},
	}
	for _, c := range g.cands {
		deg.unknown = append(deg.unknown, c.tuple)
	}
	return deg, nil
}

// retryableSigErr reports whether a per-signature failure may succeed with
// a doubled budget: exhausted decision/conflict budgets and expired
// signature timeouts qualify, panics and injected faults do not.
func retryableSigErr(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrTimeout)
}

// sigSolve is the outcome of deciding one signature group: the verdict
// of each distinct query atom, the program size, the solver's termination
// state, and the session's work counters (zero when the verdict memo
// decided the whole group and no session ran).
type sigSolve struct {
	atoms    []asp.AtomID
	live     []*candidate
	holds    map[asp.AtomID]bool
	hasModel bool
	rules    int
	numAtoms int

	canceled  bool
	exhausted bool
	reused    bool      // served by an already-built persistent solver
	stats     asp.Stats // per-session deltas on the persistent solver
}

// solveSigAttempt solves one signature group once: fetch (or build) the
// cached base program and run cautious or brave reasoning on the
// signature's persistent incremental solver under the per-signature budget
// scaled by scale. Panics are converted to *InternalError (the worker pool
// must never crash the process); a panic inside the solver session also
// poisons the persistent solver, so the next query rebuilds it.
func (ex *Exchange) solveSigAttempt(ctx context.Context, g *sigGroup, brave bool, opts *Options, mt *meters, qname string, parent telemetry.SpanID, lane int, scale int64) (out *groupOutcome, err error) {
	key := g.key
	defer recoverInternal("segmentary signature {"+key+"}", &err)
	start := time.Now()
	span := opts.Tracer.StartSpan(parent, "signature {"+key+"}")
	span.SetLane(lane)
	span.Arg("signature", key)
	if scale > 1 {
		span.ArgInt("attempt", scale)
	}
	defer span.End()
	if opts.SignatureTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.SignatureTimeout*time.Duration(scale))
		defer cancel()
	}
	sp, hit := ex.sigProgramFor(key)
	if hit && opts.FaultHook != nil {
		if herr := opts.FaultHook(faultSiteCache, key); herr != nil {
			// The cached entry is reported corrupt: drop it and rebuild from
			// the (immutable) exchange, losing only learned clauses.
			ex.discardSigProgram(key, sp)
			sp, hit = ex.sigProgramFor(key)
		}
	}
	if opts.FaultHook != nil {
		if herr := opts.FaultHook(faultSiteGround, key); herr != nil {
			return nil, fmt.Errorf("grounding signature program: %w", herr)
		}
	}
	sp.ensure(ex, g.sig)

	if opts.FaultHook != nil {
		if herr := opts.FaultHook(faultSiteSolve, key); herr != nil {
			return nil, fmt.Errorf("solving signature program: %w", herr)
		}
	}
	sv := ex.solveSigReuse(ctx, sp, g, brave, opts, mt, scale)
	// A cut-short session must be discarded: cautious narrowing
	// over-approximates and brave marking under-approximates when the
	// solver stops early.
	if sv.canceled {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return nil, ErrCanceled
	}
	if sv.exhausted {
		// Budget cutoffs are deterministic DPLL counters, so this record —
		// unlike a wall-clock timeout — aggregates identically at any
		// Parallelism.
		ex.prof.Record(key, g.sig, profile.Counters{BudgetExhausted: 1})
		return nil, ErrBudget
	}
	if !sv.hasModel {
		return nil, fmt.Errorf("internal error: signature program has no stable model")
	}

	out = &groupOutcome{cacheHit: hit}
	for i, c := range sv.live {
		if sv.holds[sv.atoms[i]] {
			out.tuples = append(out.tuples, c.tuple)
		}
	}
	span.ArgInt("candidates", int64(len(sv.atoms)))
	if hit {
		span.Arg("cache", "hit")
	} else {
		span.Arg("cache", "miss")
	}
	span.ArgInt("decisions", sv.stats.Decisions)
	span.ArgInt("conflicts", sv.stats.Conflicts)
	if opts.Trace != nil || mt != nil || ex.prof != nil {
		engine := "segmentary"
		if brave {
			engine = "segmentary-brave"
		}
		ev := TraceEvent{
			Engine:       engine,
			Query:        qname,
			Signature:    slices.Clone(g.sig), // g.sig belongs to a shared plan
			SignatureKey: key,
			RequestID:    telemetry.RequestIDFromContext(ctx),
			Candidates:   len(sv.atoms),
			Atoms:        sv.numAtoms,
			Rules:        sv.rules,
			CacheHit:     hit,
			SolverReused: sv.reused,
			Stats:        sv.stats,
			Duration:     time.Since(start),
		}
		mt.recordProgram(ev)
		ex.prof.RecordSolve(key, g.sig, profile.Solve{
			Wall:         ev.Duration,
			Candidates:   ev.Candidates,
			Stats:        ev.Stats,
			CacheHit:     ev.CacheHit,
			SolverReused: ev.SolverReused,
		})
		if opts.Trace != nil {
			opts.Trace(ev)
		}
	}
	return out, nil
}

// solveSigReuse decides the group on the signature's persistent solver
// (see incremental.go). Candidates are memoized into the persistent
// program, and atoms the verdict memo already decides are answered from
// it. The rest go to one incremental session, whose activation literal
// scopes every query-local clause, so the solver — and everything it
// learned — survives for the next query; a group the memo decides
// entirely opens no session and spends no budget. The whole solve holds
// incMu, serializing concurrent queries over the same signature. Counters
// are reported as per-session deltas. A panic poisons the persistent
// solver before propagating, so a later query rebuilds it from the
// immutable base program.
func (ex *Exchange) solveSigReuse(ctx context.Context, sp *sigProgram, g *sigGroup, brave bool, opts *Options, mt *meters, scale int64) (sv *sigSolve) {
	sp.incMu.Lock()
	defer sp.incMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sp.poison()
			panic(r)
		}
	}()
	inc := sp.incSolverLocked(ex, mt)
	sv = &sigSolve{reused: inc.sessions > 0}
	w := inc.wireCandidates(g)
	sv.atoms, sv.live = w.atoms, w.live
	sv.rules = len(inc.spec.gp.Rules)
	sv.numAtoms = inc.spec.gp.NumAtoms()

	sv.holds = make(map[asp.AtomID]bool, len(sv.atoms))
	var pending []asp.AtomID // distinct atoms without a verdict, in group order
	for _, a := range sv.atoms {
		if _, seen := sv.holds[a]; seen {
			continue
		}
		holds, known := inc.verdicts[a].lookup(brave)
		sv.holds[a] = holds
		if !known {
			pending = append(pending, a)
		}
	}
	if len(pending) == 0 && len(sv.atoms) > 0 {
		// Every atom has a verdict, so an earlier session completed with a
		// stable model; the models never change. A done context still
		// fails the group, exactly as it would fail a session.
		sv.hasModel = true
		sv.canceled = ctx.Err() != nil
		if !sv.canceled {
			mt.recordMemoHits(len(sv.holds))
		}
		return sv
	}

	inc.sessions++
	mt.recordReuseSession(sv.reused)
	solver := inc.solver
	solver.SetContext(ctx)
	// Always re-arm: the budget is measured from here, and re-arming clears
	// the exhausted latch a previous query's cut-short session left behind.
	solver.SetBudget(opts.MaxDecisions*scale, opts.MaxConflicts*scale)
	solver.Acceptor = inc.spec.acceptorWithIndex(sp.idx, solver, mt.recordLearned)

	before := solver.Stats()
	sess := solver.StartSession(nil)
	var kept []asp.AtomID
	if brave {
		kept, sv.hasModel = sess.Brave(pending)
	} else {
		kept, sv.hasModel = sess.Cautious(pending)
	}
	sess.Close()

	sv.canceled = solver.Canceled()
	sv.exhausted = solver.Exhausted()
	sv.stats = solver.Stats().Sub(before)
	for _, a := range kept {
		sv.holds[a] = true
	}
	// Only a completed session decides its atoms exactly: a cut-short one
	// over-approximates (cautious) or under-approximates (brave).
	if sv.hasModel && !sv.canceled && !sv.exhausted {
		for _, a := range pending {
			inc.verdicts[a] = inc.verdicts[a].with(brave, sv.holds[a])
		}
		mt.recordMemoHits(len(sv.holds) - len(pending))
	}
	return sv
}

// safeCandidate reports whether some support set lies entirely in the safe
// part (the candidate then appears in every XR-solution).
func (ex *Exchange) safeCandidate(c *candidate) bool {
	for _, set := range c.supports {
		all := true
		for _, f := range set {
			if !ex.safeDerivable[f] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// signature appends to sig the clusters whose influences contain the
// candidate (Section 6.4), ascending and distinct, and to key their
// canonical key (the ids joined by commas). newPlan passes the same two
// buffers for every candidate.
func (ex *Exchange) signature(c *candidate, sig []int, key []byte) ([]int, []byte) {
	for _, set := range c.supports {
		for _, f := range set {
			sig = append(sig, ex.clustersOf[f]...)
		}
	}
	slices.Sort(sig)
	sig = slices.Compact(sig)
	for i, ci := range sig {
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(ci), 10)
	}
	return sig, key
}

// Repairs enumerates up to limit source repairs of the instance (0 = all)
// using the solver, without the exponential subset scan of SourceRepairs.
// Repairs are returned as source instances; the safe part appears in every
// repair, so enumeration effort is confined to the suspect envelope.
func (ex *Exchange) Repairs(limit int) ([]*instance.Instance, error) {
	return ex.RepairsOpts(limit, Options{})
}

// RepairsOpts is Repairs with per-call Options (context, timeout, tracing;
// enumeration is a single solver run, so Parallelism has no effect).
// A panic inside the enumeration is converted to an error matching
// ErrInternal instead of crashing the process.
func (ex *Exchange) RepairsOpts(limit int, opts Options) (repairs []*instance.Instance, err error) {
	defer recoverInternal("repairs", &err)
	start := time.Now()
	opts = opts.serialized()
	mt := ex.metersFor(&opts)
	ctx, cancel := opts.begin()
	defer cancel()

	// Variables only for the suspect part; everything safe is pinned.
	state := func(f chase.FactID) factState {
		if ex.safeDerivable[f] {
			return factTrue
		}
		return factVar
	}
	enc := newEncoder(ex.Prov, state)
	enc.build()
	solver := asp.NewStableSolver(enc.gp)
	solver.SetContext(ctx)
	solver.Acceptor = enc.maximalityAcceptor(solver)

	// Safe source facts belong to every repair.
	base := instance.New(ex.Prov.Instance.Catalog())
	n := ex.Prov.NumFacts()
	var srcVars []chase.FactID
	for id := 0; id < n; id++ {
		f := chase.FactID(id)
		if !ex.Prov.IsSource(f) {
			continue
		}
		if ex.safeDerivable[f] {
			base.AddFact(ex.Prov.Fact(f))
		} else {
			srcVars = append(srcVars, f)
		}
	}
	var out []*instance.Instance
	solver.Enumerate(func(m []bool) bool {
		rep := base.Clone()
		for _, f := range srcVars {
			if a, ok := enc.r[f]; ok && m[a] {
				rep.AddFact(ex.Prov.Fact(f))
			}
		}
		out = append(out, rep)
		return limit == 0 || len(out) < limit
	})
	if solver.Canceled() {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("xr: repairs: %w", err)
		}
	}
	mt.recordRepairs(len(out))
	if opts.Trace != nil || mt != nil {
		ev := TraceEvent{
			Engine:     "repairs",
			RequestID:  telemetry.RequestIDFromContext(ctx),
			Candidates: len(srcVars),
			Atoms:      enc.gp.NumAtoms(),
			Rules:      len(enc.gp.Rules),
			Stats:      solver.Stats(),
			Duration:   time.Since(start),
		}
		mt.recordProgram(ev)
		if opts.Trace != nil {
			opts.Trace(ev)
		}
	}
	return out, nil
}
