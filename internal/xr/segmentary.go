package xr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
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
	// safeDerivable marks, per FactID, the facts derivable without any
	// suspect source fact; this is I_safe ∪ J_safe computed on the support
	// hypergraph.
	safeDerivable []bool
	// clustersOf maps each fact to the (sorted) clusters whose influence
	// contains it.
	clustersOf map[chase.FactID][]int

	// state owns the query phase's signature programs and query plans
	// (state.go).
	state queryState

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
		clustersOf: make(map[chase.FactID][]int),
		state:      queryState{programs: stateTable{}, plans: stateTable{}, cap: maxQueryStateBytes},
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
	owner := make(map[chase.FactID]int) // suspect source fact (Definition 5) -> first violation seen
	suspect := make([]bool, prov.NumFacts())
	for vi, v := range prov.Violations {
		closure := prov.SupportClosure(v.Body)
		var srcEnv []chase.FactID
		for f := range closure {
			if prov.IsSource(f) {
				srcEnv = append(srcEnv, f)
				suspect[f] = true
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

	ex.safeDerivable = prov.SafeDerivable(suspect)
	safe := 0
	for _, ok := range ex.safeDerivable {
		if ok {
			safe++
		}
	}

	end := time.Now()
	ex.Stats = ExchangeStats{
		SourceFacts:    src.Len(),
		TotalFacts:     prov.NumFacts(),
		Violations:     len(prov.Violations),
		Clusters:       len(ex.Clusters),
		SuspectSource:  len(owner),
		SafeDerivable:  safe,
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
func (ex *Exchange) SuspectSourceFacts() int { return ex.Stats.SuspectSource }

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
// Exchange), decide one program per signature (cautious for certain
// answers, brave for possible answers), and assemble the answers in plan
// order. A group the verdict memo decides entirely is decided in place, on
// the calling goroutine; only the groups that may search become jobs,
// which fan out across a bounded worker pool and the lanes the context
// carries.
//
// Results are deterministic at any parallelism: answers are assembled in
// candidate order whatever order the groups finish in, and every per-group
// stat is a pure function of the group, so totals agree with the
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
		// plan does not keep for the safe ones: collect them afresh, keeping
		// every set.
		plan, cands = ex.newPlan(collect(rq, ex.Prov, ex.safeDerivable, true))
	} else {
		plan = ex.planFor(rq, mt)
	}
	groups := plan.groups
	a := &ask{brave: brave, opts: &opts, mt: mt, qname: q.Name, parent: qspan.ID()}
	tasks := make([]sigTask, len(groups))
	for i, g := range groups {
		tasks[i] = sigTask{g: g, scale: 1}
	}
	outcomes := make([]groupOutcome, len(groups))
	jobs, ferr := ex.decideInPlace(ctx, a, tasks, outcomes)

	// Solve the other groups, fanning out across the pool. With
	// Options.Explain, each worker also runs the deterministic explanation
	// pass for its group right after deciding it (results are slotted by
	// group index, so parallel order never shows); an explain ask's plan
	// is its own, never wired, so every group is a job.
	var groupExpl [][]*explain.Explanation
	if opts.Explain {
		groupExpl = make([][]*explain.Explanation, len(groups))
	}
	if ferr == nil {
		ferr = forEachWorker(ctx, opts.workers(), len(jobs), func(ctx context.Context, worker, j int) error {
			i := jobs[j]
			g := groups[i]
			out, err := ex.solveSig(ctx, a, &tasks[i], false, worker)
			if err != nil {
				return err
			}
			if opts.Explain {
				espan := opts.Tracer.StartSpan(qspan.ID(), "explain {"+g.key+"}")
				espan.SetLane(worker)
				es, err := ex.explainGroup(ctx, a, g, &out)
				espan.End()
				if err != nil {
					return err
				}
				groupExpl[i] = es
			}
			outcomes[i] = out
			return nil
		})
	}
	if ferr != nil {
		return nil, fmt.Errorf("xr: query %s: %w", q.Name, ferr)
	}
	res.assemble(plan, outcomes)
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

// ask is what every signature group of one query call shares.
type ask struct {
	brave  bool
	opts   *Options
	mt     *meters
	qname  string
	parent telemetry.SpanID // the query span
}

// sigTask is one signature group's decision within an ask. An in-place
// attempt that hands its group to a job leaves in it where the job
// resumes.
type sigTask struct {
	g       *sigGroup
	scale   int64 // budget and timeout multiplier of the attempt: 1, then 2 on the retry
	retries int
	// evicted marks an attempt whose cache site an in-place attempt has
	// already fired, evicting the cached program: the job fetches the
	// replacement without firing the site again.
	evicted bool
}

// errToJob is how an in-place attempt reports that its group needs a
// solver job. It never leaves the query phase.
var errToJob = errors.New("xr: signature group needs a solver job")

// decideInPlace runs the in-place attempt of every group the greedy
// repairs decide entirely under the semantics, or that they were asked
// about and that has a published wiring, in plan order on the calling
// goroutine, without a lane, a worker or a per-signature span, and
// records one "memo" span over the groups it decided. It returns the
// indexes of the other groups, the jobs, in plan order. The first group
// that fails stops the pass, as a failed job stops the pool. A group no
// job has decided under the semantics, as on a cold ask, costs one atomic
// load.
func (ex *Exchange) decideInPlace(ctx context.Context, a *ask, tasks []sigTask, outcomes []groupOutcome) (jobs []int, err error) {
	start := time.Now()
	var decided, atoms int
	for i := range tasks {
		t := &tasks[i]
		if d := t.g.decided(a.brave).Load(); d == nil || !d.complete && t.g.wired.Load() == nil {
			jobs = append(jobs, i)
			continue
		}
		if ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		out, err := ex.solveSig(ctx, a, t, true, 0)
		switch {
		case err == errToJob:
			jobs = append(jobs, i)
		case err != nil:
			return nil, err
		default:
			outcomes[i] = out
			decided++
			atoms += out.memoHits + out.greedy
		}
	}
	if decided > 0 {
		a.opts.Tracer.AddSpan(a.parent, "memo", 0, start, time.Since(start),
			telemetry.SpanArg{Key: "atoms", Value: strconv.Itoa(atoms)},
			telemetry.SpanArg{Key: "groups", Value: strconv.Itoa(decided)})
	}
	return jobs, nil
}

// assemble records the plan's candidate count and folds the groups'
// outcomes into the result, in plan order, then builds Answers from the
// plan's safe tuples and the accepted group candidates, and Unknown from
// the degraded groups' candidates.
func (res *Result) assemble(p *queryPlan, outcomes []groupOutcome) {
	res.Stats.Candidates = p.candidates
	res.Stats.SafeAccepted = p.nsafe
	var accepted, unknown []*candidate
	for _, out := range outcomes {
		res.Stats.Retries += out.retries
		if out.degraded != nil {
			res.Degraded = append(res.Degraded, *out.degraded)
			unknown = append(unknown, out.unknown...)
			res.Stats.DegradedSignatures++
			res.Stats.UnknownTuples += len(out.unknown)
			continue
		}
		accepted = append(accepted, out.accepted...)
		res.Stats.SolverAccepted += len(out.accepted)
		res.Stats.Programs++
		if out.cacheHit {
			res.Stats.CacheHits++
		}
	}
	res.Answers = cq.SortedAnswerSet(mergeTuples(p.safe, p.nsafe, accepted))
	if res.Unknown != nil {
		res.Unknown = cq.SortedAnswerSet(mergeTuples(nil, 0, unknown))
	}
}

// mergeTuples returns n packed tuples, sorted in key order, merged with
// the tuples of cands, candidates of one plan: copies, all in one backing
// array, in key order. Candidates are collected in key order, so sorting
// cands by rank sorts their tuples; a plan's safe candidates and its
// groups' candidates are disjoint, so the merge meets no duplicate.
func mergeTuples(packed []symtab.Value, n int, cands []*candidate) [][]symtab.Value {
	if n+len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(a, b *candidate) int { return cmp.Compare(a.rank, b.rank) })
	arity := 0
	if n > 0 {
		arity = len(packed) / n // 0 for a boolean query's empty tuple
	}
	size := len(packed)
	for _, c := range cands {
		size += len(c.tuple)
	}
	vals := make([]symtab.Value, 0, size)
	out := make([][]symtab.Value, 0, n+len(cands))
	push := func(t []symtab.Value) {
		k := len(vals)
		vals = append(vals, t...)
		out = append(out, vals[k:len(vals):len(vals)])
	}
	next := 0
	for _, c := range cands {
		for ; next < n && cq.CompareTuples(packed[next*arity:(next+1)*arity], c.tuple) < 0; next++ {
			push(packed[next*arity : (next+1)*arity])
		}
		push(c.tuple)
	}
	for ; next < n; next++ {
		push(packed[next*arity : (next+1)*arity])
	}
	return out
}

// groupOutcome is the result of deciding one signature group, folded into
// the Result after all groups finish.
type groupOutcome struct {
	accepted []*candidate // the group's candidates that hold, in group order
	cacheHit bool
	retries  int
	memoHits int // distinct atoms the verdict memo decided
	greedy   int // distinct atoms the greedy repairs decided

	// degraded marks a group that could not be decided within its budget
	// under Options.Partial; unknown holds its candidates, reported as
	// unknown instead of being accepted or rejected.
	degraded *SignatureError
	unknown  []*candidate
}

// solveSig decides one signature group with graceful degradation: run one
// attempt, and on a per-signature failure (budget exhaustion, signature
// timeout, panic, injected fault) either retry once with a doubled budget
// and then degrade the group to unknown (Options.Partial), or fail the
// query (strict mode). A parent-context cancellation is never degradable —
// the whole query is ending — and always propagates. In place, an attempt
// that needs a solver session returns errToJob, and the group's job goes
// on from where t says.
func (ex *Exchange) solveSig(ctx context.Context, a *ask, t *sigTask, inPlace bool, lane int) (groupOutcome, error) {
	g := t.g
	for {
		out, err := ex.solveSigAttempt(ctx, a, t, inPlace, lane)
		if err == nil {
			out.retries = t.retries
			return out, nil
		}
		if err == errToJob {
			return groupOutcome{}, err
		}
		if perr := ctxErr(ctx); perr != nil {
			return groupOutcome{}, perr
		}
		if a.opts.Partial && t.retries == 0 && retryableSigErr(err) {
			t.retries, t.scale = 1, 2
			a.mt.recordRetry()
			ex.prof.Record(g.key, g.sig, profile.Counters{Retries: 1})
			continue
		}
		if !a.opts.Partial {
			return groupOutcome{}, fmt.Errorf("signature {%s}: %w", g.key, err)
		}
		ex.prof.Record(g.key, g.sig, profile.Counters{Degraded: 1})
		return groupOutcome{
			retries:  t.retries,
			degraded: &SignatureError{Signature: g.key, Tuples: len(g.cands), Retries: t.retries, Err: err},
			unknown:  g.cands,
		}, nil
	}
}

// retryableSigErr reports whether a per-signature failure may succeed with
// a doubled budget: exhausted decision/conflict budgets and expired
// signature timeouts qualify, panics and injected faults do not.
func retryableSigErr(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrTimeout)
}

// sigSolve is the outcome of deciding one signature group: how many of
// its candidates have a covered support set (the live ones), those that
// hold, the program size, the solver's termination state, and the
// session's work counters (zero when the greedy repairs and the verdict
// memo decided the whole group and no session ran).
type sigSolve struct {
	candidates int
	accepted   []*candidate
	memo       bool // decided without a session
	memoHits   int  // distinct atoms the verdict memo decided
	greedy     int  // distinct atoms the greedy repairs decided
	hasModel   bool
	rules      int
	numAtoms   int

	canceled  bool
	exhausted bool
	reused    bool      // served by an already-built persistent solver
	stats     asp.Stats // per-session deltas on the persistent solver
}

// solveSigAttempt decides one signature group once: fetch (or build) the
// cached base program and run cautious or brave reasoning on the
// signature's persistent incremental solver under the per-signature budget
// scaled by t.scale. Panics are converted to *InternalError (the worker
// pool must never crash the process); a panic inside the solver session
// also poisons the persistent solver, so the next query rebuilds it.
//
// In place, the attempt first reads the group's published greedy
// decision, or asks decideFromMemo for one, and returns errToJob if there
// is none; it then opens no span but goes through the same fault sites,
// done-context check and records as a job.
func (ex *Exchange) solveSigAttempt(ctx context.Context, a *ask, t *sigTask, inPlace bool, lane int) (out groupOutcome, err error) {
	g, opts := t.g, a.opts
	key := g.key
	defer recoverInternal("segmentary signature {"+key+"}", &err)
	start := time.Now()
	var span *telemetry.ActiveSpan
	var sp *sigProgram
	var sv sigSolve
	hit := true
	if inPlace {
		if d := g.decided(a.brave).Load(); d != nil && d.complete {
			sv = d.solve() // no program is read: the decision outlives it
		} else {
			var ok bool
			if sp, sv, ok = ex.decideFromMemo(g, a.brave); !ok {
				return out, errToJob
			}
		}
	} else {
		span = opts.Tracer.StartSpan(a.parent, "signature {"+key+"}")
		span.SetLane(lane)
		span.Arg("signature", key)
		if t.scale > 1 {
			span.ArgInt("attempt", t.scale)
		}
		defer span.End()
		sp, hit = ex.sigProgramFor(key, g.sig, a.mt)
	}
	if opts.SignatureTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.SignatureTimeout*time.Duration(t.scale))
		defer cancel()
	}
	if t.evicted {
		t.evicted = false // sp is the replacement of the program evicted in place
	} else if hit && opts.FaultHook != nil {
		if herr := opts.FaultHook(faultSiteCache, key); herr != nil {
			// The cached entry is reported corrupt: drop it and rebuild from
			// the (immutable) exchange, losing only learned clauses. Only a
			// job builds a program.
			if sp == nil {
				sp = ex.state.program(key) // a greedy decision read in place holds none
			}
			ex.state.evict(ex.state.programs, key, sp)
			if inPlace {
				t.evicted = true
				return out, errToJob
			}
			sp, hit = ex.sigProgramFor(key, g.sig, a.mt)
		}
	}
	if opts.FaultHook != nil {
		if herr := opts.FaultHook(faultSiteGround, key); herr != nil {
			return out, fmt.Errorf("grounding signature program: %w", herr)
		}
		if herr := opts.FaultHook(faultSiteSolve, key); herr != nil {
			return out, fmt.Errorf("solving signature program: %w", herr)
		}
	}
	if !inPlace {
		sv = ex.solveSigReuse(ctx, sp, g, a.brave, opts, a.mt, t.scale)
	}
	if sv.memo {
		// Every atom was decided by a greedy repair or a verdict, so the
		// program has a stable model, and its models never change. A done context still fails the group, exactly as it
		// would fail a session.
		sv.canceled = ctx.Err() != nil
	}
	// A cut-short session must be discarded: cautious narrowing
	// over-approximates and brave marking under-approximates when the
	// solver stops early.
	if sv.canceled {
		if err := ctxErr(ctx); err != nil {
			return out, err
		}
		return out, ErrCanceled
	}
	if sv.exhausted {
		// Budget cutoffs are deterministic DPLL counters, so this record —
		// unlike a wall-clock timeout — aggregates identically at any
		// Parallelism.
		ex.prof.Record(key, g.sig, profile.Counters{BudgetExhausted: 1})
		return out, ErrBudget
	}
	if !sv.hasModel {
		return out, fmt.Errorf("internal error: signature program has no stable model")
	}

	out = groupOutcome{accepted: sv.accepted, cacheHit: hit, memoHits: sv.memoHits, greedy: sv.greedy}
	a.mt.recordMemoHits(sv.memoHits)
	a.mt.recordGreedyDecided(sv.greedy)
	span.ArgInt("candidates", int64(sv.candidates))
	if hit {
		span.Arg("cache", "hit")
	} else {
		span.Arg("cache", "miss")
	}
	span.ArgInt("decisions", sv.stats.Decisions)
	span.ArgInt("conflicts", sv.stats.Conflicts)
	if opts.Trace != nil || a.mt != nil || ex.prof != nil {
		engine := "segmentary"
		if a.brave {
			engine = "segmentary-brave"
		}
		ev := TraceEvent{
			Engine:       engine,
			Query:        a.qname,
			Signature:    slices.Clone(g.sig), // g.sig belongs to a shared plan
			SignatureKey: key,
			RequestID:    telemetry.RequestIDFromContext(ctx),
			Candidates:   sv.candidates,
			Atoms:        sv.numAtoms,
			Rules:        sv.rules,
			CacheHit:     hit,
			SolverReused: sv.reused,
			Stats:        sv.stats,
			Duration:     time.Since(start),
		}
		a.mt.recordProgram(ev)
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

// decideFromMemo decides a group from the verdict memo without waiting for
// its signature's solver. It returns the group's program and decision,
// and false — the group is a job — unless the group's published wiring
// was made on the signature's live persistent solver, no job holds that
// solver, and every wired atom has a verdict under the semantics.
func (ex *Exchange) decideFromMemo(g *sigGroup, brave bool) (*sigProgram, sigSolve, bool) {
	w := g.wired.Load()
	if w == nil {
		return nil, sigSolve{}, false
	}
	sp := ex.state.program(g.key)
	if sp == nil || !sp.incMu.TryRLock() {
		return nil, sigSolve{}, false
	}
	defer sp.incMu.RUnlock()
	if sp.inc == nil || sp.inc.id != w.solver {
		return nil, sigSolve{}, false
	}
	sv, ok := sp.inc.memoSolve(w, brave)
	return sp, sv, ok
}

// solveSigReuse decides the group from the program's greedy repairs
// (greedy.go) and, when they leave some candidate open, on the
// signature's persistent solver (see incremental.go). A group the greedy
// repairs decide entirely builds no solver and takes no lock. Otherwise
// candidates are memoized into the persistent program, atoms the verdict
// memo already decides are answered from it, and then atoms the greedy
// repairs decide. The rest go to one incremental session, whose
// activation literal scopes every query-local clause, so the solver — and
// everything it learned — survives for the next query. A group decided
// without a session spends no budget. A context that ends while the
// greedy repairs are evaluated cancels the group. The solver's part
// holds incMu, serializing concurrent queries over the same signature.
// Counters are reported as per-session deltas. A panic poisons the
// persistent solver before propagating, so a later query rebuilds it from
// the immutable base program.
func (ex *Exchange) solveSigReuse(ctx context.Context, sp *sigProgram, g *sigGroup, brave bool, opts *Options, mt *meters, scale int64) (sv sigSolve) {
	d, ok := sp.greedyDecision(ctx, g, brave)
	switch {
	case !ok:
		return sigSolve{canceled: true}
	case d.complete:
		return d.solve()
	}
	sp.incMu.Lock()
	defer sp.incMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sp.poison()
			panic(r)
		}
	}()
	size := sp.bytes()
	inc := sp.incSolverLocked(ex, mt)
	w := inc.wireCandidates(g)
	if grown := sp.bytes(); grown != size {
		ex.state.resize(ex.state.programs, g.key, sp, grown, mt)
	}
	if sv, ok := inc.memoSolve(w, brave); ok {
		return sv
	}
	sv = sigSolve{
		candidates: len(w.atoms),
		greedy:     inc.learnGreedy(w, d.verdicts, brave),
		reused:     inc.sessions > 0,
		rules:      inc.spec.gp.NumRules(),
		numAtoms:   inc.spec.gp.NumAtoms(),
	}
	holds := make(map[asp.AtomID]bool, len(w.atoms))
	var pending []asp.AtomID // distinct atoms without a verdict, in group order
	for _, a := range w.atoms {
		if _, seen := holds[a]; seen {
			continue
		}
		h, known := inc.verdicts[a].lookup(brave)
		holds[a] = h
		if !known {
			pending = append(pending, a)
		}
	}
	sv.memoHits = len(holds) - len(pending) - sv.greedy
	if len(pending) == 0 && sv.greedy > 0 {
		sv.memo, sv.hasModel = true, true
		sv.accepted = acceptedOf(w, holds)
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
	// Only a completed session decides its atoms exactly: a cut-short one
	// over-approximates (cautious) or under-approximates (brave).
	if !sv.hasModel || sv.canceled || sv.exhausted {
		return sv
	}
	for _, a := range kept {
		holds[a] = true
	}
	for _, a := range pending {
		inc.verdicts[a] = inc.verdicts[a].with(brave, holds[a])
	}
	sv.accepted = acceptedOf(w, holds)
	return sv
}

// acceptedOf returns the group's live candidates whose atoms hold, in
// group order.
func acceptedOf(w *groupWiring, holds map[asp.AtomID]bool) []*candidate {
	var accepted []*candidate
	for i, c := range w.live {
		if holds[w.atoms[i]] {
			accepted = append(accepted, c)
		}
	}
	return accepted
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
	enc := wholeEncoder(ex.Prov, ex.safeDerivable)
	solver := asp.NewStableSolver(enc.gp)
	solver.SetContext(ctx)
	solver.Acceptor = enc.maximalityAcceptor(solver)

	// Safe source facts belong to every repair.
	base := instance.New(ex.Prov.Instance.Catalog())
	for f := chase.FactID(0); ex.Prov.IsSource(f); f++ {
		if ex.safeDerivable[f] {
			base.AddFact(ex.Prov.Fact(f))
		}
	}
	srcVars := enc.vars[:enc.sources]
	var out []*instance.Instance
	solver.Enumerate(func(m []bool) bool {
		rep := base.Clone()
		for l, f := range srcVars {
			if m[enc.r[l]] {
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
			Rules:      enc.gp.NumRules(),
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
