package xr

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/faultkit"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// This file pins the query-plan cache (DESIGN.md §9.3). A plan serves
// every later ask of its query, in either semantics and under any name,
// and nothing that discards state behind a plan changes an answer: a
// persistent solver poisoned by a panic, a signature program evicted as
// corrupt, or the plan itself evicted.

// evictAllPlans empties ex's plan cache, as an eviction of every plan
// would. Asks already holding a plan keep it.
func evictAllPlans(ex *Exchange) {
	ex.planMu.Lock()
	defer ex.planMu.Unlock()
	for ex.planLRU.Len() > 0 {
		ex.dropPlanLocked(ex.planLRU.Back().Value.(*planEntry))
	}
}

// eachSigProgram calls fn on every cached signature program, holding the
// program's incMu.
func eachSigProgram(ex *Exchange, fn func(*sigProgram)) {
	ex.progMu.Lock()
	sps := make([]*sigProgram, 0, len(ex.progCache))
	for _, sp := range ex.progCache {
		sps = append(sps, sp)
	}
	ex.progMu.Unlock()
	for _, sp := range sps {
		sp.incMu.Lock()
		fn(sp)
		sp.incMu.Unlock()
	}
}

// forget empties what a persistent solver remembers of its sessions
// besides learned clauses: the verdict memo and the stored witness
// models. The next ask of each of its groups then runs a session.
func (inc *incSolver) forget() {
	clear(inc.verdicts)
	inc.models, inc.oldest = nil, 0
}

// poisonAllSolvers sabotages every persistent solver the way
// TestPoisonedSolverPanicRebuilds does one: the next session on each
// panics, and no verdict or stored model spares a group that session.
func poisonAllSolvers(ex *Exchange) {
	eachSigProgram(ex, func(sp *sigProgram) {
		if sp.inc != nil {
			sp.inc.solver = nil
			sp.inc.forget()
		}
	})
}

// forgetVerdicts empties the verdict memo and the stored models of every
// persistent solver, so the next ask of every group runs a session.
func forgetVerdicts(ex *Exchange) {
	eachSigProgram(ex, func(sp *sigProgram) {
		if sp.inc != nil {
			sp.inc.forget()
		}
	})
}

// requireSameExceptCacheHits compares answers, Unknown sets and every stat
// but CacheHits, which counts a miss for each signature program an ask
// found missing: the first ask to reach a program, or the rebuild after a
// CacheCorrupt eviction.
func requireSameExceptCacheHits(t *testing.T, label string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.Stats.CacheHits, g.Stats.CacheHits = 0, 0
	requireCrossModeResult(t, label, &w, &g)
	requireSameUnknown(t, label, &w, &g)
}

// TestPlanCacheLongLived serves every query of each scenario (genome S3
// and M3 at scale 0.1, random weakly-acyclic mappings) from one long-lived
// Exchange, warm, as Answer and Possible at Parallelism 1, 4 and 8, after
// each of: nothing (plan hits), every persistent solver poisoned, a mix
// of asks under CacheCorrupt faults that evict signature programs, and
// every plan evicted. Every warm result must equal the fresh reference.
func TestPlanCacheLongLived(t *testing.T) {
	var hits, rebuilt int64
	for si, sc := range memoScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			h, r := runPlanMix(t, sc, uint64(si))
			hits += h
			rebuilt += r
		})
	}
	if hits == 0 {
		t.Fatal("no ask was served from a plan")
	}
	if rebuilt == 0 {
		t.Fatal("no persistent solver was rebuilt under a cached plan")
	}
}

// runPlanMix drives one scenario and returns its plan hits and the
// solvers built after the first warm round: each wires again the plan
// groups that reach it.
func runPlanMix(t *testing.T, sc memoScenario, seed uint64) (hits, rebuilt int64) {
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(sc.m, sc.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	type refKey struct {
		query string
		brave bool
	}
	want := map[refKey]*Result{}
	reference := func(q *logic.UCQ, brave bool) *Result {
		k := refKey{q.Name, brave}
		if want[k] == nil {
			want[k] = freshResult(t, ref, q, brave, 1)
		}
		return want[k]
	}
	check := func(label string, q *logic.UCQ, brave bool, opts Options) {
		t.Helper()
		res, err := ex.query(q, brave, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		f := reference(q, brave)
		if opts.FaultHook != nil {
			requireSameExceptCacheHits(t, label, f, res)
			return
		}
		requireCrossModeResult(t, label, f, res)
		requireSameUnknown(t, label, f, res)
	}
	warm := func(round string) {
		t.Helper()
		for _, q := range sc.queries {
			for _, brave := range []bool{false, true} {
				for _, par := range []int{1, 4, 8} {
					check(fmt.Sprintf("%s %s brave=%v par=%d", round, q.Name, brave, par), q, brave, Options{Parallelism: par})
				}
			}
		}
	}
	// A cold pass caches every signature program on both exchanges, with
	// the same history, so CacheHits agree from here on; its reference
	// results carry cold cache counts and are dropped.
	for _, q := range sc.queries {
		check("cold "+q.Name, q, false, Options{Parallelism: 1})
	}
	clear(want)
	builds := reg.Counter("xr_solver_reuse_builds_total")
	warm("warm")
	afterWarm := builds.Value()

	poisonAllSolvers(ex)
	for _, q := range sc.queries {
		// Each sabotaged signature a query reaches panics, degrades and
		// poisons its solver; the warm round rebuilds them.
		res, err := ex.query(q, false, Options{Parallelism: 4, Partial: true})
		if err != nil {
			t.Fatalf("poisoning ask %s: %v", q.Name, err)
		}
		assertSoundPartial(t, tupleStrings(reference(q, false)), res)
	}
	warm("after poison")

	inj := faultkit.New(seed, faultkit.Fault{Kind: faultkit.CacheCorrupt, Rate: 0.5})
	for _, q := range sc.queries {
		for _, brave := range []bool{false, true} {
			check(fmt.Sprintf("cache-corrupt %s brave=%v", q.Name, brave), q, brave, Options{Parallelism: 4, FaultHook: inj.Hook()})
		}
	}
	warm("after cache-corrupt")

	evictAllPlans(ex)
	warm("after plan eviction")
	return reg.Counter("xr_query_plan_hits_total").Value(), builds.Value() - afterWarm
}

// TestPlanCacheConcurrentCorruption asks the same queries from four
// goroutines at once under CacheCorrupt faults, so asks holding a
// signature program that another ask has just evicted wire the same plan
// group as asks on its replacement: two incMus over one group. Run under
// -race; every answer must equal the fresh reference.
func TestPlanCacheConcurrentCorruption(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := genome.ProfileByName("M3", 0.1)
	src := genome.Generate(world, p)
	ex, err := NewExchange(world.M, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(world.M, src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = tupleStrings(freshResult(t, ref, q, false, 1))
	}
	inj := faultkit.New(5, faultkit.Fault{Kind: faultkit.CacheCorrupt, Rate: 0.5})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i, q := range queries {
					opts := Options{Parallelism: 1 + (w+pass)%4}
					if (w+pass)%2 == 0 {
						opts.FaultHook = inj.Hook()
					}
					res, err := ex.AnswerOpts(q, opts)
					if err != nil {
						errs <- fmt.Errorf("worker %d pass %d %s: %w", w, pass, q.Name, err)
						return
					}
					if got := tupleStrings(res); join(got) != join(want[i]) {
						errs <- fmt.Errorf("worker %d pass %d %s: answers differ from the fresh reference", w, pass, q.Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if inj.Fired(faultkit.CacheCorrupt) == 0 {
		t.Fatal("vacuous run: no CacheCorrupt fault fired")
	}
}

// renamed returns q under another name with every variable renamed, as a
// client would send the same query inline.
func renamed(q *logic.UCQ) *logic.UCQ {
	out := &logic.UCQ{Name: "inline_" + q.Name, Arity: q.Arity}
	names := map[string]string{}
	term := func(t logic.Term) logic.Term {
		if !t.IsVar() {
			return t
		}
		if names[t.Var] == "" {
			names[t.Var] = fmt.Sprintf("w%d_%s", len(names), strings.ToUpper(t.Var))
		}
		return logic.V(names[t.Var])
	}
	for _, c := range q.Clauses {
		var nc logic.CQ
		for _, h := range c.Head {
			nc.Head = append(nc.Head, term(h))
		}
		for _, a := range c.Body {
			na := logic.Atom{Rel: a.Rel}
			for _, at := range a.Terms {
				na.Terms = append(na.Terms, term(at))
			}
			nc.Body = append(nc.Body, na)
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

// TestPlanSharedAcrossNamesAndSemantics: a query sent under another name
// with other variable names, and the same query asked for its possible
// answers, are served by the plan its first certain ask built.
func TestPlanSharedAcrossNamesAndSemantics(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := genome.ProfileByName("S3", 0.1)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(world.M, genome.Generate(world, p), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter("xr_query_plan_hits_total")
	for _, q := range queries {
		if _, err := ex.Answer(q); err != nil { // builds the plan
			t.Fatal(err)
		}
		first, err := ex.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		before := hits.Value()
		inline := renamed(q)
		res, err := ex.Answer(inline)
		if err != nil {
			t.Fatal(err)
		}
		if hits.Value() != before+1 {
			t.Fatalf("%s asked as %s missed the plan", q.Name, inline.Name)
		}
		if res.Query != inline {
			t.Fatalf("%s: result names query %s, want the caller's", inline.Name, res.Query.Name)
		}
		requireCrossModeResult(t, inline.Name, first, res)
		if _, err := ex.Possible(q); err != nil {
			t.Fatal(err)
		}
		if hits.Value() != before+2 {
			t.Fatalf("%s: Possible after Answer missed the plan", q.Name)
		}
	}
	ex.planMu.Lock()
	n := len(ex.plans)
	ex.planMu.Unlock()
	if n != len(queries) {
		t.Fatalf("%d plans cached for %d distinct queries", n, len(queries))
	}
}

// TestPlanCacheEvictsPastCap: distinct queries past the cache's byte
// bound evict the least recently used plans, move the eviction counter,
// keep the cache within the bound, and change no answer.
func TestPlanCacheEvictsPastCap(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := genome.ProfileByName("S3", 0.1)
	src := genome.Generate(world, p)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(world.M, src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(world.M, src)
	if err != nil {
		t.Fatal(err)
	}
	// Size the bound to hold the three largest plans, not all eleven.
	var sizes []int64
	for _, q := range queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ex.newPlan(collectCandidates(rq, ex.Prov)).bytes()+int64(len(planKey(rq))))
	}
	slices.Sort(sizes)
	n := len(sizes)
	ex.planCap = sizes[n-1] + sizes[n-2] + sizes[n-3]

	evictions := reg.Counter("xr_query_plan_evictions_total")
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			inline := renamed(q)
			inline.Name = fmt.Sprintf("inline%d_%s", pass, q.Name)
			res, err := ex.Answer(inline)
			if err != nil {
				t.Fatal(err)
			}
			requireCrossModeResult(t, inline.Name, freshResult(t, ref, q, false, 4), res)
			ex.planMu.Lock()
			size, held := ex.planBytes, len(ex.plans)
			ex.planMu.Unlock()
			if size > ex.planCap {
				t.Fatalf("%s: plan cache holds %d bytes, bound %d", inline.Name, size, ex.planCap)
			}
			if held > len(queries)-1 {
				t.Fatalf("%s: %d plans held under a bound smaller than the suite", inline.Name, held)
			}
		}
	}
	if evictions.Value() == 0 {
		t.Fatal("xr_query_plan_evictions_total did not move past the bound")
	}
}

// TestPlanBuiltOnce: concurrent first asks of one query build its plan
// once; every other ask is a hit on it.
func TestPlanBuiltOnce(t *testing.T) {
	w, q := conflictFarm(12)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const askers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*Result, askers)
	errs := make([]error, askers)
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = ex.query(q, i%2 == 1, Options{Parallelism: 2})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("asker %d: %v", i, err)
		}
	}
	if got := reg.Counter("xr_query_plan_hits_total").Value(); got != askers-1 {
		t.Fatalf("%d plan hits for %d concurrent first asks, want %d (one build)", got, askers, askers-1)
	}
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		requireSameExceptCacheHits(t, fmt.Sprintf("asker %d", i), freshResult(t, fresh, q, i%2 == 1, 1), res)
	}
}

// TestPlanBuildPanicNotStored: a plan build that panics leaves no plan
// behind, so the next ask builds it again and answers exactly.
func TestPlanBuildPanicNotStored(t *testing.T) {
	w, q := conflictFarm(6)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	prov := ex.Prov
	ex.Prov = nil // candidate collection dereferences it
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the sabotaged build did not panic")
			}
		}()
		_, _ = ex.Answer(q)
	}()
	ex.Prov = prov
	if len(ex.plans) != 0 || ex.planLRU.Len() != 0 || ex.planBytes != 0 {
		t.Fatalf("a panicked build left %d plans (%d bytes)", len(ex.plans), ex.planBytes)
	}
	hits := reg.Counter("xr_query_plan_hits_total")
	res, err := ex.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 0 {
		t.Fatal("the ask after a panicked build hit a plan")
	}
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	requireCrossModeResult(t, "after panic", freshResult(t, fresh, q, false, 1), res)
	if _, err := ex.Answer(q); err != nil || hits.Value() != 1 {
		t.Fatalf("repeat: err %v, %d plan hits, want 1", err, hits.Value())
	}
}

// TestPlanNotAliased: what a caller receives — answer tuples, Unknown
// tuples, trace-event signatures — is its own copy. Scribbling over it
// changes no later ask.
func TestPlanNotAliased(t *testing.T) {
	w, q := conflictFarm(6)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(res *Result) {
		for _, set := range []*cq.AnswerSet{res.Answers, res.Unknown} {
			if set == nil {
				continue
			}
			for _, tuple := range set.Tuples() {
				for i := range tuple {
					tuple[i] = 0
				}
			}
		}
	}
	opts := Options{Parallelism: 4, Trace: func(ev TraceEvent) {
		for i := range ev.Signature {
			ev.Signature[i] = -1
		}
	}}
	// The first ask, on a one-decision budget, builds the plan and
	// degrades the conflicted groups: their plan tuples reach the caller
	// through Unknown.
	partial, err := ex.AnswerOpts(q, Options{MaxDecisions: 1, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Stats.UnknownTuples == 0 {
		t.Fatal("the budgeted ask degraded nothing")
	}
	scribble(partial)
	for pass := 0; pass < 3; pass++ {
		res, err := ex.AnswerOpts(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameExceptCacheHits(t, fmt.Sprintf("pass %d", pass), freshResult(t, fresh, q, false, 1), res)
		scribble(res)
	}
	var evs []TraceEvent
	if _, err := ex.AnswerOpts(q, Options{Trace: func(ev TraceEvent) { evs = append(evs, ev) }}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if got := sigKey(ev.Signature); got != ev.SignatureKey {
			t.Fatalf("trace event signature %v, want {%s}", ev.Signature, ev.SignatureKey)
		}
	}
}

// sigKey renders a signature as its canonical key.
func sigKey(sig []int) string {
	parts := make([]string, len(sig))
	for i, ci := range sig {
		parts[i] = fmt.Sprint(ci)
	}
	return strings.Join(parts, ",")
}
