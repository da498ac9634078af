package xr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/faultkit"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// This file pins the query state (DESIGN.md §9.3). A plan serves every
// later ask of its query, in either semantics and under any name, and
// nothing that discards state behind a plan changes an answer: a
// persistent solver poisoned by a panic, a signature program evicted as
// corrupt or past the bound, a build that panicked, or the plan itself
// evicted.

// evictAll empties ex's query state, programs and plans alike, as an
// eviction of every entry would. Asks already holding an entry keep it.
func evictAll(ex *Exchange) {
	qs := &ex.state
	qs.mu.Lock()
	defer qs.mu.Unlock()
	for qs.lru.Len() > 0 {
		qs.dropLocked(qs.lru.Back().Value.(*stateEntry))
	}
}

// cachedEntries returns the built entries of one kind in ex's query
// state, *sigProgram or *queryPlan, by key.
func cachedEntries[T stateValue](ex *Exchange) map[string]T {
	ex.state.mu.Lock()
	defer ex.state.mu.Unlock()
	out := map[string]T{}
	for _, table := range []stateTable{ex.state.programs, ex.state.plans} {
		for key, e := range table {
			if v, ok := e.val.(T); ok {
				out[key] = v
			}
		}
	}
	return out
}

// eachSigProgram calls fn on every cached signature program, holding the
// program's incMu.
func eachSigProgram(ex *Exchange, fn func(*sigProgram)) {
	for _, sp := range cachedEntries[*sigProgram](ex) {
		sp.incMu.Lock()
		fn(sp)
		sp.incMu.Unlock()
	}
}

// forget empties what a persistent solver remembers of its sessions
// besides learned clauses: the verdict memo. The next ask of each of its
// groups then runs a session, unless a greedy decision spares it.
func (inc *incSolver) forget() {
	clear(inc.verdicts)
}

// poisonAllSolvers sabotages every persistent solver the way
// TestPoisonedSolverPanicRebuilds does one: the next session on each
// panics, and no verdict or greedy repair spares a group
// that session.
func poisonAllSolvers(ex *Exchange) {
	eachSigProgram(ex, func(sp *sigProgram) {
		if sp.inc != nil {
			sp.inc.solver = nil
			sp.inc.forget()
		}
	})
	forgetGreedy(ex)
}

// forgetVerdicts empties the verdict memo of every persistent solver and
// forgets the greedy repairs (forgetGreedy), so the
// next ask of every group of a cached program runs a session.
func forgetVerdicts(ex *Exchange) {
	eachSigProgram(ex, func(sp *sigProgram) {
		if sp.inc != nil {
			sp.inc.forget()
		}
	})
	forgetGreedy(ex)
}

// forgetGreedy drops the greedy repairs of every cached signature program
// and the greedy decisions published on every cached plan's groups, so
// that the next ask of each group decides it on the persistent solver. A
// program built later has its repairs again.
func forgetGreedy(ex *Exchange) {
	eachSigProgram(ex, func(sp *sigProgram) { sp.repairs = nil })
	for _, p := range cachedEntries[*queryPlan](ex) {
		for _, g := range p.groups {
			g.decided(false).Store(nil)
			g.decided(true).Store(nil)
		}
	}
}

// withoutGreedy builds the plans of queries on ex and the signature
// programs of their groups, then forgets their greedy repairs
// (forgetGreedy), so that the queries' groups reach the persistent solvers
// as long as their programs stay cached.
func withoutGreedy(t testing.TB, ex *Exchange, queries ...*logic.UCQ) {
	t.Helper()
	for _, q := range queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rq.Clauses) == 0 {
			continue
		}
		for _, g := range ex.planFor(rq, nil).groups {
			ex.sigProgramFor(g.key, g.sig, nil)
		}
	}
	forgetGreedy(ex)
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
// of asks under CacheCorrupt faults that evict signature programs, and a
// pass that empties the whole query state, programs and plans, after
// every ask. Every result must equal the fresh reference.
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

	// Empty the whole state before the first ask and after every ask: each
	// ask builds its plan and its programs afresh and hits none of them.
	evictAll(ex)
	for _, q := range sc.queries {
		for _, brave := range []bool{false, true} {
			for _, par := range []int{1, 4, 8} {
				label := fmt.Sprintf("evicted %s brave=%v par=%d", q.Name, brave, par)
				res, err := ex.query(q, brave, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				evictAll(ex)
				if res.Stats.CacheHits != 0 {
					t.Fatalf("%s: %d cache hits on an emptied state", label, res.Stats.CacheHits)
				}
				requireSameExceptCacheHits(t, label, reference(q, brave), res)
				requireSameUnknown(t, label, reference(q, brave), res)
			}
		}
	}
	// A cold pass, checked above, caches every program again, so the warm
	// round hits them.
	for _, q := range sc.queries {
		if _, err := ex.query(q, false, Options{Parallelism: 1}); err != nil {
			t.Fatalf("cold after eviction %s: %v", q.Name, err)
		}
	}
	warm("after eviction")
	return reg.Counter("xr_query_plan_hits_total").Value(), builds.Value() - afterWarm
}

// TestPlanCacheConcurrentCorruption asks the same queries from four
// goroutines at once under CacheCorrupt faults, with the query state
// bounded below its working set, so asks holding a signature program that
// another ask has just evicted, as corrupt or past the bound, wire the
// same plan group as asks on its replacement: two incMus over one group.
// Run under -race; every answer must equal the fresh reference.
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
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(world.M, src, Options{Metrics: reg})
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
	// ref now holds every base program the suite reaches, without solvers.
	ex.state.cap = ref.QueryStateBytes() / 2
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
	if reg.Counter("xr_query_state_evictions_total").Value() == 0 {
		t.Fatal("vacuous run: nothing was evicted past the bound")
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
	if n := len(cachedEntries[*queryPlan](ex)); n != len(queries) {
		t.Fatalf("%d plans cached for %d distinct queries", n, len(queries))
	}
}

// TestPlanCacheEvictsPastCap: past the query state's byte bound, the
// least recently used signature programs and plans are evicted. With a
// bound of half the suite's working set, both kinds are evicted, the
// estimate stays within the bound after every ask, the eviction counter
// moves, and no answer changes.
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
	// The working set is what one pass leaves on a twin exchange.
	twin, err := NewExchange(world.M, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := twin.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	programs := len(cachedEntries[*sigProgram](twin))
	ex.state.cap = twin.QueryStateBytes() / 2

	evictions := reg.Counter("xr_query_state_evictions_total")
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			inline := renamed(q)
			inline.Name = fmt.Sprintf("inline%d_%s", pass, q.Name)
			res, err := ex.Answer(inline)
			if err != nil {
				t.Fatal(err)
			}
			requireSameExceptCacheHits(t, inline.Name, freshResult(t, ref, q, false, 4), res)
			if size := ex.QueryStateBytes(); size > ex.state.cap {
				t.Fatalf("%s: query state holds %d bytes, bound %d", inline.Name, size, ex.state.cap)
			}
		}
	}
	if evictions.Value() == 0 {
		t.Fatal("xr_query_state_evictions_total did not move past the bound")
	}
	// Without an eviction the second pass would hit every plan, and only
	// the first ask of each signature would miss its program.
	if hits := reg.Counter("xr_query_plan_hits_total").Value(); hits >= int64(len(queries)) {
		t.Fatalf("%d plan hits in two passes of %d queries: no plan was evicted", hits, len(queries))
	}
	if misses := reg.Counter("xr_sigcache_misses_total").Value(); misses <= int64(programs) {
		t.Fatalf("%d program misses for %d signatures: no program was evicted", misses, programs)
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
	if n, size := len(ex.state.programs)+len(ex.state.plans), ex.QueryStateBytes(); n != 0 || size != 0 {
		t.Fatalf("a panicked build left %d entries (%d bytes)", n, size)
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

// TestProgramBuildPanicNotStored: a signature program whose base
// grounding panics leaves no program behind. The ask fails with
// ErrInternal, and once the cause is gone the next ask builds the
// program again and answers exactly.
func TestProgramBuildPanicNotStored(t *testing.T) {
	w, q := conflictFarm(6)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(planOf(t, ex, q).groups) == 0 {
		t.Fatal("the query has no signature group")
	}
	clusters := ex.Clusters
	ex.Clusters = nil // the base grounding indexes them; the plan does not
	if _, err := ex.Answer(q); !errors.Is(err, ErrInternal) {
		t.Fatalf("an ask whose grounding panics returned %v, want ErrInternal", err)
	}
	ex.Clusters = clusters
	if n := len(cachedEntries[*sigProgram](ex)); n != 0 {
		t.Fatalf("panicked builds left %d programs", n)
	}
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		res, err := ex.Answer(q)
		if err != nil {
			t.Fatalf("pass %d after the panic: %v", pass, err)
		}
		requireCrossModeResult(t, fmt.Sprintf("pass %d after the panic", pass), freshResult(t, fresh, q, false, 1), res)
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
	// The first ask, on a one-decision budget, degrades the conflicted
	// groups, whose greedy repairs are forgotten: their plan tuples reach
	// the caller through Unknown.
	withoutGreedy(t, ex, q)
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
