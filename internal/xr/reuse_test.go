package xr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/asp"
	"repro/internal/cq"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/telemetry"
	"repro/internal/testkit"
)

// This file pins the central contract of the persistent-solver path
// (DESIGN.md §17): answers, Unknown sets, and per-query stats are
// byte-identical to a reference that decides every signature group on a
// throwaway solver (freshResult), at any parallelism, on cold and warm
// exchanges; rendered explanations do not depend on what the exchange
// answered before.

// freshResult is the reference the persistent solver is checked against.
// It answers q on ex like the segmentary query phase, but decides every
// signature group on a throwaway solver over a clone of the cached base
// program, with nothing carried over from earlier queries. It supports no
// budgets, explanations or tracing.
func freshResult(t testing.TB, ex *Exchange, q *logic.UCQ, brave bool, par int) *Result {
	t.Helper()
	rq, err := ex.Red.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Query: q, Answers: cq.NewAnswerSet()}
	plan := ex.newPlan(collectCandidates(rq, ex.Prov))
	outs := make([]groupOutcome, len(plan.groups))
	if err := forEachWorker(context.Background(), par, len(plan.groups), func(_ context.Context, _, i int) error {
		outs[i] = freshSolve(t, ex, plan.groups[i], brave)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Assembled by AnswerSet.Add, tuple by tuple and group by group, not by
	// the engine's merge in plan order.
	res.Stats.Candidates = plan.candidates
	res.Stats.SafeAccepted = plan.nsafe
	for i := 0; i < plan.nsafe; i++ {
		arity := len(plan.safe) / plan.nsafe
		res.Answers.Add(plan.safe[i*arity : (i+1)*arity])
	}
	for _, out := range outs {
		for _, c := range out.accepted {
			res.Answers.Add(c.tuple)
		}
		res.Stats.SolverAccepted += len(out.accepted)
		res.Stats.Programs++
		if out.cacheHit {
			res.Stats.CacheHits++
		}
	}
	return res
}

// freshSolve decides one signature group on a throwaway solver.
func freshSolve(t testing.TB, ex *Exchange, g *sigGroup, brave bool) groupOutcome {
	sp, hit := ex.sigProgramFor(g.key)
	sp.ensure(ex, g.sig)
	spec := sp.enc.specialize()
	var atoms []asp.AtomID
	var live []*candidate
	for _, c := range g.cands {
		if qa, ok := spec.addCandidate(c); ok {
			atoms = append(atoms, qa)
			live = append(live, c)
		}
	}
	solver := asp.NewStableSolver(spec.gp)
	solver.Acceptor = spec.acceptorWithIndex(sp.idx, solver, nil)
	solve := solver.Cautious
	if brave {
		solve = solver.Brave
	}
	kept, ok := solve(atoms)
	if !ok {
		t.Errorf("signature {%s}: program has no stable model", g.key)
	}
	out := groupOutcome{cacheHit: hit}
	for i, c := range live {
		if slices.Contains(kept, atoms[i]) {
			out.accepted = append(out.accepted, c)
		}
	}
	return out
}

// requireCrossModeResult compares a fresh-reference and a reuse-path
// result: answers and stats must match exactly. (Grounding sizes are not
// query stats: the persistent solver's program accumulates every candidate
// wired so far, so its sizes live on TraceEvent only.)
func requireCrossModeResult(t *testing.T, label string, fresh, reuse *Result) {
	t.Helper()
	fT, rT := tupleStrings(fresh), tupleStrings(reuse)
	if len(fT) != len(rT) {
		t.Fatalf("%s: fresh %d answers, reuse %d", label, len(fT), len(rT))
	}
	for i := range fT {
		if fT[i] != rT[i] {
			t.Fatalf("%s: answer %d differs: %q vs %q", label, i, fT[i], rT[i])
		}
	}
	if !statsEqual(fresh.Stats, reuse.Stats) {
		t.Fatalf("%s: stats differ:\nfresh: %+v\nreuse: %+v", label, fresh.Stats, reuse.Stats)
	}
}

// requireSameUnknown compares the Unknown sets of two results.
func requireSameUnknown(t *testing.T, label string, a, b *Result) {
	t.Helper()
	switch {
	case a.Unknown == nil && b.Unknown == nil:
		return
	case a.Unknown == nil || b.Unknown == nil:
		t.Fatalf("%s: Unknown presence differs: %v vs %v", label, a.Unknown != nil, b.Unknown != nil)
	}
	aU, bU := a.Unknown.Tuples(), b.Unknown.Tuples()
	if len(aU) != len(bU) {
		t.Fatalf("%s: Unknown sizes differ: %d vs %d", label, len(aU), len(bU))
	}
	for i := range aU {
		if fmt.Sprint(aU[i]) != fmt.Sprint(bU[i]) {
			t.Fatalf("%s: Unknown tuple %d differs: %v vs %v", label, i, aU[i], bU[i])
		}
	}
}

// TestReuseMatchesFreshConflictFarm: repeated certain/possible queries on a
// many-cluster world, so later runs exercise warm solver sessions, warm
// caches, and candidate memoization.
func TestReuseMatchesFreshConflictFarm(t *testing.T) {
	w, q := conflictFarm(16)
	exReuse, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	exFresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 8} {
		for pass := 0; pass < 2; pass++ {
			label := fmt.Sprintf("par=%d pass=%d", par, pass)
			ra, err := exReuse.AnswerOpts(q, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			fa := freshResult(t, exFresh, q, false, par)
			requireCrossModeResult(t, label+" answer", fa, ra)
			requireSameUnknown(t, label+" answer", fa, ra)

			rp, err := exReuse.PossibleOpts(q, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			fp := freshResult(t, exFresh, q, true, par)
			requireCrossModeResult(t, label+" possible", fp, rp)
			requireSameUnknown(t, label+" possible", fp, rp)
		}
	}
}

// TestReuseMatchesFreshGenome runs the full genome query suite on the S3
// and M3 profiles against the reference at several parallelism levels.
// The reuse exchange keeps one persistent solver per signature across the
// whole suite, so by the later queries it is deep into incremental
// territory (hundreds of sessions, memoized candidates, shared learnts).
func TestReuseMatchesFreshGenome(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"S3", "M3"} {
		p, ok := genome.ProfileByName(name, 0.02)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		src := genome.Generate(world, p)
		exReuse, err := NewExchange(world.M, src)
		if err != nil {
			t.Fatal(err)
		}
		exFresh, err := NewExchange(world.M, src)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			par := []int{1, 4, 8}[qi%3]
			r, err := exReuse.AnswerOpts(q, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s/%s reuse: %v", name, q.Name, err)
			}
			f := freshResult(t, exFresh, q, false, par)
			requireCrossModeResult(t, name+"/"+q.Name, f, r)
			requireSameUnknown(t, name+"/"+q.Name, f, r)
		}
	}
}

// TestReuseExplanationsIdentical: rendered explanations are byte-identical
// across parallelism and between a cold exchange and one whose persistent
// solvers already answered the whole suite — the explain pass runs on its
// own per-group solver whatever the query path learned.
func TestReuseExplanationsIdentical(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := genome.ProfileByName("S3", 0.02)
	src := genome.Generate(world, p)
	want := map[string]string{}
	for _, warm := range []bool{false, true} {
		for _, par := range []int{1, runtime.NumCPU()} {
			ex, err := NewExchange(world.M, src)
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				for _, q := range queries {
					if _, err := ex.AnswerOpts(q, Options{Parallelism: par}); err != nil {
						t.Fatalf("%s warm-up: %v", q.Name, err)
					}
				}
			}
			for _, q := range queries {
				res, err := ex.AnswerOpts(q, Options{Parallelism: par, Explain: true})
				if err != nil {
					t.Fatalf("%s warm=%v: %v", q.Name, warm, err)
				}
				got := renderAll(world.Cat, world.U, ex, res)
				if prev, ok := want[q.Name]; !ok {
					want[q.Name] = got
				} else if got != prev {
					t.Fatalf("%s: explanations diverge (warm=%v par=%d):\n%s\n-- want --\n%s",
						q.Name, warm, par, got, prev)
				}
			}
		}
	}
}

// TestReuseMatchesFreshRandom cross-validates against the reference on random
// weakly-acyclic mappings, instances, and queries (the PR 4 generator),
// re-asking each query so the reuse path serves warm sessions.
func TestReuseMatchesFreshRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 25; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0})
		src := testkit.RandomInstance(rng, w, 14+rng.Intn(10), 4)
		exReuse, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exFresh, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for qi := 0; qi < 3; qi++ {
			q := testkit.RandomQuery(rng, w, fmt.Sprintf("q%d_%d", trial, qi))
			for pass := 0; pass < 2; pass++ {
				par := 1 + (trial+qi+pass)%8
				label := fmt.Sprintf("trial %d %s pass %d", trial, q.Name, pass)
				r, err := exReuse.AnswerOpts(q, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s reuse: %v", label, err)
				}
				f := freshResult(t, exFresh, q, false, par)
				requireCrossModeResult(t, label, f, r)
				requireSameUnknown(t, label, f, r)
			}
		}
	}
}

// TestReuseObservable verifies the reuse path actually runs and is visible
// in trace events and telemetry: warm sessions report SolverReused with
// per-session delta counters, the xr_solver_reuse_* counters move, and a
// repeat is answered from the verdict memo without a session.
func TestReuseObservable(t *testing.T) {
	w, q := conflictFarm(6)
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if _, err := ex.AnswerOpts(q, Options{}); err != nil {
		t.Fatal(err)
	}
	// No conflicted candidate is certain, so neither implication decides
	// its possible status, and with the stored models dropped nothing
	// else does: Possible runs a real session on each warm solver.
	eachSigProgram(ex, func(sp *sigProgram) { sp.inc.models = nil })
	var warm []TraceEvent
	if _, err := ex.PossibleOpts(q, Options{Trace: func(ev TraceEvent) {
		if ev.SolverReused {
			warm = append(warm, ev)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 {
		t.Fatal("Possible after Answer reported no reused-solver trace events")
	}
	for _, ev := range warm {
		if ev.AssumptionSolves <= 0 || ev.Decisions < 0 || ev.Conflicts < 0 {
			t.Fatalf("warm session reports no search or negative deltas: %+v", ev)
		}
	}
	for _, name := range []string{"xr_solver_reuse_builds_total", "xr_solver_reuse_sessions_total", "xr_solver_assumption_solves_total"} {
		if counter(name) == 0 {
			t.Fatalf("%s did not move", name)
		}
	}

	// Every wired atom now has both verdicts, so a repeat of either
	// semantics opens no session and builds nothing: each distinct wired
	// atom is one memo hit, and every group still reports a reused-solver
	// trace event with zero work.
	wired := 0
	for _, sp := range ex.progCache {
		wired += len(sp.inc.cands)
	}
	for _, brave := range []bool{false, true} {
		builds := counter("xr_solver_reuse_builds_total")
		sessions := counter("xr_solver_reuse_sessions_total")
		solves := counter("xr_solver_assumption_solves_total")
		hits := counter("xr_solver_verdict_memo_hits_total")
		var evs []TraceEvent
		res, err := ex.query(q, brave, Options{Trace: func(ev TraceEvent) { evs = append(evs, ev) }})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("brave=%v repeat", brave)
		if got := counter("xr_solver_reuse_builds_total") - builds; got != 0 {
			t.Fatalf("%s built %d solvers", label, got)
		}
		if got := counter("xr_solver_reuse_sessions_total") - sessions; got != 0 {
			t.Fatalf("%s opened %d sessions", label, got)
		}
		if got := counter("xr_solver_assumption_solves_total") - solves; got != 0 {
			t.Fatalf("%s ran %d assumption solves", label, got)
		}
		if got := counter("xr_solver_verdict_memo_hits_total") - hits; got != int64(wired) || wired == 0 {
			t.Fatalf("%s: %d memo hits, want %d (distinct wired atoms)", label, got, wired)
		}
		if len(evs) != res.Stats.Programs || len(evs) == 0 {
			t.Fatalf("%s: %d trace events for %d programs", label, len(evs), res.Stats.Programs)
		}
		for _, ev := range evs {
			if !ev.SolverReused || ev.Stats != (asp.Stats{}) {
				t.Fatalf("%s: memo-served group traced as %+v", label, ev)
			}
		}
	}
}
