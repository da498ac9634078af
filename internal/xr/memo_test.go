package xr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/telemetry"
	"repro/internal/testkit"
)

// This file pins the verdict memo of the persistent solvers (DESIGN.md
// §17) on long-lived exchanges: whatever mix of certain and possible
// queries, budgets and cancellations an exchange has served, an unbudgeted
// answer equals the fresh reference, a budgeted one keeps the DESIGN.md
// §11.2 containments, and nothing a cut-short session saw is remembered.

type memoScenario struct {
	name    string
	m       *mapping.Mapping
	src     *instance.Instance
	queries []*logic.UCQ
	calls   int
}

// memoScenarios returns the genome S3 and M3 profiles at scale 0.1 and 16
// random weakly-acyclic mappings with dense egd conflicts.
func memoScenarios(t *testing.T) []memoScenario {
	t.Helper()
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	var out []memoScenario
	for _, name := range []string{"S3", "M3"} {
		p, ok := genome.ProfileByName(name, 0.1)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		out = append(out, memoScenario{name: "genome-" + name, m: world.M, src: genome.Generate(world, p), queries: queries, calls: 60})
	}
	rng := rand.New(rand.NewSource(1606))
	for trial := 0; trial < 16; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1, Egds: 4})
		src := testkit.RandomInstance(rng, w, 12+rng.Intn(10), 3)
		var qs []*logic.UCQ
		for qi := 0; qi < 3; qi++ {
			qs = append(qs, testkit.RandomQuery(rng, w, fmt.Sprintf("q%d_%d", trial, qi)))
		}
		out = append(out, memoScenario{name: fmt.Sprintf("random-%d", trial), m: w.M, src: src, queries: qs, calls: 24})
	}
	return out
}

// TestVerdictMemoLongLived runs a seeded random mix of Answer and Possible
// calls on one Exchange per scenario, at Parallelism 1, 4 and 8: some
// unbudgeted, some under a small decision budget with Partial, some on a
// context that is done before or as the groups reach the solver. Each
// budgeted ask is followed by the same ask unbudgeted, which must still
// equal the fresh reference: a cut-short session records no verdict. A
// model leg then asks with the verdicts forgotten but the stored witness
// models kept. It also checks that each of the memo's two implications
// serves some atom, and that at each parallelism the stored models decide
// some atoms, some groups without spending budget, and that a done
// context fails a group they decide.
func TestVerdictMemoLongLived(t *testing.T) {
	var degraded int
	var certainHits, impossibleHits int64
	var legs [3]modelLeg // per parallelism 1, 4, 8
	for si, sc := range memoScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			d, l := runMemoMix(t, sc, int64(si))
			degraded += d
			for i := range legs {
				legs[i].add(l[i])
			}
			certainHits += memoImplicationHits(t, sc, false)
			impossibleHits += memoImplicationHits(t, sc, true)
		})
	}
	t.Logf("budget legs: %d signatures degraded", degraded)
	if degraded == 0 {
		t.Fatal("no budgeted ask degraded a signature; the budget legs test nothing")
	}
	for i, par := range []int{1, 4, 8} {
		l := legs[i]
		t.Logf("parallelism %d: model leg %+v", par, l)
		if l.hits == 0 || l.free == 0 || l.canceled == 0 {
			t.Fatalf("parallelism %d: the stored models decided %d atoms and %d groups within a one-decision budget, and %d asks whose groups they decided failed on a done context; want each > 0",
				par, l.hits, l.free, l.canceled)
		}
	}
	if certainHits == 0 {
		t.Fatal("certain ⇒ possible never served an atom")
	}
	if impossibleHits == 0 {
		t.Fatal("impossible ⇒ not certain never served an atom")
	}
}

// modelLeg counts what the stored witness models did in runMemoMix's
// model leg at one parallelism: atoms they decided
// (xr_solver_model_memo_hits_total), groups answered with no session
// under a one-decision budget, asks failed on a done context although
// the models decided every group, and the signatures the budget still
// degraded. The last is logged only: it is kept apart from the budget
// legs' total, whose check must show that those legs degrade something.
type modelLeg struct {
	hits     int64
	free     int
	canceled int
	degraded int
}

func (l *modelLeg) add(o modelLeg) {
	l.hits += o.hits
	l.free += o.free
	l.canceled += o.canceled
	l.degraded += o.degraded
}

// runMemoMix drives one scenario's long-lived exchange and returns the
// number of signatures its budgeted asks (the cold pass and the budget
// calls of the mix) degraded, and its model leg's counts at Parallelism
// 1, 4 and 8.
func runMemoMix(t *testing.T, sc memoScenario, seed int64) (degraded int, legs [3]modelLeg) {
	ex, err := NewExchange(sc.m, sc.src)
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
	unbudgeted := func(label string, q *logic.UCQ, brave bool, par int) *Result {
		res, err := ex.query(q, brave, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		f := reference(q, brave)
		requireCrossModeResult(t, label, f, res)
		requireSameUnknown(t, label, f, res)
		return res
	}
	budgeted := func(label string, q *logic.UCQ, brave bool, par int, budget int64) {
		res, err := ex.query(q, brave, Options{Parallelism: par, MaxDecisions: budget, Partial: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSoundPartial(t, tupleStrings(reference(q, brave)), res)
		degraded += res.Stats.DegradedSignatures
	}
	// canceled asks on a done context: the call's own (flavor 0), the call
	// context canceled as a group reaches its solve (1), or a signature
	// deadline that expires before the solve (2). In flavors 1 and 2 the
	// groups reach solveSigReuse with a done context, memo-served or not.
	// An expired signature fails with ErrTimeout, or with ErrCanceled when
	// a sibling's failure canceled it first.
	canceled := func(label string, q *logic.UCQ, brave bool, par int, flavor int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := Options{Ctx: ctx, Parallelism: par}
		switch flavor {
		case 0:
			cancel()
		case 1:
			opts.FaultHook = func(site, _ string) error {
				if site == faultSiteSolve {
					cancel()
				}
				return nil
			}
		case 2:
			opts.SignatureTimeout = time.Millisecond
			opts.FaultHook = func(site, _ string) error {
				if site == faultSiteSolve {
					time.Sleep(20 * time.Millisecond)
				}
				return nil
			}
		}
		res, err := ex.query(q, brave, opts)
		if f := reference(q, brave); f.Stats.Programs == 0 {
			// No signature group: the safe part answers without solving.
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireCrossModeResult(t, label, f, res)
			return
		}
		if !errors.Is(err, ErrCanceled) && (flavor != 2 || !errors.Is(err, ErrTimeout)) {
			t.Fatalf("%s: canceled ask returned %v", label, err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	pars := []int{1, 4, 8}
	// A budgeted cold pass caches every signature program on both
	// exchanges, so CacheHits agree from here on; its reference results
	// carry cold cache counts and are dropped.
	for i, q := range sc.queries {
		budgeted(fmt.Sprintf("cold %s", q.Name), q, rng.Intn(2) == 1, pars[i%3], 1)
	}
	clear(want)
	for call := 0; call < sc.calls; call++ {
		q := sc.queries[rng.Intn(len(sc.queries))]
		brave := rng.Intn(2) == 1
		par := pars[call%3]
		label := fmt.Sprintf("call %d %s brave=%v par=%d", call, q.Name, brave, par)
		switch rng.Intn(5) {
		case 0:
			// Larger budgets cut some sessions after their first model,
			// mid-narrowing, where a recorded verdict would be wrong.
			budget := int64(1)
			if rng.Intn(2) == 0 {
				budget += int64(rng.Intn(16))
			}
			budgeted(fmt.Sprintf("%s budget=%d", label, budget), q, brave, par, budget)
			unbudgeted(label+" after budget", q, brave, par)
		case 1:
			flavor := rng.Intn(3)
			canceled(fmt.Sprintf("%s canceled (flavor %d)", label, flavor), q, brave, par, flavor)
		default:
			unbudgeted(label, q, brave, par)
		}
	}
	// Model leg: forget every verdict, keep the stored models, and ask
	// under a one-decision budget. With no verdict, a group that answers
	// without work (every counter of its trace event zero) was decided by
	// the stored models alone, and the budget did not stop it. When the
	// models decide every group of an ask, the same ask on a context done
	// as its groups reach the solver must still fail.
	forgetOnlyVerdicts := func() {
		eachSigProgram(ex, func(sp *sigProgram) {
			if sp.inc != nil {
				clear(sp.inc.verdicts)
			}
		})
	}
	for i, par := range pars {
		for _, q := range sc.queries {
			for _, brave := range []bool{false, true} {
				label := fmt.Sprintf("model leg %s brave=%v par=%d", q.Name, brave, par)
				forgetOnlyVerdicts()
				reg := telemetry.NewRegistry()
				var free atomic.Int64
				res, err := ex.query(q, brave, Options{Parallelism: par, MaxDecisions: 1, Partial: true, Metrics: reg,
					Trace: func(ev TraceEvent) {
						if ev.Stats == (asp.Stats{}) {
							free.Add(1)
						}
					}})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSoundPartial(t, tupleStrings(reference(q, brave)), res)
				legs[i].degraded += res.Stats.DegradedSignatures
				legs[i].hits += reg.Counter("xr_solver_model_memo_hits_total").Value()
				legs[i].free += int(free.Load())
				if res.Stats.Programs == 0 || int(free.Load()) != res.Stats.Programs || res.Stats.DegradedSignatures != 0 {
					continue
				}
				forgetOnlyVerdicts()
				ctx, cancel := context.WithCancel(context.Background())
				_, err = ex.query(q, brave, Options{Ctx: ctx, Parallelism: par, FaultHook: func(site, _ string) error {
					if site == faultSiteSolve {
						cancel()
					}
					return nil
				}})
				cancel()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s: ask on a done context whose groups the stored models decide returned %v", label, err)
				}
				legs[i].canceled++
			}
		}
	}
	for _, q := range sc.queries {
		c := unbudgeted("final certain "+q.Name, q, false, 4)
		p := unbudgeted("final possible "+q.Name, q, true, 4)
		for _, tup := range c.Answers.Tuples() {
			if !p.Answers.Contains(tup) {
				t.Fatalf("%s: certain answer %v is not possible", q.Name, tup)
			}
		}
	}
	return degraded, legs
}

// memoImplicationHits asks each query in one semantics and then in the
// other, emptying every memo and stored model before each query, and
// returns the memo hits of the second asks. When the second ask runs, the
// memo holds only first-ask verdicts, so each of its hits is served by an
// implication:
// certain ⇒ possible when the first ask is certain (firstBrave false),
// impossible ⇒ not certain when it is possible. The second ask must still
// equal the fresh reference.
func memoImplicationHits(t *testing.T, sc memoScenario, firstBrave bool) int64 {
	ex, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, q := range sc.queries {
		forgetVerdicts(ex)
		if _, err := ex.query(q, firstBrave, Options{}); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		res, err := ex.query(q, !firstBrave, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		hits += reg.Counter("xr_solver_verdict_memo_hits_total").Value()
		if got, want := join(tupleStrings(res)), join(tupleStrings(freshResult(t, ref, q, !firstBrave, 1))); got != want {
			t.Fatalf("%s after the other semantics: %s, want %s", q.Name, got, want)
		}
	}
	return hits
}
