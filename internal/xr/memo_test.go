package xr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

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
// equal the fresh reference: a cut-short session records no verdict. Each
// scenario runs the mix twice: with the greedy repairs forgotten, so that
// every group reaches the persistent solver, and with them, as the engine
// runs, where groups the repairs decide in part put those verdicts into
// the memo before a budgeted session that may exhaust and retry. It also
// checks that each of the memo's two implications serves some atom.
func TestVerdictMemoLongLived(t *testing.T) {
	var degraded, partly [2]int // without and with the greedy repairs
	var certainHits, impossibleHits int64
	for si, sc := range memoScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			for mode, greedy := range []bool{false, true} {
				d, p := runMemoMix(t, sc, int64(si), greedy)
				degraded[mode] += d
				partly[mode] += p
				certainHits += memoImplicationHits(t, sc, false, greedy)
				impossibleHits += memoImplicationHits(t, sc, true, greedy)
			}
		})
	}
	t.Logf("budget legs: %d signatures degraded without the greedy repairs, %d with them, over %d groups they decided in part", degraded[0], degraded[1], partly[1])
	if degraded[0] == 0 {
		t.Fatal("no budgeted ask degraded a signature; the budget legs test nothing")
	}
	if partly[1] == 0 || degraded[1] == 0 {
		t.Fatalf("with the greedy repairs, %d groups were decided in part and %d signatures degraded; want both > 0", partly[1], degraded[1])
	}
	if certainHits == 0 {
		t.Fatal("certain ⇒ possible never served an atom")
	}
	if impossibleHits == 0 {
		t.Fatal("impossible ⇒ not certain never served an atom")
	}
}

// runMemoMix drives one scenario's long-lived exchange, with its greedy
// repairs or with them forgotten, and returns the number of signatures
// its budgeted asks (the cold pass and the budget calls of the mix)
// degraded, and the plan groups whose published greedy decision leaves
// some candidate to a session but decides another.
func runMemoMix(t *testing.T, sc memoScenario, seed int64, greedy bool) (degraded, partly int) {
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
	if !greedy {
		withoutGreedy(t, ex, sc.queries...)
	}
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
	for _, q := range sc.queries {
		c := unbudgeted("final certain "+q.Name, q, false, 4)
		p := unbudgeted("final possible "+q.Name, q, true, 4)
		for _, tup := range c.Answers.Tuples() {
			if !p.Answers.Contains(tup) {
				t.Fatalf("%s: certain answer %v is not possible", q.Name, tup)
			}
		}
	}
	for _, p := range cachedEntries[*queryPlan](ex) {
		for _, g := range p.groups {
			for _, brave := range []bool{false, true} {
				if d := g.decided(brave).Load(); d != nil && !d.complete && slices.ContainsFunc(d.verdicts, func(v verdict) bool {
					_, known := v.lookup(brave)
					return known
				}) {
					partly++
				}
			}
		}
	}
	return degraded, partly
}

// memoImplicationHits asks each query in one semantics and then in the
// other, emptying every verdict memo before each query, and returns the
// memo hits of the second asks. Without the greedy repairs (greedy false,
// and then forgotten throughout) the memo holds only first-ask verdicts
// when the second ask runs, so each of its hits is served by an
// implication: certain ⇒ possible when the first ask is certain
// (firstBrave false), impossible ⇒ not certain when it is possible. With
// them, the memo also holds what they decided. The second ask must still
// equal the fresh reference.
func memoImplicationHits(t *testing.T, sc memoScenario, firstBrave, greedy bool) int64 {
	ex, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	if !greedy {
		withoutGreedy(t, ex, sc.queries...)
	}
	for _, q := range sc.queries {
		eachSigProgram(ex, func(sp *sigProgram) {
			if sp.inc != nil {
				sp.inc.forget()
			}
		})
		if _, err := ex.query(q, firstBrave, Options{}); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		res, err := ex.query(q, !firstBrave, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if !greedy {
			hits += reg.Counter("xr_solver_verdict_memo_hits_total").Value()
		}
		if got, want := join(tupleStrings(res)), join(tupleStrings(freshResult(t, ref, q, !firstBrave, 1))); got != want {
			t.Fatalf("%s after the other semantics: %s, want %s", q.Name, got, want)
		}
	}
	return hits
}
