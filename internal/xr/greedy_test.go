package xr

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/logic"
)

// TestGreedyRepairsAreRepairs checks the greedy repairs (greedy.go) on
// machinery independent of the engine, as TestWitnessModelsAreRepairs
// checks stored models: on a fresh Exchange per scenario (memoScenarios
// and the genome-churn shape), asked a certain and then a possible pass,
// every cached program's two shared repairs, and each directed repair that
// decides the candidate it was built for, completed to a whole-instance
// repair on the native chase over the unreduced mapping, must be
// consistent and maximal, and every candidate of the signature's plan
// groups must hold in the repair exactly when its tuple is an answer on
// the repair's chase.
func TestGreedyRepairsAreRepairs(t *testing.T) {
	scenarios := memoScenarios(t)
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	churn := genome.Generate(world, genome.Profile{Name: "churn", Transcripts: 360, SuspectRate: 0.09, Seed: 1000})
	scenarios = append(scenarios, memoScenario{name: "genome-churn", m: world.M, src: churn, queries: queries})
	var shared, directed, decided int
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s, d, c := checkGreedyRepairs(t, sc)
			t.Logf("%d shared and %d directed repairs checked, %d (repair, candidate) pairs", s, d, c)
			shared += s
			directed += d
			decided += c
		})
	}
	if shared == 0 || directed == 0 || decided == 0 {
		t.Fatalf("checked %d shared and %d directed repairs over %d candidates; the check tests nothing", shared, directed, decided)
	}
}

// checkGreedyRepairs runs the suite on sc and checks the repairs of every
// cached program; it returns the shared and directed repairs it checked
// and the (repair, candidate) pairs.
func checkGreedyRepairs(t *testing.T, sc memoScenario) (shared, directed, pairs int) {
	t.Helper()
	ex, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	for _, brave := range []bool{false, true} {
		for _, q := range sc.queries {
			if _, err := ex.query(q, brave, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The candidates with a covered support set of each signature, from
	// the cached plans of the suite.
	type liveCandidate struct {
		q    *logic.UCQ
		c    *candidate
		sets [][]int32
	}
	programs := cachedEntries[*sigProgram](ex)
	live := map[string][]liveCandidate{}
	for _, q := range sc.queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rq.Clauses) == 0 {
			continue
		}
		for _, g := range ex.planFor(rq, nil).groups {
			for _, c := range g.cands {
				if sets := programs[g.key].enc.coveredSets(c); len(sets) > 0 {
					live[g.key] = append(live[g.key], liveCandidate{q: q, c: c, sets: sets})
				}
			}
		}
	}
	keys := make([]string, 0, len(programs))
	for key := range programs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	rc := newRepairChecker(ex, sc.m, keys, programs)
	for _, key := range keys {
		sp := programs[key]
		if sp.repairs == nil {
			t.Fatalf("signature {%s}: no greedy repair", key)
		}
		// check checks one repair, unless an equal one was checked, and
		// reports whether it did.
		checked := map[string]bool{}
		check := func(label string, r repairSet) bool {
			if checked[fmt.Sprint(r)] {
				return false
			}
			checked[fmt.Sprint(r)] = true
			var decided []decidedCandidate
			for _, lc := range live[key] {
				decided = append(decided, decidedCandidate{q: lc.q, tuple: lc.c.tuple, holds: r.holds(lc.sets)})
			}
			rc.check(t, fmt.Sprintf("signature {%s} %s", key, label), sp, func(l int) bool { return r.has(int32(l)) }, decided)
			pairs += len(decided)
			return true
		}
		for i, r := range sp.repairs {
			if check(fmt.Sprintf("shared repair %d", i), r) {
				shared++
			}
		}
		wk := newGreedyWork(sp.idx, sp.enc.deletable)
		for i, lc := range live[key] {
			var v verdict
			for _, r := range sp.repairs {
				v = v.from(r, lc.sets)
			}
			for _, brave := range []bool{false, true} {
				if _, known := v.lookup(brave); known {
					continue
				}
				r := sp.directedRepair(wk, lc.sets, brave)
				if r == nil {
					continue
				}
				if _, known := v.from(r, lc.sets).lookup(brave); known && check(fmt.Sprintf("directed repair of candidate %d brave=%v", i, brave), r) {
					directed++
				}
			}
		}
	}
	return shared, directed, pairs
}

// TestGreedyDecisionStopsOnDoneContext evaluates every group of the genome
// suite on the genome-churn shape, certain and possible, first on a done
// context: a group whose evaluation needs a directed repair stops before
// it and publishes nothing, and one the shared repairs decide is
// published as on a live context. A later ask on a live context then
// evaluates the stopped groups in full.
func TestGreedyDecisionStopsOnDoneContext(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	src := genome.Generate(world, genome.Profile{Name: "churn", Transcripts: 360, SuspectRate: 0.09, Seed: 1000})
	ex, err := NewExchange(world.M, src)
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	var stopped, published int
	for _, q := range queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rq.Clauses) == 0 {
			continue
		}
		for _, g := range ex.planFor(rq, nil).groups {
			sp, _ := ex.sigProgramFor(g.key, g.sig, nil)
			for _, brave := range []bool{false, true} {
				d, ok := sp.greedyDecision(done, g, brave)
				switch {
				case !ok && g.decided(brave).Load() != nil:
					t.Fatalf("%s group {%s} brave=%v: a stopped evaluation published a decision", q.Name, g.key, brave)
				case !ok:
					stopped++
				case g.decided(brave).Load() != d:
					t.Fatalf("%s group {%s} brave=%v: the decision returned is not the one published", q.Name, g.key, brave)
				default:
					published++
				}
				if d, ok = sp.greedyDecision(context.Background(), g, brave); !ok || g.decided(brave).Load() != d {
					t.Fatalf("%s group {%s} brave=%v: a live context did not publish the decision", q.Name, g.key, brave)
				}
			}
		}
	}
	t.Logf("%d evaluations stopped on the done context, %d published", stopped, published)
	if stopped == 0 || published == 0 {
		t.Fatalf("%d evaluations stopped and %d published on a done context; want both > 0", stopped, published)
	}
}
