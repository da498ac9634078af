package xr

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/symtab"
)

// This file checks the witness models the persistent solvers store
// (DESIGN.md §17) on machinery independent of the engine: the native GLAV
// chase over the original, unreduced mapping. A stored model is a repair
// of its signature's sub-world. Completed to a whole-instance source
// repair — the safe part, the model's kept facts, then the other suspect
// facts added greedily while the result stays consistent — it must be
// consistent and maximal, and every wired query atom must hold in the
// model exactly when its candidate tuple is an answer on the repair's
// chase. So a "not certain" or "possible" the stored models decide is
// backed by a checked repair, and the check also crosses the Theorem 1
// reduction and the Theorem 4 decomposition.

// TestWitnessModelsAreRepairs runs a cold certain-then-possible suite on a
// fresh Exchange per scenario (genome S3 and M3 at scale 0.1, 16 random
// weakly-acyclic mappings) and checks every model stored afterwards.
func TestWitnessModelsAreRepairs(t *testing.T) {
	var models, atoms int
	for _, sc := range memoScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			m, a := checkWitnessModels(t, sc)
			t.Logf("%d stored models checked, %d (model, wired atom) pairs", m, a)
			models += m
			atoms += a
		})
	}
	if models == 0 || atoms == 0 {
		t.Fatalf("checked %d stored models over %d wired atoms; the check tests nothing", models, atoms)
	}
}

// wiredCandidate is one candidate wired to a query atom: the query it
// answers and its tuple.
type wiredCandidate struct {
	q     *logic.UCQ
	tuple []symtab.Value
}

// checkWitnessModels runs the suite on sc and checks every stored model;
// it returns the models and the (model, wired atom) pairs it checked.
func checkWitnessModels(t *testing.T, sc memoScenario) (models, atoms int) {
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
	// The wired candidates of each persistent solver, by atom, from the
	// cached plans of the suite.
	wired := map[uint64]map[asp.AtomID][]wiredCandidate{}
	for _, q := range sc.queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rq.Clauses) == 0 {
			continue
		}
		for _, g := range ex.planFor(rq, nil).groups {
			w := g.wired.Load()
			if w == nil {
				continue
			}
			if wired[w.solver] == nil {
				wired[w.solver] = map[asp.AtomID][]wiredCandidate{}
			}
			for i, a := range w.atoms {
				wired[w.solver][a] = append(wired[w.solver][a], wiredCandidate{q: q, tuple: w.live[i].tuple})
			}
		}
	}
	rc := newRepairChecker(ex, sc.m)
	programs := cachedEntries[*sigProgram](ex)
	keys := make([]string, 0, len(programs))
	for key := range programs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		sp := programs[key]
		if sp.inc == nil {
			continue
		}
		for mi, model := range sp.inc.models {
			label := fmt.Sprintf("signature {%s} model %d", key, mi)
			atoms += rc.check(t, label, sp, model, wired[sp.inc.id])
			models++
		}
	}
	return models, atoms
}

// repairChecker decides source-instance consistency with the native chase
// over the unreduced mapping. It keeps one greedy consistent extension of
// the safe part by every suspect source fact (in FactID order), which
// completes most stored models at the cost of one consistency check.
type repairChecker struct {
	ex     *Exchange
	m      *mapping.Mapping
	safe   []chase.FactID // safe source facts: in every repair
	greedy map[chase.FactID]bool
}

func newRepairChecker(ex *Exchange, m *mapping.Mapping) *repairChecker {
	rc := &repairChecker{ex: ex, m: m, greedy: map[chase.FactID]bool{}}
	var suspect []chase.FactID
	for id := 0; id < ex.Prov.NumFacts(); id++ {
		switch f := chase.FactID(id); {
		case !ex.Prov.IsSource(f):
		case ex.safeDerivable[f]:
			rc.safe = append(rc.safe, f)
		default:
			suspect = append(suspect, f)
		}
	}
	for _, f := range rc.extend(rc.safe, suspect) {
		rc.greedy[f] = true
	}
	return rc
}

// solve chases the source instance made of the given facts; it fails when
// the instance has no solution.
func (rc *repairChecker) solve(facts ...[]chase.FactID) (*instance.Instance, error) {
	inst := instance.New(rc.ex.Prov.Instance.Catalog())
	for _, fs := range facts {
		for _, f := range fs {
			inst.AddFact(rc.ex.Prov.Fact(f))
		}
	}
	return chase.Native(rc.m, inst)
}

// consistent reports whether the source facts have a solution.
func (rc *repairChecker) consistent(facts ...[]chase.FactID) bool {
	_, err := rc.solve(facts...)
	return err == nil
}

// extend adds to the consistent set base the facts of fs greedily in
// order, each if the result stays consistent, and returns the facts
// added. A batch that stays consistent is what one-by-one greedy would
// add (consistency is closed under subsets); a batch that does not is
// split, so the result is exactly the one-by-one greedy one.
func (rc *repairChecker) extend(base, fs []chase.FactID) []chase.FactID {
	var added []chase.FactID
	var walk func(fs []chase.FactID)
	walk = func(fs []chase.FactID) {
		switch {
		case len(fs) == 0:
		case rc.consistent(base, added, fs):
			added = append(added, fs...)
		case len(fs) > 1:
			walk(fs[:len(fs)/2])
			walk(fs[len(fs)/2:])
		}
	}
	walk(fs)
	return added
}

// check completes one stored model to a whole-instance repair, checks
// that the repair is consistent and maximal, and compares every wired
// atom's value in the model with its candidates' answers on the repair's
// chase. It returns the atoms checked.
//
// The completion first tries the other suspect facts the checker's greedy
// extension of the safe part kept: when the result is consistent and no
// other left-out fact can be restored, it is the greedy completion in the
// order "those facts first". Otherwise the model is completed by a greedy
// pass of its own.
func (rc *repairChecker) check(t *testing.T, label string, sp *sigProgram, model []uint64, wired map[asp.AtomID][]wiredCandidate) int {
	t.Helper()
	prov := rc.ex.Prov
	kept := slices.Clone(rc.safe)
	var dropped, others []chase.FactID
	for id := 0; id < prov.NumFacts(); id++ {
		f := chase.FactID(id)
		if !prov.IsSource(f) || rc.ex.safeDerivable[f] {
			continue
		}
		switch l, inSubWorld := slices.BinarySearch(sp.enc.vars, f); {
		case inSubWorld && model[sp.enc.r[l]>>6]&(1<<(sp.enc.r[l]&63)) != 0:
			kept = append(kept, f)
		case inSubWorld:
			dropped = append(dropped, f)
		default:
			others = append(others, f)
		}
	}
	var added, left []chase.FactID
	for _, f := range others {
		if rc.greedy[f] {
			added = append(added, f)
		} else {
			left = append(left, f)
		}
	}
	repair := append(slices.Clone(kept), added...)
	sol, err := rc.solve(repair)
	if err != nil || rc.restorable(repair, left) != -1 {
		if !rc.consistent(kept) {
			t.Fatalf("%s: the safe part and the model's kept facts have no solution", label)
		}
		added = rc.extend(kept, others)
		left = slices.DeleteFunc(slices.Clone(others), func(f chase.FactID) bool { return slices.Contains(added, f) })
		repair = append(kept, added...)
		if sol, err = rc.solve(repair); err != nil {
			t.Fatalf("%s: completed repair has no solution: %v", label, err)
		}
		if f := rc.restorable(repair, left); f != -1 {
			t.Fatalf("%s: greedy completion left out restorable source fact %d", label, f)
		}
	}
	// Maximality: restoring a fact the model deleted breaks consistency;
	// every other left-out fact was checked above.
	if f := rc.restorable(repair, dropped); f != -1 {
		t.Fatalf("%s: not a repair: restoring deleted source fact %d keeps it consistent", label, f)
	}
	answers := map[*logic.UCQ]*cq.AnswerSet{}
	checked := 0
	for a, cands := range wired {
		holds := sp.inc.holdsIn(model, a)
		for _, c := range cands {
			if answers[c.q] == nil {
				answers[c.q] = cq.EvalUCQ(c.q, sol).WithoutNulls()
			}
			if got := answers[c.q].Contains(c.tuple); got != holds {
				t.Fatalf("%s: %s tuple %v: atom %d holds in the model = %v, answer on the repair's chase = %v",
					label, c.q.Name, c.tuple, a, holds, got)
			}
		}
		checked++
	}
	return checked
}

// restorable returns the first fact of fs that the consistent set base
// stays consistent with, or -1.
func (rc *repairChecker) restorable(base, fs []chase.FactID) chase.FactID {
	for _, f := range fs {
		if rc.consistent(base, []chase.FactID{f}) {
			return f
		}
	}
	return -1
}
