package xr

import (
	"context"
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

// This file checks the witness models the persistent solvers' sessions
// accept (DESIGN.md §17) on machinery independent of the engine: the
// native GLAV chase over the original, unreduced mapping. A model the
// maximality acceptor accepts is a repair of its signature's sub-world,
// and a session's verdicts rest on such models: a brave atom is true in
// one, and cautious narrowing drops an atom false in one. Completed to a
// whole-instance source repair — the safe part, the model's kept facts,
// then the other suspect facts added greedily while the result stays
// consistent — it must be consistent and maximal, and every wired query
// atom must hold in the model exactly when its candidate tuple is an
// answer on the repair's chase. The check also crosses the Theorem 1
// reduction and the Theorem 4 decomposition. The same checker runs on the
// greedy repairs (greedy_test.go).

// TestWitnessModelsAreRepairs runs a cold certain-then-possible suite on a
// fresh Exchange per scenario (genome S3 and M3 at scale 0.1, 16 random
// weakly-acyclic mappings), then a cautious and a brave session over every
// atom wired on each persistent solver, and checks every model the
// acceptor accepts in them.
func TestWitnessModelsAreRepairs(t *testing.T) {
	var models, atoms int
	for _, sc := range memoScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			m, a := checkWitnessModels(t, sc)
			t.Logf("%d accepted models checked, %d (model, wired atom) pairs", m, a)
			models += m
			atoms += a
		})
	}
	if models == 0 || atoms == 0 {
		t.Fatalf("checked %d accepted models over %d wired atoms; the check tests nothing", models, atoms)
	}
}

// decidedCandidate is one candidate a repair decides: the query it
// answers, its tuple, and whether it holds in the repair.
type decidedCandidate struct {
	q     *logic.UCQ
	tuple []symtab.Value
	holds bool
}

// checkWitnessModels runs the suite on sc, then sessions over the wired
// atoms of each persistent solver, and checks every model they accept; it
// returns the models and the (model, wired atom) pairs it checked.
func checkWitnessModels(t *testing.T, sc memoScenario) (models, atoms int) {
	t.Helper()
	ex, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	withoutGreedy(t, ex, sc.queries...) // so that the groups reach the solvers
	for _, brave := range []bool{false, true} {
		for _, q := range sc.queries {
			if _, err := ex.query(q, brave, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The wired candidates of each persistent solver, by atom, from the
	// cached plans of the suite.
	wired := map[uint64]map[asp.AtomID][]decidedCandidate{}
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
				wired[w.solver] = map[asp.AtomID][]decidedCandidate{}
			}
			for i, a := range w.atoms {
				wired[w.solver][a] = append(wired[w.solver][a], decidedCandidate{q: q, tuple: w.live[i].tuple})
			}
		}
	}
	programs := cachedEntries[*sigProgram](ex)
	keys := make([]string, 0, len(programs))
	for key := range programs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	rc := newRepairChecker(ex, sc.m, keys, programs)
	for _, key := range keys {
		sp := programs[key]
		if sp.inc == nil {
			continue
		}
		for mi, model := range acceptedModels(sp, wired[sp.inc.id]) {
			var decided []decidedCandidate
			for a, cands := range wired[sp.inc.id] {
				for _, c := range cands {
					c.holds = model[a]
					decided = append(decided, c)
				}
			}
			rc.check(t, fmt.Sprintf("signature {%s} model %d", key, mi), sp, func(l int) bool { return model[sp.enc.r[l]] }, decided)
			atoms += len(wired[sp.inc.id])
			models++
		}
	}
	return models, atoms
}

// acceptedModels runs a cautious and then a brave session over the wired
// atoms on sp's persistent solver, with the maximality acceptor a session
// of the engine uses, and returns the distinct models it accepted.
func acceptedModels(sp *sigProgram, wired map[asp.AtomID][]decidedCandidate) [][]bool {
	inc := sp.inc
	atoms := make([]asp.AtomID, 0, len(wired))
	for a := range wired {
		atoms = append(atoms, a)
	}
	slices.Sort(atoms)
	var accepted [][]bool
	maximal := inc.spec.acceptorWithIndex(sp.idx, inc.solver, nil)
	inc.solver.Acceptor = func(m []bool) [][]asp.Lit {
		var learned [][]asp.Lit
		if maximal != nil {
			learned = maximal(m)
		}
		if len(learned) == 0 && !slices.ContainsFunc(accepted, func(o []bool) bool { return slices.Equal(o, m) }) {
			accepted = append(accepted, slices.Clone(m))
		}
		return learned
	}
	inc.solver.SetContext(context.Background())
	inc.solver.SetBudget(0, 0)
	for _, brave := range []bool{false, true} {
		sess := inc.solver.StartSession(nil)
		if brave {
			sess.Brave(atoms)
		} else {
			sess.Cautious(atoms)
		}
		sess.Close()
	}
	return accepted
}

// repairChecker decides source-instance consistency with the native chase
// over the unreduced mapping. It keeps one greedy consistent extension of
// the safe part by every suspect source fact (in FactID order), which
// completes most repairs of a sub-world at the cost of one consistency
// check.
type repairChecker struct {
	ex       *Exchange
	m        *mapping.Mapping
	programs []*sigProgram  // the programs whose repairs it checks
	safe     []chase.FactID // safe source facts: in every repair
	greedy   map[chase.FactID]bool
	kept     []chase.FactID                 // the greedy extension's suspect facts
	left     []chase.FactID                 // the other suspect facts
	open     map[*sigProgram][]chase.FactID // see openOutside
}

// newRepairChecker returns a checker for the repairs of the programs of
// ex under keys.
func newRepairChecker(ex *Exchange, m *mapping.Mapping, keys []string, programs map[string]*sigProgram) *repairChecker {
	rc := &repairChecker{ex: ex, m: m, greedy: map[chase.FactID]bool{}}
	for _, key := range keys {
		rc.programs = append(rc.programs, programs[key])
	}
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
	rc.kept = rc.extend(rc.safe, suspect)
	for _, f := range rc.kept {
		rc.greedy[f] = true
	}
	for _, f := range suspect {
		if !rc.greedy[f] {
			rc.left = append(rc.left, f)
		}
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

// check completes one repair of sp's sub-world — the variable source
// facts it keeps — to a whole-instance repair, checks that the repair is
// consistent and maximal, and compares every decided candidate with the
// answers on the repair's chase.
//
// The completion first tries the other suspect facts the checker's greedy
// extension of the safe part kept: when the result is consistent and no
// other left-out fact can be restored (openOutside), it is the greedy
// completion in the order "those facts first". Otherwise the repair is
// completed by a greedy pass of its own.
func (rc *repairChecker) check(t *testing.T, label string, sp *sigProgram, keeps func(l int) bool, decided []decidedCandidate) {
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
		case inSubWorld && keeps(l):
			kept = append(kept, f)
		case inSubWorld:
			dropped = append(dropped, f)
		default:
			others = append(others, f)
		}
	}
	added := slices.DeleteFunc(slices.Clone(others), func(f chase.FactID) bool { return !rc.greedy[f] })
	repair := append(slices.Clone(kept), added...)
	sol, err := rc.solve(repair)
	if err != nil || rc.restorable(repair, rc.openOutside(sp)) != -1 {
		if !rc.consistent(kept) {
			t.Fatalf("%s: the safe part and the repair's kept facts have no solution", label)
		}
		added = rc.extend(kept, others)
		left := slices.DeleteFunc(slices.Clone(others), func(f chase.FactID) bool { return slices.Contains(added, f) })
		repair = append(kept, added...)
		if sol, err = rc.solve(repair); err != nil {
			t.Fatalf("%s: completed repair has no solution: %v", label, err)
		}
		if f := rc.restorable(repair, left); f != -1 {
			t.Fatalf("%s: greedy completion left out restorable source fact %d", label, f)
		}
	}
	// Maximality: restoring a fact the repair deleted breaks consistency;
	// every other left-out fact was checked above.
	if f := rc.restorable(repair, dropped); f != -1 {
		t.Fatalf("%s: not a repair: restoring deleted source fact %d keeps it consistent", label, f)
	}
	answers := map[*logic.UCQ]*cq.AnswerSet{}
	for _, c := range decided {
		if answers[c.q] == nil {
			answers[c.q] = cq.EvalUCQ(c.q, sol).WithoutNulls()
		}
		if got := answers[c.q].Contains(c.tuple); got != c.holds {
			t.Fatalf("%s: %s tuple %v: holds in the repair = %v, answer on the repair's chase = %v",
				label, c.q.Name, c.tuple, c.holds, got)
		}
	}
}

// openOutside returns the suspect facts outside sp's sub-world that the
// greedy extension left out and that may stay consistent with a repair of
// the sub-world completed by the facts it kept outside the sub-world
// (added in check): only these need a check against each repair.
func (rc *repairChecker) openOutside(sp *sigProgram) []chase.FactID {
	if rc.open == nil {
		rc.open = map[*sigProgram][]chase.FactID{}
		for _, f := range rc.left {
			outside := slices.DeleteFunc(slices.Clone(rc.programs), func(p *sigProgram) bool {
				_, inSubWorld := slices.BinarySearch(p.enc.vars, f)
				return inSubWorld
			})
			for _, p := range rc.needed(f, outside) {
				rc.open[p] = append(rc.open[p], f)
			}
		}
	}
	return rc.open[sp]
}

// needed returns the programs of ps for which f, a fact the greedy
// extension left out, may stay consistent with the safe part and the
// extension's kept facts outside the program's sub-world. A source
// instance with no solution has none in any superset, so when the safe
// part, f and the kept facts outside every sub-world of ps have none, no
// program of ps needs f checked: one chase clears them all, and only a
// set that it does not clear is split.
func (rc *repairChecker) needed(f chase.FactID, ps []*sigProgram) []*sigProgram {
	base := append(slices.Clone(rc.safe), f)
	for _, g := range rc.kept {
		if !slices.ContainsFunc(ps, func(p *sigProgram) bool { _, ok := slices.BinarySearch(p.enc.vars, g); return ok }) {
			base = append(base, g)
		}
	}
	switch {
	case !rc.consistent(base):
		return nil
	case len(ps) == 1:
		return ps
	}
	return append(rc.needed(f, ps[:len(ps)/2]), rc.needed(f, ps[len(ps)/2:])...)
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
