package xr

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/asp"
	"repro/internal/chase"
)

// encoder builds a disjunctive logic program whose stable models are
// exactly the source repairs of the (sub-)instance, partially evaluated
// against the canonical quasi-solution.
//
// # Relation to the paper's Figure 1
//
// The paper's Figure 1 program guards its deletion rules with ¬Ri
// ("incidentally deleted") literals and justifies source deletions through
// chains of target deletions. We found that this literal encoding loses
// repairs in a corner case: when one source fact supports *both* sides of
// an egd violation, deleting it removes the violation whose deletion rule
// is the only justification for the deletion, leaving the intended stable
// model unfounded. Minimal counterexample (see TestFigure1Discrepancy):
//
//	S1(c) → T1(c);  S1(y) ∧ S2(w,z) → T0(w);  egd: T0(y) ∧ T1(z) → z = y
//	I = {S1(c2), S2(c0,c2)}
//
// has two source repairs ({S1} and {S2}), but the Figure 1 program has a
// single stable model (the {S1} repair): deleting S1 kills both T0 and T1,
// the egd deletion rule is disabled by the incidental T0, and S1d loses all
// support. We therefore use the following corrected encoding with the same
// asymptotic size, cross-validated against brute-force repair enumeration:
//
//   - choice, per deletable source fact f:   Rr(f) ← ¬Rd(f).  Rd(f) ← ¬Rr(f).
//   - derivation, per ground tgd instance:   Tr(h) ← R1r, ..., Rnr.
//   - consistency, per violated ground egd:  ⊥ ← R1r, ..., Rnr.
//   - maximality, per deletable source fact f: a deleted fact must break
//     something when re-added. This is enforced lazily through the solver's
//     theory acceptor (see maximalityAcceptor): a stable model in which some
//     deleted f could be restored without realizing a violation is rejected
//     with the learned clause  Rr(f) ∨ ⋁ { Rr(g) : g deleted besides f },
//     which says that either f is kept or some other deletion is undone.
//     (An in-program encoding of the witness requires recursive auxiliary
//     atoms whose positive cycles — through the EQ closure of the reduced
//     mapping — made CDCL search thrash; the lazy check is linear.)
//
// Non-deletable source facts (outside every violation's support closure —
// the paper's "safe" facts, which belong to every repair by Proposition 3)
// are either pinned true (segmentary) or constrained undeletable
// (monolithic).
//
// # Partial evaluation
//
// The original (unsubscripted) relations are pre-evaluated: every stable
// model of Π_M ∪ I interprets them as I ∪ J where J is the quasi-solution.
// Facts marked "true" by the state function (the safe part in the
// segmentary pipeline) are pinned to the remainder state, and every literal
// about them evaluates away. Support sets and violations reaching outside
// the universe are omitted — they do not exist in the restricted sub-world
// (Theorem 4).
type encoder struct {
	prov *chase.Provenance
	gp   *asp.GroundProgram

	// state returns how fact f participates: variable, true, or absent.
	state func(chase.FactID) factState

	r map[chase.FactID]asp.AtomID // "remains" atoms for variable facts
	d map[chase.FactID]asp.AtomID // "deleted" atoms for deletable source facts

	deletable         []chase.FactID // source facts with a choice
	coveredViolations []int          // indexes into prov.Violations with covered bodies
}

type factState int8

const (
	factAbsent factState = iota
	factTrue             // pinned to "remains"; no atoms allocated
	factVar              // solver atoms allocated
)

func newEncoder(prov *chase.Provenance, state func(chase.FactID) factState) *encoder {
	return &encoder{
		prov:  prov,
		gp:    asp.NewGroundProgram(),
		state: state,
		r:     make(map[chase.FactID]asp.AtomID),
		d:     make(map[chase.FactID]asp.AtomID),
	}
}

func (e *encoder) rAtom(f chase.FactID) asp.AtomID { return e.atom(e.r, f, 'r') }
func (e *encoder) dAtom(f chase.FactID) asp.AtomID { return e.atom(e.d, f, 'd') }

func (e *encoder) atom(m map[chase.FactID]asp.AtomID, f chase.FactID, kind byte) asp.AtomID {
	if a, ok := m[f]; ok {
		return a
	}
	a := e.gp.Atom(string(kind) + "#" + strconv.Itoa(int(f)))
	m[f] = a
	return a
}

// build emits the complete program over every fact of the provenance.
func (e *encoder) build() {
	n := e.prov.NumFacts()
	ids := make([]chase.FactID, 0, n)
	for id := 0; id < n; id++ {
		ids = append(ids, chase.FactID(id))
	}
	e.emit(ids)
}

// buildFocused emits the program restricted to the given focus facts and
// then freezes the atom tables: the "remains" atom of every variable fact
// is allocated up front, so later candidate wiring (addCandidate on a
// specialized clone) only reads the shared r/d maps and is safe to run
// from concurrent per-query specializations.
func (e *encoder) buildFocused(focus map[chase.FactID]bool) {
	ids := make([]chase.FactID, 0, len(focus))
	for f := range focus {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	e.emit(ids)
	for _, f := range ids {
		if e.state(f) == factVar {
			e.rAtom(f)
		}
	}
}

// specialize returns an encoder sharing the frozen base state (atom
// tables, provenance, state function) but writing to an independent clone
// of the ground program, so per-query candidates never touch the cached
// base. Only valid after buildFocused has frozen the atom tables.
func (e *encoder) specialize() *encoder {
	spec := *e
	spec.gp = e.gp.Clone()
	return &spec
}

func (e *encoder) emit(universe []chase.FactID) {
	// Covered violations and consistency constraints.
	for vi, v := range e.prov.Violations {
		if !e.covered(v.Body) {
			continue
		}
		e.coveredViolations = append(e.coveredViolations, vi)
		var pos []asp.AtomID
		for _, b := range v.Body {
			if e.state(b) == factVar {
				pos = append(pos, e.rAtom(b))
			}
		}
		e.gp.AddConstraint(pos, nil)
	}

	// Derivation rules for derived variable facts.
	var srcVars []chase.FactID
	for _, f := range universe {
		if e.state(f) != factVar {
			continue
		}
		if e.prov.IsSource(f) {
			srcVars = append(srcVars, f)
			continue
		}
		for _, set := range e.prov.Supports(f) {
			if !e.covered(set) {
				continue
			}
			var pos []asp.AtomID
			for _, b := range set {
				if e.state(b) == factVar {
					pos = append(pos, e.rAtom(b))
				}
			}
			if len(pos) == 0 {
				e.gp.AddFact(e.rAtom(f))
			} else {
				e.gp.AddRule([]asp.AtomID{e.rAtom(f)}, pos, nil)
			}
		}
	}

	// Deletable source facts: those in the support closure of some covered
	// violation, traversing covered support sets only (Proposition 3
	// relativized to the sub-world).
	suspect := e.suspectSources()
	for _, f := range srcVars {
		if !suspect[f] {
			// Belongs to every repair of the sub-world.
			e.gp.AddFact(e.rAtom(f))
			continue
		}
		// Choice; maximality is enforced lazily by maximalityAcceptor.
		r, d := e.rAtom(f), e.dAtom(f)
		e.gp.AddRule([]asp.AtomID{r}, nil, []asp.AtomID{d})
		e.gp.AddRule([]asp.AtomID{d}, nil, []asp.AtomID{r})
		e.gp.AddConstraint([]asp.AtomID{r, d}, nil)
		e.deletable = append(e.deletable, f)
	}
}

// covered reports whether every fact of the set is in the universe.
func (e *encoder) covered(set []chase.FactID) bool {
	for _, b := range set {
		if e.state(b) == factAbsent {
			return false
		}
	}
	return true
}

// suspectSources computes the variable source facts lying in the support
// closure of a covered violation, following covered support sets only.
func (e *encoder) suspectSources() map[chase.FactID]bool {
	closure := make(map[chase.FactID]bool)
	var stack []chase.FactID
	push := func(f chase.FactID) {
		if !closure[f] {
			closure[f] = true
			stack = append(stack, f)
		}
	}
	for _, vi := range e.coveredViolations {
		for _, b := range e.prov.Violations[vi].Body {
			push(b)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range e.prov.Supports(f) {
			if !e.covered(set) {
				continue
			}
			for _, b := range set {
				push(b)
			}
		}
	}
	out := make(map[chase.FactID]bool)
	for f := range closure {
		if e.prov.IsSource(f) && e.state(f) == factVar {
			out[f] = true
		}
	}
	return out
}

// addCandidate wires one candidate answer into the program and returns its
// "remains" atom (true in a stable model iff the answer holds in the
// corresponding XR-solution). It reports whether any support set applies.
func (e *encoder) addCandidate(c *candidate) (asp.AtomID, bool) {
	qa := e.gp.AnonAtom()
	any := false
	for _, set := range c.supports {
		if !e.covered(set) {
			continue
		}
		any = true
		var pos []asp.AtomID
		for _, b := range set {
			if e.state(b) == factVar {
				pos = append(pos, e.rAtom(b))
			}
		}
		if len(pos) == 0 {
			e.gp.AddFact(qa)
		} else {
			e.gp.AddRule([]asp.AtomID{qa}, pos, nil)
		}
	}
	return qa, any
}

// maximalityAcceptor returns the lazy theory check wiring source-repair
// maximality into the solver (Definition 1: no strict consistent superset).
// Given a stable model of the relaxed program (a *consistent* choice of
// deletions), it tests, for every deleted source fact f, whether restoring
// f would realize a covered violation. If some f could be restored
// harmlessly, the model does not correspond to a source repair; the
// acceptor rejects it with the clause
//
//	Rr(f) ∨ ⋁ { Rr(g) : g deleted besides f }
//
// which is sound: if f is deleted and at least as much is kept as in the
// rejected model, restoring f still breaks nothing (derivability is
// monotone), so no repair deletes f together with all of the model's other
// deletions.
func (e *encoder) maximalityAcceptor(s *asp.StableSolver) func(m []bool) [][]asp.Lit {
	return e.acceptorWithIndex(newMaxIndex(e), s, nil)
}

// maxRule is one covered support set in the maximality derivation index.
type maxRule struct {
	head    chase.FactID
	pending int
}

// maxIndex is the static derivation index behind the maximality check:
// covered support sets with pinned facts treated as always present. It
// depends only on the base encoder — never on per-query candidates — so a
// cached signature program builds it once and shares it (read-only) across
// all queries and workers.
type maxIndex struct {
	rules       []maxRule
	watchers    map[chase.FactID][]int32
	seeds       []chase.FactID // derived facts with a fully-pinned set
	pendingInit []int
	allSources  []chase.FactID // variable source facts (seed every fixpoint)
}

// newMaxIndex builds the derivation index, or nil when the encoder has no
// deletable facts (no maximality check needed).
func newMaxIndex(e *encoder) *maxIndex {
	if len(e.deletable) == 0 {
		return nil
	}
	x := &maxIndex{watchers: make(map[chase.FactID][]int32)}
	for f := range e.r {
		if e.prov.IsSource(f) {
			x.allSources = append(x.allSources, f)
			continue
		}
		for _, set := range e.prov.Supports(f) {
			if !e.covered(set) {
				continue
			}
			pending := 0
			for _, b := range set {
				if e.state(b) == factVar {
					pending++
				}
			}
			if pending == 0 {
				x.seeds = append(x.seeds, f)
				continue
			}
			ri := int32(len(x.rules))
			x.rules = append(x.rules, maxRule{head: f, pending: pending})
			for _, b := range set {
				if e.state(b) == factVar {
					x.watchers[b] = append(x.watchers[b], ri)
				}
			}
		}
	}
	x.pendingInit = make([]int, len(x.rules))
	for i, r := range x.rules {
		x.pendingInit[i] = r.pending
	}
	return x
}

// derivableWith computes the facts derivable from the kept source facts
// plus the restored fact, and reports whether a covered violation is
// realized. Read-only on the index; safe for concurrent callers.
func (x *maxIndex) derivableWith(e *encoder, kept map[chase.FactID]bool, restored chase.FactID) bool {
	derived := make(map[chase.FactID]bool, len(kept)+len(x.seeds))
	pending := make([]int, len(x.rules))
	copy(pending, x.pendingInit)
	var queue []chase.FactID
	push := func(f chase.FactID) {
		if !derived[f] {
			derived[f] = true
			queue = append(queue, f)
		}
	}
	for f := range kept {
		push(f)
	}
	push(restored)
	for _, f := range x.seeds {
		push(f)
	}
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range x.watchers[g] {
			pending[ri]--
			if pending[ri] == 0 {
				push(x.rules[ri].head)
			}
		}
	}
	for _, vi := range e.coveredViolations {
		realized := true
		for _, b := range e.prov.Violations[vi].Body {
			if e.state(b) == factVar && !derived[b] {
				realized = false
				break
			}
		}
		if realized {
			return true
		}
	}
	return false
}

// acceptorWithIndex wires the maximality check onto a solver using a
// prebuilt derivation index (nil index means nothing to check). onLearn,
// when non-nil, is called once per distinct clause a rejection learns: two
// deleted facts that could each be restored alone yield the same clause
// twice, and both copies still go to the solver.
func (e *encoder) acceptorWithIndex(x *maxIndex, s *asp.StableSolver, onLearn func()) func(m []bool) [][]asp.Lit {
	if x == nil {
		return nil
	}

	// Bias the search toward keeping facts: maximal models first.
	{
		atoms := make([]asp.AtomID, 0, len(e.deletable))
		for _, f := range e.deletable {
			atoms = append(atoms, e.r[f])
		}
		s.PreferTrue(atoms)
	}

	// keptExcept builds the kept-set with exactly the given facts deleted.
	keptExcept := func(deleted map[chase.FactID]bool) map[chase.FactID]bool {
		kept := make(map[chase.FactID]bool, len(x.allSources))
		for _, g := range x.allSources {
			if !deleted[g] {
				kept[g] = true
			}
		}
		return kept
	}

	// Clause minimization is quadratic in the deleted set; past this size
	// the unminimized clause is used (still sound, just weaker).
	const minimizeCap = 24

	return func(m []bool) [][]asp.Lit {
		kept := make(map[chase.FactID]bool)
		var deleted []chase.FactID
		for f, a := range e.r {
			if e.prov.IsSource(f) && m[a] {
				kept[f] = true
			}
		}
		for _, f := range e.deletable {
			if m[e.d[f]] {
				deleted = append(deleted, f)
			}
		}
		var learned [][]asp.Lit
		for _, f := range deleted {
			if s.Canceled() {
				return nil // abandon refinement; the caller is timing out
			}
			if x.derivableWith(e, kept, f) {
				continue // restoring f breaks something: deletion justified
			}
			// The model is not a repair: f could be restored harmlessly.
			// Learn the clause ¬d(f) ∨ ⋁ { r(g) : g ∈ S } for a small
			// support set S of deleted facts. Soundness criterion: the
			// clause is valid iff restoring f is harmless when everything
			// outside S ∪ {f} is kept (derivability is monotone in the kept
			// set, so harmlessness at the maximal kept set implies it for
			// every model the clause fires on). Greedily shrink S from the
			// model's deleted set, which satisfies the criterion by
			// construction.
			sup := make(map[chase.FactID]bool, len(deleted))
			for _, g := range deleted {
				if g != f {
					sup[g] = true
				}
			}
			sup[f] = true // f itself is always out of the kept set here
			if len(deleted) <= minimizeCap {
				for _, g := range deleted {
					if g == f {
						continue
					}
					delete(sup, g)
					if x.derivableWith(e, keptExcept(sup), f) {
						sup[g] = true // g is load-bearing; keep it in the clause
					}
				}
			}
			delete(sup, f)
			atoms := make([]asp.AtomID, 0, len(sup)+1)
			atoms = append(atoms, e.r[f])
			for g := range sup {
				atoms = append(atoms, e.r[g])
			}
			// Sort: sup is a map, and clause literal order steers the
			// solver's watches — sorted clauses keep solver effort (and so
			// the telemetry counters) deterministic run to run.
			sort.Slice(atoms, func(i, j int) bool { return atoms[i] < atoms[j] })
			clause := make([]asp.Lit, len(atoms))
			for i, a := range atoms {
				clause[i] = s.AtomLit(a, true)
			}
			if onLearn != nil && !slices.ContainsFunc(learned, func(c []asp.Lit) bool { return slices.Equal(c, clause) }) {
				onLearn()
			}
			learned = append(learned, clause)
		}
		return learned
	}
}
