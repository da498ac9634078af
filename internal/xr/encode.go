package xr

import (
	"slices"
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

// maxIndex is the static derivation index behind the maximality check:
// covered support sets with pinned facts treated as always present. It
// depends only on the base encoder — never on per-query candidates — so a
// cached signature program builds it once and shares it (read-only) across
// all queries and workers. It numbers the encoder's variable facts densely
// (local ids, in FactID order), so a check runs on slices, not maps.
type maxIndex struct {
	// Each rule is one covered support set with a variable fact: the fact
	// it derives, and how many of its facts are variable.
	heads       []int32
	pendingInit []int32
	watchers    [][]int32    // local fact -> rules with it in their set
	seeds       []int32      // derived facts with a fully-pinned set
	sources     []int32      // variable source facts (seed every fixpoint)
	sourceAtom  []asp.AtomID // "remains" atom of each of sources
	violations  [][]int32    // variable facts of each covered violation body
	// deletable lists the encoder's deletable facts in its order, with
	// their "remains" and "deleted" atoms.
	deletable []int32
	delR      []asp.AtomID
	delD      []asp.AtomID
}

// newMaxIndex builds the derivation index, or nil when the encoder has no
// deletable facts (no maximality check needed).
func newMaxIndex(e *encoder) *maxIndex {
	if len(e.deletable) == 0 {
		return nil
	}
	facts := make([]chase.FactID, 0, len(e.r))
	for f := range e.r {
		facts = append(facts, f)
	}
	slices.Sort(facts)
	ids := make(map[chase.FactID]int32, len(facts))
	for i, f := range facts {
		ids[f] = int32(i)
	}
	// Every variable fact has a "remains" atom (buildFocused, emit), so
	// every fact the check derives or tests has a local id.
	local := func(f chase.FactID) int32 {
		i, ok := ids[f]
		if !ok {
			panic("xr: maximality index: variable fact without a remains atom")
		}
		return i
	}
	x := &maxIndex{watchers: make([][]int32, len(facts))}
	for i, f := range facts {
		if e.prov.IsSource(f) {
			x.sources = append(x.sources, int32(i))
			x.sourceAtom = append(x.sourceAtom, e.r[f])
			continue
		}
		for _, set := range e.prov.Supports(f) {
			if !e.covered(set) {
				continue
			}
			var pending int32
			for _, b := range set {
				if e.state(b) == factVar {
					pending++
				}
			}
			if pending == 0 {
				x.seeds = append(x.seeds, int32(i))
				continue
			}
			ri := int32(len(x.heads))
			x.heads = append(x.heads, int32(i))
			x.pendingInit = append(x.pendingInit, pending)
			for _, b := range set {
				if e.state(b) == factVar {
					x.watchers[local(b)] = append(x.watchers[local(b)], ri)
				}
			}
		}
	}
	for _, vi := range e.coveredViolations {
		var body []int32
		for _, b := range e.prov.Violations[vi].Body {
			if e.state(b) == factVar {
				body = append(body, local(b))
			}
		}
		x.violations = append(x.violations, body)
	}
	for _, f := range e.deletable {
		x.deletable = append(x.deletable, local(f))
		x.delR = append(x.delR, e.r[f])
		x.delD = append(x.delD, e.d[f])
	}
	return x
}

// stampSet is a set of local fact ids stamped with a generation: an id is
// a member while its mark equals gen, so reset empties the set in O(1).
type stampSet struct {
	marks []uint32
	gen   uint32
}

func newStampSet(n int) stampSet { return stampSet{marks: make([]uint32, n), gen: 1} }

func (s *stampSet) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: no old mark may look current
		clear(s.marks)
		s.gen = 1
	}
}

func (s *stampSet) add(f int32)           { s.marks[f] = s.gen }
func (s *stampSet) remove(f int32)        { s.marks[f] = 0 }
func (s *stampSet) contains(f int32) bool { return s.marks[f] == s.gen }

// maxWork is one acceptor's working memory over the index's local fact
// ids: the facts derived in the current fixpoint, the source facts the
// checked model drops, and the clause support set being minimized.
type maxWork struct {
	derived, dropped, sup stampSet
	pending               []int32
	queue                 []int32
}

func (x *maxIndex) newWork() *maxWork {
	n := len(x.watchers)
	return &maxWork{
		derived: newStampSet(n),
		dropped: newStampSet(n),
		sup:     newStampSet(n),
		pending: make([]int32, len(x.heads)),
	}
}

// derivableWith computes the facts derivable from the kept source facts —
// every variable source fact outside out — plus the restored fact, and
// reports whether a covered violation is realized. Read-only on the
// index; the working memory belongs to one caller.
func (x *maxIndex) derivableWith(wk *maxWork, out *stampSet, restored int32) bool {
	d := &wk.derived
	d.reset()
	copy(wk.pending, x.pendingInit)
	queue := wk.queue[:0]
	push := func(f int32) {
		if !d.contains(f) {
			d.add(f)
			queue = append(queue, f)
		}
	}
	for _, f := range x.sources {
		if !out.contains(f) {
			push(f)
		}
	}
	push(restored)
	for _, f := range x.seeds {
		push(f)
	}
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range x.watchers[g] {
			wk.pending[ri]--
			if wk.pending[ri] == 0 {
				push(x.heads[ri])
			}
		}
	}
	wk.queue = queue
	for _, body := range x.violations {
		realized := true
		for _, b := range body {
			if !d.contains(b) {
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
// twice, and both copies still go to the solver. The acceptor owns its
// working stamp sets; the index stays shared and read-only.
func (e *encoder) acceptorWithIndex(x *maxIndex, s *asp.StableSolver, onLearn func()) func(m []bool) [][]asp.Lit {
	if x == nil {
		return nil
	}

	// Bias the search toward keeping facts: maximal models first.
	s.PreferTrue(x.delR)

	// Clause minimization is quadratic in the deleted set; past this size
	// the unminimized clause is used (still sound, just weaker).
	const minimizeCap = 24

	wk := x.newWork()
	var deleted []int // positions in x.deletable
	return func(m []bool) [][]asp.Lit {
		wk.dropped.reset()
		for i, f := range x.sources {
			if !m[x.sourceAtom[i]] {
				wk.dropped.add(f)
			}
		}
		deleted = deleted[:0]
		for i := range x.deletable {
			if m[x.delD[i]] {
				deleted = append(deleted, i)
			}
		}
		var learned [][]asp.Lit
		for _, di := range deleted {
			f := x.deletable[di]
			if s.Canceled() {
				return nil // abandon refinement; the caller is timing out
			}
			if x.derivableWith(wk, &wk.dropped, f) {
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
			sup := &wk.sup
			sup.reset()
			for _, dj := range deleted {
				sup.add(x.deletable[dj]) // f itself is always out of the kept set here
			}
			if len(deleted) <= minimizeCap {
				for _, dj := range deleted {
					g := x.deletable[dj]
					if g == f {
						continue
					}
					sup.remove(g)
					if x.derivableWith(wk, sup, f) {
						sup.add(g) // g is load-bearing; keep it in the clause
					}
				}
			}
			atoms := make([]asp.AtomID, 0, len(deleted))
			atoms = append(atoms, x.delR[di])
			for _, dj := range deleted {
				if dj != di && sup.contains(x.deletable[dj]) {
					atoms = append(atoms, x.delR[dj])
				}
			}
			// Sort: clause literal order steers the solver's watches —
			// sorted clauses keep solver effort (and so the telemetry
			// counters) deterministic run to run.
			slices.Sort(atoms)
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
