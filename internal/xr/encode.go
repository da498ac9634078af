package xr

import (
	"slices"
	"sort"

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
// Pinned facts (the safe part in the segmentary pipeline) are fixed to the
// remainder state, and every literal about them evaluates away. Support
// sets and violations reaching outside the variable and pinned facts are
// omitted — they do not exist in the restricted sub-world (Theorem 4).
//
// # One numbering
//
// A program numbers its variable facts densely: a fact's local id is its
// index in vars, which is ascending, so the source facts come first. Every
// table behind the program is a slice over local ids — the "remains" and
// "deleted" atoms, the suspect closure, the maximality index, witnesses
// and candidate keys — and the atoms themselves are anonymous.
type encoder struct {
	prov *chase.Provenance
	gp   *asp.GroundProgram

	vars       []chase.FactID // variable facts, ascending; local id = index
	sources    int            // vars[:sources] are source facts
	pinned     []bool         // by FactID, facts pinned to "remains" (nil: none)
	violations []int          // covered violations, ascending indexes into prov.Violations

	r         []asp.AtomID // by local id, the "remains" atom
	d         []asp.AtomID // by local id, the "deleted" atom of a deletable fact
	deletable []int32      // local ids of the source facts with a choice, ascending
}

// newEncoder grounds the program over the variable facts vars (ascending),
// with the facts marked in pinned held true and the given violations
// (ascending) as its constraints. Each violation must be covered: every
// fact of its body variable or pinned. Atoms are allocated on first use:
// in the order the rules meet the facts, then each variable fact without a
// rule (a derived fact none of whose support sets is covered). So every
// variable fact has its "remains" atom once the build returns, and
// candidate wiring on a specialization only reads the tables.
func newEncoder(prov *chase.Provenance, vars []chase.FactID, pinned []bool, violations []int) *encoder {
	e := &encoder{
		prov:       prov,
		gp:         asp.NewGroundProgram(),
		vars:       vars,
		sources:    sort.Search(len(vars), func(i int) bool { return !prov.IsSource(vars[i]) }),
		pinned:     pinned,
		violations: violations,
		r:          make([]asp.AtomID, len(vars)),
		d:          make([]asp.AtomID, len(vars)),
	}
	for l := range e.r {
		e.r[l] = -1
	}
	e.emit()
	for l := range e.r {
		e.rAtom(int32(l))
	}
	return e
}

// wholeEncoder grounds the program of the whole exchange: every fact not
// pinned is variable (pinned may be nil), and every violation is covered.
func wholeEncoder(prov *chase.Provenance, pinned []bool) *encoder {
	var vars []chase.FactID
	for f := range chase.FactID(prov.NumFacts()) {
		if int(f) >= len(pinned) || !pinned[f] {
			vars = append(vars, f)
		}
	}
	violations := make([]int, len(prov.Violations))
	for vi := range violations {
		violations[vi] = vi
	}
	return newEncoder(prov, vars, pinned, violations)
}

// specialize returns an encoder sharing the base tables (numbering, atoms,
// provenance) but writing to an independent clone of the ground program,
// so per-query candidates never touch the cached base.
func (e *encoder) specialize() *encoder {
	spec := *e
	spec.gp = e.gp.Clone()
	return &spec
}

// rAtom returns the "remains" atom of local fact l, allocating it on first
// use; only the build allocates.
func (e *encoder) rAtom(l int32) asp.AtomID {
	if e.r[l] < 0 {
		e.r[l] = e.gp.AnonAtom()
	}
	return e.r[l]
}

// remains returns the "remains" atoms of the local facts ls, in order.
func (e *encoder) remains(ls []int32) []asp.AtomID {
	atoms := make([]asp.AtomID, len(ls))
	for i, l := range ls {
		atoms[i] = e.rAtom(l)
	}
	return atoms
}

// locals appends to buf the local ids of the set's variable facts, in set
// order, and reports whether the set is covered: whether each of its facts
// is variable or pinned.
func (e *encoder) locals(buf []int32, set []chase.FactID) ([]int32, bool) {
	for _, f := range set {
		if int(f) < len(e.pinned) && e.pinned[f] {
			continue
		}
		l, ok := slices.BinarySearch(e.vars, f)
		if !ok {
			return buf, false
		}
		buf = append(buf, int32(l))
	}
	return buf, true
}

func (e *encoder) emit() {
	// Consistency constraints.
	var ls []int32
	for _, vi := range e.violations {
		ls, _ = e.locals(ls[:0], e.prov.Violations[vi].Body)
		e.gp.AddConstraint(e.remains(ls), nil)
	}

	// Derivation rules for derived variable facts.
	for l := e.sources; l < len(e.vars); l++ {
		for _, set := range e.prov.Supports(e.vars[l]) {
			var covered bool
			if ls, covered = e.locals(ls[:0], set); !covered {
				continue
			}
			if pos := e.remains(ls); len(pos) == 0 {
				e.gp.AddFact(e.rAtom(int32(l)))
			} else {
				e.gp.AddRule([]asp.AtomID{e.rAtom(int32(l))}, pos, nil)
			}
		}
	}

	// Deletable source facts: those in the support closure of some covered
	// violation, traversing covered support sets only (Proposition 3
	// relativized to the sub-world).
	suspect := e.suspect()
	for l := range int32(e.sources) {
		r := e.rAtom(l)
		if !suspect[l] {
			// Belongs to every repair of the sub-world.
			e.gp.AddFact(r)
			continue
		}
		// Choice; maximality is enforced lazily by maximalityAcceptor.
		d := e.gp.AnonAtom()
		e.d[l] = d
		e.gp.AddRule([]asp.AtomID{r}, nil, []asp.AtomID{d})
		e.gp.AddRule([]asp.AtomID{d}, nil, []asp.AtomID{r})
		e.gp.AddConstraint([]asp.AtomID{r, d}, nil)
		e.deletable = append(e.deletable, l)
	}
}

// suspect marks, by local id, the facts in the support closure of the
// covered violations, following covered support sets only. The closure
// holds no pinned fact: every source fact in a violation's support closure
// is suspect, so none of its facts is safe-derivable.
func (e *encoder) suspect() []bool {
	closure := make([]bool, len(e.vars))
	var stack, ls []int32
	push := func(add []int32) {
		for _, l := range add {
			if !closure[l] {
				closure[l] = true
				stack = append(stack, l)
			}
		}
	}
	for _, vi := range e.violations {
		ls, _ = e.locals(ls[:0], e.prov.Violations[vi].Body)
		push(ls)
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range e.prov.Supports(e.vars[l]) {
			var covered bool
			if ls, covered = e.locals(ls[:0], set); covered {
				push(ls)
			}
		}
	}
	return closure
}

// addCandidate wires one candidate answer into the program and returns its
// "remains" atom (true in a stable model iff the answer holds in the
// corresponding XR-solution). It reports whether any support set applies.
func (e *encoder) addCandidate(c *candidate) (asp.AtomID, bool) {
	qa := e.gp.AnonAtom()
	any := false
	var ls []int32
	for _, set := range c.supports {
		var covered bool
		if ls, covered = e.locals(ls[:0], set); !covered {
			continue
		}
		any = true
		if len(ls) == 0 {
			e.gp.AddFact(qa)
		} else {
			e.gp.AddRule([]asp.AtomID{qa}, e.remains(ls), nil)
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
// covered support sets with pinned facts treated as always present, over
// the encoder's local fact ids. It depends only on the base encoder —
// never on per-query candidates — so a cached signature program builds it
// once and shares it (read-only) across all queries and workers.
type maxIndex struct {
	// Each rule is one covered support set with a variable fact: the fact
	// it derives, and how many of its facts are variable.
	heads       []int32
	pendingInit []int32
	watchers    [][]int32 // local fact -> rules with it in their set
	seeds       []int32   // derived facts with a fully-pinned set
	sources     int32     // local facts below it are sources (seed every fixpoint)
	violations  [][]int32 // variable facts of each covered violation body
}

// newMaxIndex builds the derivation index, or nil when the encoder has no
// deletable facts (no maximality check needed).
func newMaxIndex(e *encoder) *maxIndex {
	if len(e.deletable) == 0 {
		return nil
	}
	x := &maxIndex{watchers: make([][]int32, len(e.vars)), sources: int32(e.sources)}
	var ls []int32
	for l := e.sources; l < len(e.vars); l++ {
		for _, set := range e.prov.Supports(e.vars[l]) {
			var covered bool
			if ls, covered = e.locals(ls[:0], set); !covered {
				continue
			}
			if len(ls) == 0 {
				x.seeds = append(x.seeds, int32(l))
				continue
			}
			ri := int32(len(x.heads))
			x.heads = append(x.heads, int32(l))
			x.pendingInit = append(x.pendingInit, int32(len(ls)))
			for _, b := range ls {
				x.watchers[b] = append(x.watchers[b], ri)
			}
		}
	}
	for _, vi := range e.violations {
		body, _ := e.locals(nil, e.prov.Violations[vi].Body)
		x.violations = append(x.violations, body)
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
	for f := range x.sources {
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
	keep := make([]asp.AtomID, len(e.deletable))
	for i, l := range e.deletable {
		keep[i] = e.r[l]
	}
	s.PreferTrue(keep)

	// Clause minimization is quadratic in the deleted set; past this size
	// the unminimized clause is used (still sound, just weaker).
	const minimizeCap = 24

	wk := x.newWork()
	var deleted []int32 // local ids of the model's deleted facts
	return func(m []bool) [][]asp.Lit {
		wk.dropped.reset()
		for f := range x.sources {
			if !m[e.r[f]] {
				wk.dropped.add(f)
			}
		}
		deleted = deleted[:0]
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
			for _, g := range deleted {
				sup.add(g) // f itself is always out of the kept set here
			}
			if len(deleted) <= minimizeCap {
				for _, g := range deleted {
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
			atoms = append(atoms, e.r[f])
			for _, g := range deleted {
				if g != f && sup.contains(g) {
					atoms = append(atoms, e.r[g])
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
