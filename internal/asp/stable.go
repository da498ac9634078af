package asp

import (
	"context"

	"repro/internal/graph"
)

// This file implements the stable-model semantics on top of the CDCL core,
// in the generate-and-test lineage of GnT / claspD:
//
//  1. The program's rules are translated to clauses; classical models of
//     the clauses over-approximate stable models. Support (completion)
//     clauses are added: every stable model is *supported* — each true atom
//     needs a rule with a true body whose head contains it.
//
//  2. Normal programs (every head a single atom — the common case for the
//     repair encodings) take a polynomial verification path: a candidate
//     model m is stable iff m = lfp(reduct^m). Because the reduct is a
//     function of m's values on the negatively-occurring atoms only, a
//     failed candidate either *repairs itself* (the fixpoint f agrees with
//     m on those atoms, in which case f is itself stable and is returned)
//     or rules out its entire negative signature, which is learned as a
//     clause; per-SCC loop formulas over the unfounded set m \ f are
//     learned as well (Lin & Zhao), so positive cycles are pruned by unit
//     propagation in later candidates.
//
//  3. Disjunctive programs use the generic path: candidates are shrunk to
//     minimal classical models (every stable model of a DLP is one), then
//     checked for reduct-minimality with a secondary SAT call (the check is
//     coNP-hard in general). Failures learn the disjunctive loop formula of
//     the unfounded set (Lee & Lifschitz) plus the all-negative blocking
//     clause ∨_{a∈M} ¬a, which removes only M and its supersets — no
//     stable model is lost since stable models are minimal models.
//
//  4. An optional Acceptor implements lazy theory checking (used by the
//     repair pipelines for source-repair maximality): verified stable
//     models may be rejected with learned clauses before being returned.
//
// The blocking and candidate-narrowing clauses used by Cautious are
// all-negative (closed under subsets), keeping the minimization of the
// disjunctive path sound throughout; Brave's progress clauses are positive
// but the disjunctive path's completeness argument only needs blocked
// models to be classical models, which holds regardless.

// StableSolver answers stable-model queries about one ground program.
type StableSolver struct {
	prog *GroundProgram
	sat  *Solver
	vars []Var // atom -> sat var

	headRules [][]int32 // atom -> indexes of rules with the atom in head
	bodyAux   []Var     // rule -> aux var implying the body (0 = none yet)

	// lfpReduct's index, extended with the program: posWatch lists, per
	// atom, the headed rules with the atom in their positive body (once
	// per occurrence); bodyless lists the headed rules with an empty
	// positive body. Its per-call state is lfpPending[ri] (unsatisfied
	// positive body atoms, -1 for a rule the reduct drops), valid only
	// while lfpRules contains ri, so a call touches only the rules its
	// fixpoint reaches.
	posWatch   [][]int32
	bodyless   []int32
	lfpRules   stamps
	lfpPending []int32
	lfpQueue   []AtomID

	// normal is true when every rule has at most one head atom. For normal
	// programs the stability check is polynomial — M is stable iff
	// M = lfp(reduct^M) — so candidate models are verified with a linear
	// fixpoint instead of minimization plus a secondary SAT call.
	normal bool
	// negAtoms lists the atoms occurring in some negative body; the reduct
	// (and hence the unique stable-model candidate) is a function of a
	// model's values on exactly these atoms. negSeen mirrors it as a set so
	// Extend can keep it deduplicated across program growth.
	negAtoms []AtomID
	negSeen  map[AtomID]bool

	// isFact / nFacts track which atoms were asserted as facts and how many
	// fact entries have been translated, so Extend can pick up program
	// growth (new atoms, rules, and facts) incrementally.
	isFact []bool
	nFacts int

	// root is the solver-lifetime scope that the solver's own query methods
	// run in. Its activation variable is 0: its clauses are unguarded and its
	// assumptions (SetAssumptions) hold for every later search, so a query
	// made through it spends the solver. StartSession opens guarded child
	// scopes that inherit its assumptions.
	root Session

	// retired counts closed sessions since the last Simplify; every few
	// closures the satisfied (deactivated) session clauses are reclaimed.
	retired int

	// Acceptor, when set, implements lazy theory checking: each stable
	// model is passed to it before being returned. A nil result accepts the
	// model; a non-empty result rejects it and adds the returned clauses
	// (which must exclude the rejected model, and must be sound — never
	// excluding an acceptable model). Build literals with AtomLit.
	Acceptor func(m []bool) [][]Lit

	// Stable-model layer counters; Stats reports them together with the
	// CDCL core's.
	CandidatesTested int
	StabilityFails   int
	LoopsLearned     int
	TheoryRejects    int
}

// SetContext installs a context on the underlying SAT solver; once it is
// done, in-flight stable-model searches return promptly with "no model"
// (check Canceled to tell cancellation apart from exhaustion).
func (s *StableSolver) SetContext(ctx context.Context) { s.sat.SetContext(ctx) }

// Canceled reports whether the installed context is done.
func (s *StableSolver) Canceled() bool { return s.sat.Canceled() }

// SetBudget installs decision/conflict effort limits (0 = unlimited) on the
// underlying SAT solver; see Solver.SetBudget. The budget covers the whole
// stable-model session (all candidate searches of an Enumerate, Cautious,
// or Brave call), not one SAT search. When the budget runs out mid-session
// the session ends early with "no more models"; callers must check
// Exhausted and discard the partial result (Cautious's narrowing, for
// example, over-approximates when cut short).
func (s *StableSolver) SetBudget(maxDecisions, maxConflicts int64) {
	s.sat.SetBudget(maxDecisions, maxConflicts)
}

// Exhausted reports whether the SetBudget limit was reached (sticky).
func (s *StableSolver) Exhausted() bool { return s.sat.Exhausted() }

// AtomLit returns the solver literal for an atom, for use in Acceptor
// clauses.
func (s *StableSolver) AtomLit(a AtomID, positive bool) Lit {
	if positive {
		return PosLit(s.vars[a])
	}
	return NegLit(s.vars[a])
}

// maxLoopFormulaSize bounds the work spent learning one loop formula.
const maxLoopFormulaSize = 100_000

// NewStableSolver translates prog into clauses (rule clauses plus support
// clauses). The returned solver accumulates blocking clauses; enumeration
// and cautious calls consume it.
func NewStableSolver(prog *GroundProgram) *StableSolver {
	s := &StableSolver{prog: prog, sat: NewSolver(), normal: true, negSeen: make(map[AtomID]bool)}
	s.root.s = s
	s.extend(0, 0)
	return s
}

// Extend incorporates program growth into a live solver: atoms, rules,
// and facts appended to the ground program since the last build are
// translated (fresh SAT vars, rule clauses, fact units, and support
// clauses for the new atoms). New rules must head only new atoms — an
// old atom's support clause is already frozen, so giving it a new rule
// would silently lose the completion direction. This is what lets a
// persistent per-signature solver take on additional candidate atoms
// without being rebuilt.
func (s *StableSolver) Extend() {
	if s.sat.decisionLevel() != 0 {
		panic("asp: Extend while not at decision level 0")
	}
	s.extend(len(s.vars), len(s.bodyAux))
}

func (s *StableSolver) extend(fromAtom, fromRule int) {
	prog := s.prog
	// Size the arena for the rule clauses and the support clauses: one
	// literal per atom and one per rule heading it (without the body aux
	// clauses, which only rules with longer bodies need).
	clauses, words := prog.NumAtoms()-fromAtom, 2*(prog.NumAtoms()-fromAtom)
	for ri := fromRule; ri < prog.NumRules(); ri++ {
		r := prog.Rule(ri)
		clauses++
		words += 1 + 2*len(r.Head) + len(r.Pos) + len(r.Neg)
		if len(r.Head) > 1 {
			s.normal = false
		}
		for _, h := range r.Head {
			if int(h) < fromAtom {
				panic("asp: Extend with a rule heading a pre-existing atom")
			}
		}
		for _, g := range r.Neg {
			if !s.negSeen[g] {
				s.negSeen[g] = true
				s.negAtoms = append(s.negAtoms, g)
			}
		}
	}
	s.sat.reserve(clauses, words)
	for a := fromAtom; a < prog.NumAtoms(); a++ {
		s.vars = append(s.vars, s.sat.NewVar())
		s.headRules = append(s.headRules, nil)
		s.posWatch = append(s.posWatch, nil)
		s.isFact = append(s.isFact, false)
	}
	for fi := s.nFacts; fi < prog.NumFacts(); fi++ {
		f := prog.Fact(fi)
		s.isFact[f] = true
		s.sat.AddClause(PosLit(s.vars[f]))
	}
	s.nFacts = prog.NumFacts()
	var buf []Lit
	for ri := fromRule; ri < prog.NumRules(); ri++ {
		r := prog.Rule(ri)
		s.bodyAux = append(s.bodyAux, 0)
		s.lfpPending = append(s.lfpPending, 0)
		if len(r.Head) > 0 {
			if len(r.Pos) == 0 {
				s.bodyless = append(s.bodyless, int32(ri))
			}
			for _, b := range r.Pos {
				s.posWatch[b] = append(s.posWatch[b], int32(ri))
			}
		}
		lits := buf[:0] // AddClause copies what it keeps
		for _, h := range r.Head {
			lits = append(lits, PosLit(s.vars[h]))
			s.headRules[h] = append(s.headRules[h], int32(ri))
		}
		for _, b := range r.Pos {
			lits = append(lits, NegLit(s.vars[b]))
		}
		for _, n := range r.Neg {
			lits = append(lits, PosLit(s.vars[n]))
		}
		s.sat.AddClause(lits...)
		buf = lits
	}
	s.lfpRules.grow(prog.NumRules())
	// Support clauses: a → ∨_{r: a ∈ head(r)} body(r), via body aux vars.
	// Only new atoms need one; every rule of a new atom is itself new.
	for a := fromAtom; a < prog.NumAtoms(); a++ {
		if s.isFact[a] {
			continue
		}
		rules := s.headRules[a]
		clause := append(buf[:0], NegLit(s.vars[AtomID(a)]))
		trivial := false
		for _, ri := range rules {
			w, ok := s.bodyWitness(int(ri))
			if !ok {
				trivial = true // empty body: always supported
				break
			}
			clause = append(clause, w)
		}
		if !trivial {
			s.sat.AddClause(clause...)
		}
		buf = clause
	}
}

// bodyWitness returns a literal implying the rule's body (true only if every
// positive body atom is true and every negative one false). For empty
// bodies it reports ok=false (the body is trivially true). Single-literal
// bodies reuse the literal; longer bodies get a cached aux variable.
func (s *StableSolver) bodyWitness(ri int) (Lit, bool) {
	r := s.prog.Rule(ri)
	n := len(r.Pos) + len(r.Neg)
	switch n {
	case 0:
		return 0, false
	case 1:
		if len(r.Pos) == 1 {
			return PosLit(s.vars[r.Pos[0]]), true
		}
		return NegLit(s.vars[r.Neg[0]]), true
	}
	if s.bodyAux[ri] != 0 {
		return PosLit(s.bodyAux[ri]), true
	}
	aux := s.sat.NewVar()
	s.bodyAux[ri] = aux
	for _, b := range r.Pos {
		s.sat.AddClause(NegLit(aux), PosLit(s.vars[b]))
	}
	for _, g := range r.Neg {
		s.sat.AddClause(NegLit(aux), NegLit(s.vars[g]))
	}
	return PosLit(aux), true
}

// model extracts the current SAT model as an atom truth vector.
func (s *StableSolver) model() []bool {
	m := make([]bool, len(s.vars))
	for a, v := range s.vars {
		m[a] = s.sat.ModelValue(v)
	}
	return m
}

// minimize shrinks a classical model to a minimal classical model (w.r.t.
// the current clause database and the active assumptions) by iterated SAT
// calls constrained to strict subsets.
func (s *StableSolver) minimize(m []bool, sess *Session) []bool {
	act := s.sat.NewVar()
	frozen := make([]bool, len(m)) // atoms already forced false under act
	for {
		// Force every false atom to stay false while act holds.
		for a, tv := range m {
			if !tv && !frozen[a] {
				frozen[a] = true
				s.sat.AddClause(NegLit(act), NegLit(s.vars[a]))
			}
		}
		// Demand at least one currently-true atom become false.
		shrink := []Lit{NegLit(act)}
		for a, tv := range m {
			if tv {
				shrink = append(shrink, NegLit(s.vars[a]))
			}
		}
		s.sat.AddClause(shrink...)
		if !s.solve(sess, PosLit(act)) {
			break // m is minimal
		}
		m = s.model()
	}
	s.sat.AddClause(NegLit(act)) // retire the activation scope
	return m
}

// solve runs one SAT search under the session's activation literal (none
// at the root), its pinned atoms, and any extra literals, in that fixed
// order so search traces are deterministic.
func (s *StableSolver) solve(sess *Session, extra ...Lit) bool {
	lits := make([]Lit, 0, 1+len(sess.assumps)+len(extra))
	if sess.act != 0 {
		lits = append(lits, PosLit(sess.act))
	}
	for _, a := range sess.assumps {
		lits = append(lits, s.assumpLit(a))
	}
	lits = append(lits, extra...)
	return s.sat.SolveUnderAssumptions(lits)
}

func (s *StableSolver) assumpLit(a AtomAssumption) Lit {
	if a.True {
		return PosLit(s.vars[a.Atom])
	}
	return NegLit(s.vars[a.Atom])
}

// assumptionsHold reports whether the model satisfies every assumption.
func assumptionsHold(m []bool, as []AtomAssumption) bool {
	for _, a := range as {
		if m[a.Atom] != a.True {
			return false
		}
	}
	return true
}

// checkStable checks whether a minimal classical model m is a minimal model
// of the reduct Π^m, via a secondary SAT instance over the atoms true in m.
// On failure it returns the smaller reduct model.
func (s *StableSolver) checkStable(m []bool) (bool, []bool) {
	sub := NewSolver()
	// The secondary search inherits the primary solver's context so a
	// per-signature timeout also bounds the coNP-hard check; it runs
	// unbudgeted (the effort budget is a property of the primary search) but
	// any result reached after cancellation is discarded by the callers'
	// Canceled checks.
	sub.ctx = s.sat.ctx
	subVar := make(map[AtomID]Var)
	varOf := func(a AtomID) Var {
		if v, ok := subVar[a]; ok {
			return v
		}
		v := sub.NewVar()
		subVar[a] = v
		return v
	}
	for fi := range s.prog.NumFacts() {
		f := s.prog.Fact(fi)
		if !m[f] {
			return false, nil // cannot happen for a classical model; be safe
		}
		sub.AddClause(PosLit(varOf(f)))
	}
rules:
	for ri := range s.prog.NumRules() {
		r := s.prog.Rule(ri)
		for _, n := range r.Neg {
			if m[n] {
				continue rules // rule dropped by the reduct
			}
		}
		for _, b := range r.Pos {
			if !m[b] {
				continue rules // body false under every subset of m
			}
		}
		lits := make([]Lit, 0, len(r.Head)+len(r.Pos))
		for _, h := range r.Head {
			if m[h] {
				lits = append(lits, PosLit(varOf(h)))
			}
		}
		for _, b := range r.Pos {
			lits = append(lits, NegLit(varOf(b)))
		}
		if !sub.AddClause(lits...) {
			return true, nil // empty clause: no strict-subset model exists
		}
	}
	// Demand a strict subset: at least one atom of m false.
	strict := make([]Lit, 0, len(subVar))
	for a, tv := range m {
		if tv {
			strict = append(strict, NegLit(varOf(AtomID(a))))
		}
	}
	if len(strict) == 0 {
		return true, nil // m = ∅ is trivially minimal
	}
	if !sub.AddClause(strict...) {
		return true, nil
	}
	if !sub.Solve() {
		return true, nil
	}
	smaller := make([]bool, len(m))
	for a, v := range subVar {
		smaller[a] = sub.ModelValue(v)
	}
	return false, smaller
}

// learnLoop adds the disjunctive loop formula of the unfounded set
// L = m \ smaller (Lee & Lifschitz): for every a ∈ L,
//
//	a → ∨ { body(r) ∧ ¬(head(r) \ L) : r with head∩L ≠ ∅, pos-body∩L = ∅ }.
func (s *StableSolver) learnLoop(m, smaller []bool) {
	var loop []AtomID
	inLoop := make(map[AtomID]bool)
	for a := range m {
		if m[a] && !smaller[a] {
			loop = append(loop, AtomID(a))
			inLoop[AtomID(a)] = true
		}
	}
	s.learnLoopSet(loop, inLoop)
}

// learnUnfounded decomposes the unfounded set m \ lfp into strongly
// connected components of the positive dependency graph restricted to it
// and learns one loop formula per component. Per-SCC formulas are smaller
// and generalize across candidates far better than whole-set formulas.
func (s *StableSolver) learnUnfounded(m, lfp []bool) {
	unfounded := make(map[AtomID]bool)
	var atoms []AtomID
	for a := range m {
		if m[a] && !lfp[a] {
			unfounded[AtomID(a)] = true
			atoms = append(atoms, AtomID(a))
		}
	}
	if len(atoms) == 0 {
		return
	}
	// Positive dependency edges within the unfounded set: head -> pos body.
	edges := make(map[AtomID][]AtomID, len(atoms))
	selfLoop := make(map[AtomID]bool)
	for _, a := range atoms {
		for _, ri := range s.headRules[a] {
			for _, b := range s.prog.Rule(int(ri)).Pos {
				if unfounded[b] {
					if b == a {
						selfLoop[a] = true
					}
					edges[a] = append(edges[a], b)
				}
			}
		}
	}
	for _, scc := range graph.SCCs(atoms, func(a AtomID) []AtomID { return edges[a] }) {
		if len(scc) == 1 && !selfLoop[scc[0]] {
			// A singleton without a self-loop becomes founded once the
			// components below it are constrained; no loop formula needed.
			continue
		}
		inLoop := make(map[AtomID]bool, len(scc))
		for _, a := range scc {
			inLoop[a] = true
		}
		s.learnLoopSet(scc, inLoop)
	}
}

// learnLoopSet adds the loop formula for one atom set.
func (s *StableSolver) learnLoopSet(loop []AtomID, inLoop map[AtomID]bool) {
	if len(loop) == 0 {
		return
	}
	// External support rules of the loop.
	ruleSet := make(map[int32]bool)
	for _, a := range loop {
		for _, ri := range s.headRules[a] {
			ruleSet[ri] = true
		}
	}
	var witnesses []Lit
	work := 0
	for ri := range ruleSet {
		r := s.prog.Rule(int(ri))
		external := true
		for _, b := range r.Pos {
			if inLoop[b] {
				external = false
				break
			}
		}
		if !external {
			continue
		}
		work += len(r.Pos) + len(r.Neg) + len(r.Head)
		if work > maxLoopFormulaSize {
			return // too expensive; the blocking clause alone suffices
		}
		// Witness: body holds and every head atom outside the loop is false.
		bw, hasBody := s.bodyWitness(int(ri))
		var outside []AtomID
		for _, h := range r.Head {
			if !inLoop[h] {
				outside = append(outside, h)
			}
		}
		switch {
		case !hasBody && len(outside) == 0:
			// Unconditional external support: loop formula is vacuous.
			return
		case len(outside) == 0:
			witnesses = append(witnesses, bw)
		default:
			w := s.sat.NewVar()
			if hasBody {
				s.sat.AddClause(NegLit(w), bw)
			}
			for _, h := range outside {
				s.sat.AddClause(NegLit(w), NegLit(s.vars[h]))
			}
			witnesses = append(witnesses, PosLit(w))
		}
	}
	for _, a := range loop {
		clause := make([]Lit, 0, len(witnesses)+1)
		clause = append(clause, NegLit(s.vars[a]))
		clause = append(clause, witnesses...)
		s.sat.AddClause(clause...)
	}
	s.LoopsLearned++
}

// accept runs the theory acceptor on a stable model; it reports true when
// the model is acceptable and otherwise adds the learned clauses.
func (s *StableSolver) accept(m []bool) bool {
	if s.Acceptor == nil {
		return true
	}
	clauses := s.Acceptor(m)
	if len(clauses) == 0 {
		return true
	}
	s.TheoryRejects++
	for _, c := range clauses {
		s.sat.AddClause(c...)
	}
	return false
}

// lfpReduct computes the least fixpoint of the definite part of the reduct
// Π^m: rules whose negative body is disjoint from m fire bottom-up from the
// facts. Constraints (empty heads) are ignored. The result is ⊆ m for any
// classical model m. A rule's pending count is set the first time the
// fixpoint reaches it in this call (when lfpRules does not yet hold it).
func (s *StableSolver) lfpReduct(m []bool) []bool {
	lfp := make([]bool, len(m))
	reached := &s.lfpRules
	reached.reset()
	prog := s.prog
	queue := s.lfpQueue[:0]
	for _, ri := range s.bodyless {
		r := prog.Rule(int(ri))
		if h := r.Head[0]; !lfp[h] && !anyTrue(m, r.Neg) {
			lfp[h] = true
			queue = append(queue, h)
		}
	}
	for fi := range prog.NumFacts() {
		if f := prog.Fact(fi); !lfp[f] {
			lfp[f] = true
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range s.posWatch[a] {
			if !reached.contains(int(ri)) {
				reached.add(int(ri))
				if r := prog.Rule(int(ri)); anyTrue(m, r.Neg) {
					s.lfpPending[ri] = -1
				} else {
					s.lfpPending[ri] = int32(len(r.Pos))
				}
			}
			if s.lfpPending[ri] <= 0 {
				continue
			}
			s.lfpPending[ri]--
			if s.lfpPending[ri] == 0 {
				if h := prog.Rule(int(ri)).Head[0]; !lfp[h] {
					lfp[h] = true
					queue = append(queue, h)
				}
			}
		}
	}
	s.lfpQueue = queue
	return lfp
}

// anyTrue reports whether some atom of as is true in m.
func anyTrue(m []bool, as []AtomID) bool {
	for _, a := range as {
		if m[a] {
			return true
		}
	}
	return false
}

func modelsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NextStable finds a stable model consistent with the current clause
// database (including any previously added blocking clauses) and the
// solver-lifetime assumptions, or nil.
func (s *StableSolver) NextStable() []bool { return s.root.NextStable() }

// nextStable finds the next stable model in the session's scope, or nil.
//
// For normal programs, a classical model m is checked with the linear test
// m = lfp(reduct^m); on failure the unfounded set m \ lfp yields a loop
// formula. For disjunctive programs the generic minimize-and-check path
// runs (stability checking is coNP-hard there).
func (s *StableSolver) nextStable(sess *Session) []bool {
	for {
		if s.Canceled() || s.sat.Exhausted() || !s.solve(sess) {
			return nil
		}
		s.CandidatesTested++
		if s.normal {
			m := s.model()
			f := s.lfpReduct(m)
			if modelsEqual(m, f) {
				if !s.accept(m) {
					continue
				}
				return m
			}
			// The reduct depends only on the negative-signature of m. If f
			// agrees with m there, reduct^f = reduct^m, so f = lfp(reduct^f)
			// and f is itself stable (f is a classical model: dropped rules
			// keep a true negative atom, kept rules hold at the fixpoint,
			// and a kept constraint violated by f ⊆ m would already be
			// violated by m). Otherwise no stable model shares m's negative
			// signature at all, and the whole signature is blocked.
			agree := true
			for _, a := range s.negAtoms {
				if m[a] != f[a] {
					agree = false
					break
				}
			}
			if agree {
				// f is stable, but only m — not necessarily f ⊆ m — is
				// known to satisfy the active assumptions. If f violates
				// them it cannot be returned: exclude f (and its supersets,
				// none of which are stable) within the session and search
				// on. At the root the exclusion is permanent, which is sound
				// only because the root's assumptions never change.
				if !assumptionsHold(f, sess.assumps) {
					sess.blockSupersets(f)
					continue
				}
				if !s.accept(f) {
					continue
				}
				return f
			}
			s.StabilityFails++
			// Learn loop formulas for the unfounded cycles (generalizes
			// across candidates), plus the negative-signature clause for
			// guaranteed progress. Both are facts about the program alone —
			// independent of any active assumptions — so they are added
			// unguarded and shared with every later session.
			s.learnUnfounded(m, f)
			lits := make([]Lit, len(s.negAtoms))
			for i, a := range s.negAtoms {
				if m[a] {
					lits[i] = NegLit(s.vars[a])
				} else {
					lits[i] = PosLit(s.vars[a])
				}
			}
			s.sat.AddClause(lits...)
			continue
		}
		m := s.minimize(s.model(), sess)
		if s.sat.Exhausted() {
			// minimize was cut short; m may not be minimal, so the
			// stability check below could misclassify it. End the session.
			return nil
		}
		ok, smaller := s.checkStable(m)
		if ok {
			if !s.accept(m) {
				continue
			}
			return m
		}
		s.StabilityFails++
		s.learnLoop(m, smaller)
		// m is a classical model that is not stable, so neither it nor any
		// superset (never a minimal model) is stable: a program-level fact,
		// added in the root scope.
		s.root.blockSupersets(m)
	}
}

// Enumerate yields stable models until fn returns false or the program is
// exhausted. It returns the number of models yielded. The solver is spent
// afterwards (all stable models are blocked).
func (s *StableSolver) Enumerate(fn func(m []bool) bool) int {
	n := 0
	for {
		m := s.root.NextStable()
		if m == nil {
			return n
		}
		n++
		if !fn(m) {
			return n
		}
		s.root.blockSupersets(m)
	}
}

// Brave runs Session.Brave in the root scope. The solver is spent after
// this call.
func (s *StableSolver) Brave(candidates []AtomID) ([]AtomID, bool) {
	return s.root.Brave(candidates)
}

// Cautious runs Session.Cautious in the root scope. The solver is spent
// after this call.
func (s *StableSolver) Cautious(candidates []AtomID) ([]AtomID, bool) {
	return s.root.Cautious(candidates)
}

// AtomAssumption pins one program atom's truth value for the duration of
// an assumption scope (a Session or SetAssumptions).
type AtomAssumption struct {
	Atom AtomID
	True bool
}

// SetAssumptions pins atom truth values for the remainder of the solver's
// lifetime: every later search, in the root scope and in every session
// started afterwards, runs under them as CDCL assumptions. Intended for
// one-shot use (cmd/aspsolve -assume): when the repair-itself path of a
// normal program yields a stable model violating the assumptions, the root
// scope excludes it with a permanent clause, which is sound only while the
// assumption set never changes. Incremental callers that swap assumption
// sets between queries use StartSession instead.
func (s *StableSolver) SetAssumptions(assumps []AtomAssumption) {
	s.root.assumps = append(s.root.assumps[:0], assumps...)
}

// Session is one query scope against a solver: a set of assumption atoms
// plus an activation literal guarding every clause that is only locally
// sound. Distinct queries against the same signature program swap sessions
// instead of rebuilding the solver, so CDCL learnt clauses and loop
// formulas carry over between them. The solver's root scope is a Session
// with activation variable 0, whose clauses are unguarded.
type Session struct {
	s       *StableSolver
	act     Var
	assumps []AtomAssumption
	closed  bool
}

// StartSession opens an incremental scope: the given atoms, after the
// solver-lifetime ones, are held at their pinned values for every search
// made through the session, and every clause that is only locally sound —
// assumption-relative model exclusions and the brave/cautious
// search-strategy clauses — is guarded by a fresh activation literal.
// Program-valid knowledge learned during the session (CDCL learnt clauses,
// loop formulas, negative-signature blocks, theory clauses) is unguarded
// and legally shared with every later session; see DESIGN.md §17. Close
// the session to retire its scope.
func (s *StableSolver) StartSession(assumps []AtomAssumption) *Session {
	all := append(append([]AtomAssumption(nil), s.root.assumps...), assumps...)
	return &Session{s: s, act: s.sat.NewVar(), assumps: all}
}

// NextStable finds the next stable model satisfying the session's
// assumptions, or nil. Check Exhausted/Canceled on the solver to tell a
// cut-short search from genuine absence.
func (ss *Session) NextStable() []bool { return ss.s.nextStable(ss) }

// clause returns an empty clause in the session's scope, with room for n
// more literals: guarded by ¬act in a child session, unguarded at the root.
func (ss *Session) clause(n int) []Lit {
	lits := make([]Lit, 0, n+1)
	if ss.act != 0 {
		lits = append(lits, NegLit(ss.act))
	}
	return lits
}

// blockSupersets adds the session-scoped all-negative clause excluding m
// and every superset of m. Because every classical model whose reduct
// fixpoint is a stable model f contains f, scoping the block to f also
// guarantees search progress after f is rejected.
func (ss *Session) blockSupersets(m []bool) {
	s := ss.s
	lits := ss.clause(16)
	for a, tv := range m {
		if tv {
			lits = append(lits, NegLit(s.vars[AtomID(a)]))
		}
	}
	s.sat.AddClause(lits...)
}

// Cautious computes which of the candidate atoms belong to every stable
// model in the session's scope (cautious consequences restricted to
// candidates), using model-guided narrowing. The second result reports
// whether there is any stable model at all; if there is none, every
// candidate is vacuously cautious. The narrowing clauses are scoped to the
// session, so a child session leaves the solver reusable.
func (ss *Session) Cautious(candidates []AtomID) ([]AtomID, bool) {
	s := ss.s
	m := s.nextStable(ss)
	if m == nil {
		return append([]AtomID(nil), candidates...), false
	}
	c := make([]AtomID, 0, len(candidates))
	for _, a := range candidates {
		if m[a] {
			c = append(c, a)
		}
	}
	for len(c) > 0 {
		// Demand a stable model violating at least one remaining candidate.
		lits := ss.clause(len(c))
		for _, a := range c {
			lits = append(lits, NegLit(s.vars[a]))
		}
		if !s.sat.AddClause(lits...) {
			break // UNSAT at top level: remaining candidates are cautious
		}
		m = s.nextStable(ss)
		if m == nil {
			break
		}
		kept := c[:0]
		for _, a := range c {
			if m[a] {
				kept = append(kept, a)
			}
		}
		c = kept
	}
	return c, true
}

// Brave computes which of the candidate atoms belong to at least one
// stable model in the session's scope (brave consequences restricted to
// candidates), using model-guided search: each model marks the candidates
// it contains, and a progressively stronger clause demands a model
// containing one of the still-unseen candidates. The second result reports
// whether there is any stable model at all (with none, no candidate is
// brave). Like Cautious, a child session leaves the solver reusable.
func (ss *Session) Brave(candidates []AtomID) ([]AtomID, bool) {
	s := ss.s
	m := s.nextStable(ss)
	if m == nil {
		return nil, false
	}
	var brave []AtomID
	undecided := make([]AtomID, 0, len(candidates))
	for _, a := range candidates {
		if m[a] {
			brave = append(brave, a)
		} else {
			undecided = append(undecided, a)
		}
	}
	for len(undecided) > 0 {
		// Demand a stable model containing some still-unseen candidate.
		lits := ss.clause(len(undecided))
		for _, a := range undecided {
			lits = append(lits, PosLit(s.vars[a]))
		}
		if !s.sat.AddClause(lits...) {
			break // no model can contain any of them
		}
		m = s.nextStable(ss)
		if m == nil {
			break
		}
		rest := undecided[:0]
		for _, a := range undecided {
			if m[a] {
				brave = append(brave, a)
			} else {
				rest = append(rest, a)
			}
		}
		if len(rest) == len(undecided) {
			// No progress: the repair-itself path returned a stable f ⊆ m
			// missing every remaining candidate even though the SAT model m
			// satisfied the progress clause. Supersets of f are never
			// stable, so excluding them within the session is sound and
			// forces the next model to differ.
			ss.blockSupersets(m)
		}
		undecided = rest
	}
	return brave, true
}

// Close retires the session: its activation literal is permanently
// falsified, deactivating every scoped clause; every few closures the
// now-satisfied clauses are reclaimed via clause-database simplification.
func (ss *Session) Close() {
	if ss.closed {
		return
	}
	ss.closed = true
	s := ss.s
	s.sat.AddClause(NegLit(ss.act))
	s.retired++
	if s.retired >= 8 {
		s.retired = 0
		s.sat.Simplify()
	}
}

// Stats is one solve's work counters: the stable-model layer's model
// accounting followed by the CDCL core's search effort. Field names, types,
// order and JSON tags are part of the xr TraceEvent wire format, which
// embeds this struct.
type Stats struct {
	CandidatesTested int   `json:"candidates_tested"` // classical models tested for stability
	StabilityFails   int   `json:"stability_fails"`
	LoopsLearned     int   `json:"loops_learned"`
	TheoryRejects    int   `json:"theory_rejects"` // models rejected by the Acceptor
	Conflicts        int64 `json:"conflicts"`
	Decisions        int64 `json:"decisions"`
	Propagations     int64 `json:"propagations"`
	Restarts         int64 `json:"restarts"`          // SAT search restarts (Luby budget renewals)
	AssumptionSolves int64 `json:"assumption_solves"` // SAT searches run under assumption literals
	Reductions       int64 `json:"reductions"`        // clause-database reductions performed
	ClausesDeleted   int64 `json:"clauses_deleted"`   // learnt clauses deleted by reductions
}

// Stats returns the solver's cumulative work counters.
func (s *StableSolver) Stats() Stats {
	return Stats{
		CandidatesTested: s.CandidatesTested,
		StabilityFails:   s.StabilityFails,
		LoopsLearned:     s.LoopsLearned,
		TheoryRejects:    s.TheoryRejects,
		Conflicts:        s.sat.Conflicts,
		Decisions:        s.sat.Decisions,
		Propagations:     s.sat.Propagations,
		Restarts:         s.sat.Restarts,
		AssumptionSolves: s.sat.AssumptionSolves,
		Reductions:       s.sat.Reductions,
		ClausesDeleted:   s.sat.ClausesDeleted,
	}
}

// Add returns the field-wise sum a + b.
func (a Stats) Add(b Stats) Stats { return a.plus(b, 1) }

// Sub returns the field-wise difference a - b: the work done between two
// Stats snapshots of one solver.
func (a Stats) Sub(b Stats) Stats { return a.plus(b, -1) }

func (a Stats) plus(b Stats, k int) Stats {
	k64 := int64(k)
	return Stats{
		CandidatesTested: a.CandidatesTested + k*b.CandidatesTested,
		StabilityFails:   a.StabilityFails + k*b.StabilityFails,
		LoopsLearned:     a.LoopsLearned + k*b.LoopsLearned,
		TheoryRejects:    a.TheoryRejects + k*b.TheoryRejects,
		Conflicts:        a.Conflicts + k64*b.Conflicts,
		Decisions:        a.Decisions + k64*b.Decisions,
		Propagations:     a.Propagations + k64*b.Propagations,
		Restarts:         a.Restarts + k64*b.Restarts,
		AssumptionSolves: a.AssumptionSolves + k64*b.AssumptionSolves,
		Reductions:       a.Reductions + k64*b.Reductions,
		ClausesDeleted:   a.ClausesDeleted + k64*b.ClausesDeleted,
	}
}

// PreferTrue sets the decision polarity of the given atoms to true-first.
// Useful when models are expected to be near-maximal on these atoms (e.g.
// "keep" choices in repair programs): candidates then start from the
// mostly-true end of the search space.
func (s *StableSolver) PreferTrue(atoms []AtomID) {
	for _, a := range atoms {
		s.sat.SetPhase(s.vars[a], true)
	}
}
