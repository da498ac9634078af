package asp

import (
	"context"
	"sync/atomic"
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

	// assumps holds solver-lifetime assumptions (SetAssumptions): they are
	// threaded into every candidate search, and any blocking clause that is
	// only sound relative to them is added permanently — which is why they
	// are reserved for one-shot solvers (cmd/aspsolve). Incremental callers
	// use Sessions instead.
	assumps []AtomAssumption

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

// SetCancel installs a cooperative cancellation flag on the underlying SAT
// solver; when set, in-flight stable-model searches return promptly with
// "no model" (check Canceled).
func (s *StableSolver) SetCancel(flag *atomic.Bool) { s.sat.SetCancel(flag) }

// SetContext installs a context on the underlying SAT solver; once it is
// done, in-flight stable-model searches return promptly with "no model"
// (check Canceled to tell cancellation apart from exhaustion).
func (s *StableSolver) SetContext(ctx context.Context) { s.sat.SetContext(ctx) }

// Canceled reports whether the cancellation flag is set.
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
	for ri := fromRule; ri < len(prog.Rules); ri++ {
		r := &prog.Rules[ri]
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
	for a := fromAtom; a < prog.NumAtoms(); a++ {
		s.vars = append(s.vars, s.sat.NewVar())
		s.headRules = append(s.headRules, nil)
		s.isFact = append(s.isFact, false)
	}
	for fi := s.nFacts; fi < len(prog.Facts); fi++ {
		f := prog.Facts[fi]
		s.isFact[f] = true
		s.sat.AddClause(PosLit(s.vars[f]))
	}
	s.nFacts = len(prog.Facts)
	for ri := fromRule; ri < len(prog.Rules); ri++ {
		r := &prog.Rules[ri]
		s.bodyAux = append(s.bodyAux, 0)
		lits := make([]Lit, 0, len(r.Head)+len(r.Pos)+len(r.Neg))
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
	}
	// Support clauses: a → ∨_{r: a ∈ head(r)} body(r), via body aux vars.
	// Only new atoms need one; every rule of a new atom is itself new.
	for a := fromAtom; a < prog.NumAtoms(); a++ {
		if s.isFact[a] {
			continue
		}
		rules := s.headRules[a]
		clause := make([]Lit, 0, len(rules)+1)
		clause = append(clause, NegLit(s.vars[AtomID(a)]))
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
	}
}

// bodyWitness returns a literal implying the rule's body (true only if every
// positive body atom is true and every negative one false). For empty
// bodies it reports ok=false (the body is trivially true). Single-literal
// bodies reuse the literal; longer bodies get a cached aux variable.
func (s *StableSolver) bodyWitness(ri int) (Lit, bool) {
	r := &s.prog.Rules[ri]
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

// solve runs one SAT search under the solver-lifetime assumptions, the
// session's scope (activation literal plus pinned atoms), and any extra
// literals, in that fixed order so search traces are deterministic.
func (s *StableSolver) solve(sess *Session, extra ...Lit) bool {
	n := len(s.assumps) + len(extra)
	if sess != nil {
		n += 1 + len(sess.assumps)
	}
	lits := make([]Lit, 0, n)
	if sess != nil {
		lits = append(lits, PosLit(sess.act))
	}
	for _, a := range s.assumps {
		lits = append(lits, s.assumpLit(a))
	}
	if sess != nil {
		for _, a := range sess.assumps {
			lits = append(lits, s.assumpLit(a))
		}
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
	// The secondary search inherits the primary solver's cancellation
	// sources so a per-signature timeout also bounds the coNP-hard check;
	// it runs unbudgeted (the effort budget is a property of the primary
	// search) but any result reached after cancellation is discarded by the
	// callers' Canceled checks.
	sub.cancel = s.sat.cancel
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
	for _, f := range s.prog.Facts {
		if !m[f] {
			return false, nil // cannot happen for a classical model; be safe
		}
		sub.AddClause(PosLit(varOf(f)))
	}
rules:
	for _, r := range s.prog.Rules {
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
			r := &s.prog.Rules[ri]
			for _, b := range r.Pos {
				if unfounded[b] {
					if b == a {
						selfLoop[a] = true
					}
					edges[a] = append(edges[a], b)
				}
			}
		}
	}
	for _, scc := range atomSCCs(atoms, edges) {
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

// atomSCCs computes strongly connected components (iterative Tarjan) over
// the given atoms and edge map.
func atomSCCs(atoms []AtomID, edges map[AtomID][]AtomID) [][]AtomID {
	index := make(map[AtomID]int, len(atoms))
	low := make(map[AtomID]int, len(atoms))
	onStack := make(map[AtomID]bool, len(atoms))
	var stack []AtomID
	var comps [][]AtomID
	next := 0

	type frame struct {
		node AtomID
		ei   int
	}
	for _, start := range atoms {
		if _, seen := index[start]; seen {
			continue
		}
		call := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			es := edges[f.node]
			advanced := false
			for f.ei < len(es) {
				w := es[f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && low[f.node] > index[w] {
					low[f.node] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[parent] > low[v] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []AtomID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
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
		r := &s.prog.Rules[ri]
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

// blockSupersets adds the all-negative clause excluding m and every
// superset of m.
func (s *StableSolver) blockSupersets(m []bool) {
	lits := make([]Lit, 0, 16)
	for a, tv := range m {
		if tv {
			lits = append(lits, NegLit(s.vars[AtomID(a)]))
		}
	}
	s.sat.AddClause(lits...)
}

// NumTrue counts the true atoms of a model vector.
func (s *StableSolver) NumTrue(m []bool) int {
	n := 0
	for _, tv := range m {
		if tv {
			n++
		}
	}
	return n
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
// classical model m.
func (s *StableSolver) lfpReduct(m []bool) []bool {
	lfp := make([]bool, len(m))
	// pending[ri] counts unsatisfied positive body atoms of rule ri; -1
	// marks rules dropped by the reduct or without a head.
	pending := make([]int, len(s.prog.Rules))
	watchers := make(map[AtomID][]int32) // atom -> rules with it in pos body
	var queue []AtomID
	push := func(a AtomID) {
		if !lfp[a] {
			lfp[a] = true
			queue = append(queue, a)
		}
	}
	fire := func(ri int32) {
		r := &s.prog.Rules[ri]
		push(r.Head[0])
	}
rules:
	for ri := range s.prog.Rules {
		r := &s.prog.Rules[ri]
		if len(r.Head) == 0 {
			pending[ri] = -1
			continue
		}
		for _, g := range r.Neg {
			if m[g] {
				pending[ri] = -1
				continue rules
			}
		}
		pending[ri] = len(r.Pos)
		if pending[ri] == 0 {
			fire(int32(ri))
			continue
		}
		for _, b := range r.Pos {
			watchers[b] = append(watchers[b], int32(ri))
		}
	}
	for _, f := range s.prog.Facts {
		push(f)
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range watchers[a] {
			if pending[ri] <= 0 {
				continue
			}
			pending[ri]--
			if pending[ri] == 0 {
				fire(ri)
			}
		}
	}
	return lfp
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
//
// For normal programs, a classical model m is checked with the linear test
// m = lfp(reduct^m); on failure the unfounded set m \ lfp yields a loop
// formula. For disjunctive programs the generic minimize-and-check path
// runs (stability checking is coNP-hard there).
func (s *StableSolver) NextStable() []bool { return s.nextStable(nil) }

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
				// none of which are stable) and search on. Under a session
				// the exclusion is scoped to the session; under lifetime
				// assumptions it is permanent, which is sound only because
				// those assumptions never change (see SetAssumptions).
				if sess != nil {
					if !assumptionsHold(f, s.assumps) || !assumptionsHold(f, sess.assumps) {
						sess.blockSupersets(f)
						continue
					}
				} else if !assumptionsHold(f, s.assumps) {
					s.blockSupersets(f)
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
		s.blockSupersets(m)
	}
}

// Enumerate yields stable models until fn returns false or the program is
// exhausted. It returns the number of models yielded. The solver is spent
// afterwards (all stable models are blocked).
func (s *StableSolver) Enumerate(fn func(m []bool) bool) int {
	n := 0
	for {
		m := s.NextStable()
		if m == nil {
			return n
		}
		n++
		if !fn(m) {
			return n
		}
		s.blockSupersets(m)
	}
}

// HasStableModel reports whether the program has at least one stable model.
// The first found model is not blocked, so Cautious may be called after.
func (s *StableSolver) HasStableModel() bool {
	return s.NextStable() != nil
}

// Brave computes which of the candidate atoms belong to at least one
// stable model (brave consequences restricted to candidates), using
// model-guided search: each model marks the candidates it contains, and a
// progressively stronger clause demands a model containing one of the
// still-unseen candidates. The second result reports whether the program
// has any stable model at all (with none, no candidate is brave).
//
// The solver is spent after this call.
func (s *StableSolver) Brave(candidates []AtomID) ([]AtomID, bool) {
	m := s.NextStable()
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
		lits := make([]Lit, len(undecided))
		for i, a := range undecided {
			lits[i] = PosLit(s.vars[a])
		}
		if !s.sat.AddClause(lits...) {
			break // no model can contain any of them
		}
		m = s.NextStable()
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
		undecided = rest
	}
	return brave, true
}

// Cautious computes which of the candidate atoms belong to every stable
// model (cautious consequences restricted to candidates), using model-guided
// narrowing. The second result reports whether the program has any stable
// model at all; if it has none, every candidate is vacuously cautious.
//
// The solver is spent after this call.
func (s *StableSolver) Cautious(candidates []AtomID) ([]AtomID, bool) {
	m := s.NextStable()
	if m == nil {
		return append([]AtomID(nil), candidates...), false
	}
	// Narrow to candidates in the first model.
	c := make([]AtomID, 0, len(candidates))
	for _, a := range candidates {
		if m[a] {
			c = append(c, a)
		}
	}
	for len(c) > 0 {
		// Demand a stable model violating at least one remaining candidate.
		lits := make([]Lit, len(c))
		for i, a := range c {
			lits[i] = NegLit(s.vars[a])
		}
		if !s.sat.AddClause(lits...) {
			break // UNSAT at top level: remaining candidates are cautious
		}
		m = s.NextStable()
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

// AtomAssumption pins one program atom's truth value for the duration of
// an assumption scope (a Session or SetAssumptions).
type AtomAssumption struct {
	Atom AtomID
	True bool
}

// SetAssumptions pins atom truth values for the remainder of the solver's
// lifetime: every later search (NextStable, Enumerate, Brave, Cautious)
// runs under them as CDCL assumptions. Intended for one-shot use
// (cmd/aspsolve -assume): when the repair-itself path of a normal program
// yields a stable model violating the assumptions, the solver excludes it
// with a permanent clause, which is sound only while the assumption set
// never changes. Incremental callers that swap assumption sets between
// queries use StartSession instead.
func (s *StableSolver) SetAssumptions(assumps []AtomAssumption) {
	s.assumps = append(s.assumps[:0], assumps...)
}

// Session is one incremental query scope against a persistent solver: a
// set of assumption atoms plus a fresh activation literal guarding every
// clause that is only locally sound. Distinct queries against the same
// signature program swap sessions instead of rebuilding the solver, so
// CDCL learnt clauses and loop formulas carry over between them.
type Session struct {
	s       *StableSolver
	act     Var
	assumps []AtomAssumption
	closed  bool
}

// StartSession opens an incremental scope: the given atoms are held at
// their pinned values for every search made through the session, and
// every clause that is only locally sound — assumption-relative model
// exclusions and the brave/cautious search-strategy clauses — is guarded
// by a fresh activation literal. Program-valid knowledge learned during
// the session (CDCL learnt clauses, loop formulas, negative-signature
// blocks, theory clauses) is unguarded and legally shared with every
// later session; see DESIGN.md §17. Close the session to retire its
// scope.
func (s *StableSolver) StartSession(assumps []AtomAssumption) *Session {
	return &Session{s: s, act: s.sat.NewVar(), assumps: append([]AtomAssumption(nil), assumps...)}
}

// NextStable finds the next stable model satisfying the session's
// assumptions, or nil. Check Exhausted/Canceled on the solver to tell a
// cut-short search from genuine absence.
func (ss *Session) NextStable() []bool { return ss.s.nextStable(ss) }

// Block excludes the given stable model (and its supersets, none of which
// are stable) for the rest of the session — the session-scoped analogue
// of the blocking Enumerate performs between models.
func (ss *Session) Block(m []bool) { ss.blockSupersets(m) }

// blockSupersets adds the session-scoped all-negative clause excluding m
// and every superset of m. Because every classical model whose reduct
// fixpoint is a stable model f contains f, scoping the block to f also
// guarantees search progress after f is rejected.
func (ss *Session) blockSupersets(m []bool) {
	s := ss.s
	lits := make([]Lit, 0, 16)
	lits = append(lits, NegLit(ss.act))
	for a, tv := range m {
		if tv {
			lits = append(lits, NegLit(s.vars[AtomID(a)]))
		}
	}
	s.sat.AddClause(lits...)
}

// Cautious is the session-scoped analogue of StableSolver.Cautious: the
// model-guided narrowing clauses are guarded by the session's activation
// literal, so the solver is NOT spent afterwards — later sessions see the
// full model space again.
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
		lits := make([]Lit, 0, len(c)+1)
		lits = append(lits, NegLit(ss.act))
		for _, a := range c {
			lits = append(lits, NegLit(s.vars[a]))
		}
		if !s.sat.AddClause(lits...) {
			break
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

// Brave is the session-scoped analogue of StableSolver.Brave; like
// Session.Cautious it leaves the solver reusable.
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
		lits := make([]Lit, 0, len(undecided)+1)
		lits = append(lits, NegLit(ss.act))
		for _, a := range undecided {
			lits = append(lits, PosLit(s.vars[a]))
		}
		if !s.sat.AddClause(lits...) {
			break
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
