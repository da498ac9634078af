// Package asp implements disjunctive logic programs under the stable model
// semantics: a ground-program representation, a relational grounder, a CDCL
// SAT core, a stable-model solver (minimal-model generation plus
// reduct-minimality checking), model enumeration, and cautious reasoning.
//
// It substitutes for the clingo solver used in the paper (see DESIGN.md §2).
package asp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Var is a SAT variable, numbered from 1.
type Var int32

// Lit is a SAT literal: variable with sign. Encoded as 2v for the positive
// literal and 2v+1 for the negative literal.
type Lit int32

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// cref is a clause's offset in the solver's arena. No clause starts at
// offset 0, so the zero cref names none: the reason of a decision or a
// unit.
type cref uint32

// A clause in the arena is a header word followed by its literals; a
// learnt clause adds three words after them: its literal-block distance at
// learn time and the low and high halves of its float64 activity. The
// header packs the literal count with the flags below. This is MiniSat's
// region allocator (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).
const (
	hdrDeleted   = 1 << iota
	hdrLearnt    // three words of LBD and activity follow the literals
	hdrRelocated // moved by compact; the first literal word holds the new offset
	hdrShift     = iota
	learntExtra  = 3
)

// compactShare sets when the arena is compacted: once deleted clauses take
// more than 1/compactShare of its words.
const compactShare = 5

// clauseWords returns the words a clause with header h takes in the arena.
func clauseWords(h Lit) int {
	n := 1 + int(uint32(h)>>hdrShift)
	if h&hdrLearnt != 0 {
		n += learntExtra
	}
	return n
}

type watch struct {
	c       cref
	blocker Lit
}

// Solver is an incremental CDCL SAT solver in the MiniSat lineage:
// two-literal watches, first-UIP conflict learning, VSIDS-style activities,
// phase saving (false-first by default, which biases models toward being
// subset-small — useful for minimal-model generation), Luby restarts, and
// solving under assumptions.
type Solver struct {
	nVars int
	// arena holds every clause, live or deleted, back to back; wasted is
	// the words of the deleted ones, reclaimed by compact.
	arena    []Lit
	wasted   int
	clauses  []cref
	learnts  []cref
	watches  [][]watch // indexed by Lit
	assign   []lbool   // indexed by Var
	level    []int32   // indexed by Var
	reason   []cref    // indexed by Var
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	heap     varHeap
	phase    []bool // saved polarity per var (true = assign true first)

	seen       []bool
	clauseLits stamps // the literals of the clause AddClause is normalizing
	learntBuf  []Lit  // analyze's learnt clause, copied into the arena
	ok         bool   // false once a top-level conflict is derived
	model      modelSnapshot
	ctx        context.Context // cooperative cancellation; nil = never

	// lbdLevels holds the decision levels seen while computing the LBD of
	// a freshly learnt clause, avoiding a per-conflict allocation.
	lbdLevels stamps

	// maxLearnts is the clause-database reduction trigger: once the learnt
	// store crosses it, reduceDB deletes the worst half of the removable
	// clauses and the trigger grows geometrically. Persistent solvers would
	// otherwise accumulate learnt clauses without bound.
	maxLearnts int

	// conflictAssumps is the failed-assumption set from the last
	// unsatisfiable SolveUnderAssumptions call (see FailedAssumptions).
	conflictAssumps []Lit

	// Budget: cooperative effort limits over the Decisions and Conflicts
	// counters, measured relative to the SetBudget call (0 = unlimited).
	// Crossing a limit sets exhausted and makes in-flight and future Solve
	// calls return false promptly until the budget is re-armed. Unlike
	// wall-clock timeouts the cutoff point is a deterministic,
	// machine-independent function of the clause database.
	maxDecisions, maxConflicts   int64
	baseDecisions, baseConflicts int64
	exhausted                    bool

	// Stats. Restarts counts Luby budget renewals after the initial one of
	// each Solve call (i.e. genuine search restarts). AssumptionSolves
	// counts Solve calls made under at least one assumption; Reductions and
	// ClausesDeleted track clause-database reduction work.
	Conflicts, Decisions, Propagations, Restarts int64
	AssumptionSolves, ClausesDeleted, Reductions int64
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true, maxLearnts: 4000}
	s.arena = []Lit{0} // offset 0 is no clause
	// Var 0 is unused; keep slots so indexing is direct.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.clauseLits.grow(len(s.watches))
	s.heap.act = &s.activity
	return s
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	s.nVars++
	v := Var(s.nVars)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.clauseLits.grow(len(s.watches))
	s.heap.push(v)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

// reserve makes room for n more clauses taking words arena words in all,
// so a caller that knows what it will add grows the arena once.
func (s *Solver) reserve(n, words int) {
	s.clauses = slices.Grow(s.clauses, n)
	s.arena = slices.Grow(s.arena, words)
}

// lits returns clause c's literals, in the arena: swaps write through, and
// the slice is valid until the arena next grows or is compacted.
func (s *Solver) lits(c cref) []Lit {
	end := int(c) + 1 + int(uint32(s.arena[c])>>hdrShift)
	return s.arena[c+1 : end : end]
}

func (s *Solver) learnt(c cref) bool  { return s.arena[c]&hdrLearnt != 0 }
func (s *Solver) deleted(c cref) bool { return s.arena[c]&hdrDeleted != 0 }

// lbd returns a learnt clause's literal-block distance at learn time.
func (s *Solver) lbd(c cref) int32 { return int32(s.arena[int(c)+1+len(s.lits(c))]) }

// act returns a learnt clause's activity.
func (s *Solver) act(c cref) float64 {
	i := int(c) + 2 + len(s.lits(c))
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setAct(c cref, act float64) {
	i := int(c) + 2 + len(s.lits(c))
	b := math.Float64bits(act)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// free marks a clause deleted. Its words stay in the arena, and its
// watches in their lists, until compact.
func (s *Solver) free(c cref) {
	s.arena[c] |= hdrDeleted
	s.wasted += clauseWords(s.arena[c])
}

// AddClause adds a clause. It returns false if the solver becomes
// trivially unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("asp: AddClause while not at decision level 0")
	}
	// Normalize into the arena, after a header word written last: drop
	// duplicate and false literals; detect tautologies and satisfied
	// clauses.
	c := cref(len(s.arena))
	s.arena = append(s.arena, 0)
	seen := &s.clauseLits
	seen.reset()
	for _, l := range lits {
		switch {
		case s.valueLit(l) == lTrue, seen.contains(int(l.Neg())):
			s.arena = s.arena[:c]
			return true // already satisfied / tautology
		case s.valueLit(l) == lFalse, seen.contains(int(l)):
			continue
		default:
			seen.add(int(l))
			s.arena = append(s.arena, l)
		}
	}
	switch n := len(s.arena) - int(c) - 1; n {
	case 0:
		s.arena = s.arena[:c]
		s.ok = false
		return false
	case 1:
		unit := s.arena[c+1]
		s.arena = s.arena[:c]
		if !s.enqueue(unit, 0) {
			s.ok = false
			return false
		}
		if s.propagate() != 0 {
			s.ok = false
			return false
		}
		return true
	default:
		s.arena[c] = Lit(n << hdrShift)
	}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watch{c: c, blocker: l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watch{c: c, blocker: l0})
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation to a fixpoint and returns the
// conflicting clause, or 0.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[l]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if s.deleted(c) {
				continue
			}
			lits := s.lits(c)
			// Ensure the false literal is at position 1.
			falseLit := l.Neg()
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				kept = append(kept, watch{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.valueLit(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watch{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watch{c: c, blocker: first})
			if s.valueLit(first) == lFalse {
				// Conflict: keep remaining watches, restore, return.
				for wi++; wi < len(ws); wi++ {
					kept = append(kept, ws[wi])
				}
				s.watches[l] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[l] = kept
	}
	return 0
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = 0
		s.heap.push(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c cref) {
	act := s.act(c) + s.claInc
	s.setAct(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

// analyze performs first-UIP learning and returns the learnt clause
// (asserting literal first, in a buffer the next call reuses) and the
// backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.learnt(confl) {
			s.bumpClause(confl)
		}
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		confl = s.reason[v]
	}
	// Clear seen flags for the learnt literals and compute backtrack level.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

// clauseLBD computes the literal-block distance of a freshly learnt
// clause: the number of distinct decision levels among its literals.
// Low-LBD ("glue") clauses connect few levels and are empirically the
// learnt clauses worth keeping forever.
func (s *Solver) clauseLBD(lits []Lit) int32 {
	levels := &s.lbdLevels
	levels.reset()
	var lbd int32
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		levels.grow(lv + 1)
		if !levels.contains(lv) {
			levels.add(lv)
			lbd++
		}
	}
	return lbd
}

// recordLearnt copies a learnt clause into the arena, watches it and
// asserts its first literal.
func (s *Solver) recordLearnt(lits []Lit) {
	if len(lits) == 1 {
		s.enqueue(lits[0], 0)
		return
	}
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)<<hdrShift|hdrLearnt))
	s.arena = append(s.arena, lits...)
	s.arena = append(s.arena, Lit(s.clauseLBD(lits)), 0, 0)
	s.setAct(c, s.claInc)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.enqueue(lits[0], c)
}

// reduceDB bounds the learnt-clause store. Once it crosses maxLearnts,
// the removable clauses — long, unlocked, non-glue — are stably sorted
// worst-first (highest LBD, then lowest activity, then insertion order,
// so the choice is deterministic) and the worst half is deleted. Glue
// clauses (LBD <= 2), binary clauses, and clauses currently acting as a
// propagation reason are always kept. The trigger then grows
// geometrically so long runs settle into a bounded steady state.
func (s *Solver) reduceDB() {
	if len(s.learnts) < s.maxLearnts {
		return
	}
	removable := make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		if len(s.lits(c)) > 2 && s.lbd(c) > 2 && !s.locked(c) {
			removable = append(removable, c)
		}
	}
	if len(removable) < 100 {
		// Nearly everything is protected; grow the trigger instead of
		// thrashing on every conflict.
		s.maxLearnts += s.maxLearnts / 10
		return
	}
	s.Reductions++
	sort.SliceStable(removable, func(i, j int) bool {
		if li, lj := s.lbd(removable[i]), s.lbd(removable[j]); li != lj {
			return li > lj
		}
		return s.act(removable[i]) < s.act(removable[j])
	})
	drop := removable[:len(removable)/2]
	for _, c := range drop {
		s.free(c)
	}
	s.ClausesDeleted += int64(len(drop))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.maxLearnts += s.maxLearnts / 10
	s.maybeCompact()
}

// locked reports whether clause c is the reason of its first literal's
// assignment.
func (s *Solver) locked(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.reason[v] == c && s.assign[v] != lUndef
}

// maybeCompact compacts the arena once its deleted clauses take more than
// 1/compactShare of it.
func (s *Solver) maybeCompact() {
	if s.wasted*compactShare > len(s.arena) {
		s.compact()
	}
}

// compact moves the live clauses to a fresh arena, in list order, and
// rewrites every offset that names one: in the clause lists, the watches
// and the reasons. It drops the watches of deleted clauses, which
// propagate skips anyway; the live watches keep their order in every
// list, so no search trajectory moves. A reason never names a deleted
// clause: reduceDB keeps locked clauses, and removeSatisfied clears the
// reason of each clause it deletes.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 1, len(old)-s.wasted)
	move := func(c cref) cref {
		h := old[c]
		to := cref(len(s.arena))
		s.arena = append(s.arena, old[c:int(c)+clauseWords(h)]...)
		old[c], old[c+1] = h|hdrRelocated, Lit(to)
		return to
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for l, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			if old[w.c]&hdrRelocated != 0 {
				kept = append(kept, watch{c: cref(old[w.c+1]), blocker: w.blocker})
			}
		}
		s.watches[l] = kept
	}
	for v, c := range s.reason {
		if c == 0 {
			continue
		}
		if old[c]&hdrRelocated == 0 {
			panic("asp: a reason names a deleted clause")
		}
		s.reason[v] = cref(old[c+1])
	}
	s.wasted = 0
}

// Simplify removes clauses satisfied by the level-0 trail, reclaiming
// retired incremental sessions (clauses guarded by an activation literal
// become satisfied once the guard's negation is asserted as a unit). It
// must be called at decision level 0 and returns false if the solver is
// already in a top-level conflict.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("asp: Simplify while not at decision level 0")
	}
	if s.propagate() != 0 {
		s.ok = false
		return false
	}
	s.removeSatisfied(&s.learnts)
	s.removeSatisfied(&s.clauses)
	s.maybeCompact()
	return true
}

func (s *Solver) removeSatisfied(list *[]cref) {
	kept := (*list)[:0]
	for _, c := range *list {
		lits := s.lits(c)
		sat := false
		for _, l := range lits {
			if s.valueLit(l) == lTrue && s.level[l.Var()] == 0 {
				sat = true
				break
			}
		}
		if !sat {
			kept = append(kept, c)
			continue
		}
		// Level-0 assignments are never resolved on, so dropping the
		// reason of a satisfied reason clause is safe.
		if v := lits[0].Var(); s.reason[v] == c {
			s.reason[v] = 0
		}
		s.free(c)
	}
	*list = kept
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i >= int64(1)<<k {
			continue
		}
		return luby(i - (int64(1) << (k - 1)) + 1)
	}
}

// SetContext installs a context checked cooperatively inside the search
// loop: once ctx is done, in-flight and future Solve calls return false
// promptly (check Canceled to distinguish cancellation from
// unsatisfiability).
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// Canceled reports whether the installed context is done.
func (s *Solver) Canceled() bool { return s.ctx != nil && s.ctx.Err() != nil }

// SetBudget installs effort limits on the Decisions and Conflicts
// counters, measured from the moment of the call (0 = unlimited). Once
// either limit is reached, in-flight and future Solve calls return false
// promptly; check Exhausted to distinguish budget exhaustion from
// unsatisfiability. The budget spans all Solve calls until the next
// SetBudget, so a limit bounds the total effort of an enumeration or
// cautious-reasoning session, not a single search. Re-arming clears the
// Exhausted latch — this is what lets a persistent solver grant each
// incremental session a fresh budget.
func (s *Solver) SetBudget(maxDecisions, maxConflicts int64) {
	s.maxDecisions = maxDecisions
	s.maxConflicts = maxConflicts
	s.baseDecisions = s.Decisions
	s.baseConflicts = s.Conflicts
	s.exhausted = false
}

// Exhausted reports whether a SetBudget limit was reached. It is sticky
// until the budget is re-armed: every later Solve call returns false, and
// any result derived from the interrupted search must be discarded by the
// caller.
func (s *Solver) Exhausted() bool { return s.exhausted }

// overBudget checks the budget limits (cheap integer compares, safe to run
// every search iteration) and latches exhausted on the first crossing.
func (s *Solver) overBudget() bool {
	if s.exhausted {
		return true
	}
	if (s.maxDecisions > 0 && s.Decisions-s.baseDecisions >= s.maxDecisions) ||
		(s.maxConflicts > 0 && s.Conflicts-s.baseConflicts >= s.maxConflicts) {
		s.exhausted = true
		return true
	}
	return false
}

// Solve searches for a model under the given assumptions. It returns true
// and fixes the model (read with ModelValue) or false if unsatisfiable
// under the assumptions (or the solver was cancelled). The solver
// backtracks to level 0 before returning.
func (s *Solver) Solve(assumptions ...Lit) bool {
	return s.SolveUnderAssumptions(assumptions)
}

// SolveUnderAssumptions searches for a model with every literal in
// assumps held true. Assumptions are placed as decisions at levels
// 1..len(assumps) rather than added as unit clauses, so learnt clauses
// derived under them are ordinary resolvents of the clause database: any
// dependence on an assumption shows up as that assumption's negation
// inside the learnt clause, which keeps every learnt clause valid for
// future calls under different assumptions. On an assumption-level
// failure the final-conflict analysis records which assumptions were
// jointly responsible (FailedAssumptions); the solver itself stays
// consistent and reusable. The solver backtracks to level 0 before
// returning, so calls can alternate assumption sets indefinitely without
// teardown.
func (s *Solver) SolveUnderAssumptions(assumps []Lit) bool {
	s.conflictAssumps = s.conflictAssumps[:0]
	if !s.ok {
		return false
	}
	if len(assumps) > 0 {
		s.AssumptionSolves++
	}
	defer s.cancelUntil(0)

	restart := int64(0)
	conflictsLeft := int64(0)
	model := false
	checkTick := 0

	for {
		checkTick++
		if checkTick&1023 == 0 && s.Canceled() {
			return false
		}
		if s.overBudget() {
			return false
		}
		if conflictsLeft <= 0 {
			restart++
			if restart > 1 {
				s.Restarts++
			}
			conflictsLeft = 100 * luby(restart)
			// Assumption-aware restart: back off to the assumption prefix
			// instead of level 0, keeping the assumptions (and everything
			// they propagate) in place across restarts.
			s.cancelUntil(len(assumps))
		}
		confl := s.propagate()
		if confl != 0 {
			s.Conflicts++
			conflictsLeft--
			if s.decisionLevel() == 0 {
				s.ok = false
				return false
			}
			learnt, btLevel := s.analyze(confl)
			// The asserting level may sit inside the assumption prefix;
			// backtracking there cancels later assumptions, which the
			// placement loop below simply re-places.
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt)
			s.decayActivities()
			continue
		}
		// Place assumptions as decisions.
		if s.decisionLevel() < len(assumps) {
			a := assumps[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				s.newDecisionLevel() // dummy level to keep indexing aligned
				continue
			case lFalse:
				s.analyzeFinal(a)
				return false
			}
			s.newDecisionLevel()
			s.enqueue(a, 0)
			continue
		}
		s.reduceDB()
		// Decide.
		v := s.pickBranchVar()
		if v == 0 {
			model = true
			break
		}
		s.Decisions++
		s.newDecisionLevel()
		if s.phase[v] {
			s.enqueue(PosLit(v), 0)
		} else {
			s.enqueue(NegLit(v), 0)
		}
	}
	if model {
		s.saveModel()
	}
	return model
}

// analyzeFinal runs final-conflict analysis for a failed assumption a
// (one whose negation is already forced when the placement loop reaches
// it): walking reasons backward from ¬a, it collects the subset of
// earlier assumption decisions that participated in forcing ¬a. The
// result — a together with those assumptions — is stored for
// FailedAssumptions. Unlike regular conflict analysis nothing is learnt
// here: the incompatibility is already implied by the clause database
// plus the assumption prefix, so no clause mentioning assumption
// literals needs to be (or is) added.
func (s *Solver) analyzeFinal(a Lit) {
	s.conflictAssumps = append(s.conflictAssumps[:0], a)
	if s.decisionLevel() == 0 {
		return // ¬a holds at the top level; a alone is the conflict
	}
	s.seen[a.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == 0 {
			// A decision above level 0 inside the placement loop is an
			// assumption; record it as part of the incompatible set.
			s.conflictAssumps = append(s.conflictAssumps, s.trail[i])
		} else {
			for _, q := range s.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[a.Var()] = false
}

// FailedAssumptions returns the subset of the assumptions passed to the
// last SolveUnderAssumptions call found jointly incompatible with the
// clause database (empty when the last call was satisfiable or failed
// for a non-assumption reason). The slice is reused across calls.
func (s *Solver) FailedAssumptions() []Lit { return s.conflictAssumps }

func (s *Solver) pickBranchVar() Var {
	for s.heap.size() > 0 {
		v := s.heap.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return 0
}

// modelSnapshot holds the last model found.
type modelSnapshot []lbool

func (s *Solver) saveModel() {
	// Variables added since the last solve (incremental Extend) grow assign
	// past the snapshot; reallocate rather than copy a truncated prefix.
	if len(s.model) < len(s.assign) {
		s.model = make(modelSnapshot, len(s.assign))
	}
	copy(s.model, s.assign)
}

// ModelValue reports the last model's value for v (only meaningful after a
// successful Solve).
func (s *Solver) ModelValue(v Var) bool { return s.model[v] == lTrue }

// SetPhase sets the preferred polarity of v for future decisions.
func (s *Solver) SetPhase(v Var, b bool) { s.phase[v] = b }
