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

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	lbd     int32 // literal-block distance at learn time (0 for problem clauses)
	deleted bool
}

type watch struct {
	c       *clause
	blocker Lit
}

// Solver is an incremental CDCL SAT solver in the MiniSat lineage:
// two-literal watches, first-UIP conflict learning, VSIDS-style activities,
// phase saving (false-first by default, which biases models toward being
// subset-small — useful for minimal-model generation), Luby restarts, and
// solving under assumptions.
type Solver struct {
	nVars    int
	clauses  []*clause
	learnts  []*clause
	watches  [][]watch // indexed by Lit
	assign   []lbool   // indexed by Var
	level    []int32   // indexed by Var
	reason   []*clause // indexed by Var
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
	// Var 0 is unused; keep slots so indexing is direct.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
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
	s.reason = append(s.reason, nil)
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

// AddClause adds a clause. It returns false if the solver becomes
// trivially unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("asp: AddClause while not at decision level 0")
	}
	// Normalize: drop duplicate and false literals; detect tautologies and
	// satisfied clauses.
	norm := make([]Lit, 0, len(lits))
	seen := &s.clauseLits
	seen.reset()
	for _, l := range lits {
		switch {
		case s.valueLit(l) == lTrue, seen.contains(int(l.Neg())):
			return true // already satisfied / tautology
		case s.valueLit(l) == lFalse, seen.contains(int(l)):
			continue
		default:
			seen.add(int(l))
			norm = append(norm, l)
		}
	}
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(norm[0], nil) {
			s.ok = false
			return false
		}
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: norm}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watch{c: c, blocker: l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watch{c: c, blocker: l0})
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
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

func (s *Solver) propagate() *clause {
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
			if c.deleted {
				continue
			}
			// Ensure the false literal is at position 1.
			falseLit := l.Neg()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				kept = append(kept, watch{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watch{c: c, blocker: first})
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
	return nil
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
		s.reason[v] = nil
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

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

// analyze performs first-UIP learning and returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if confl.learnt {
			s.bumpClause(confl)
		}
		for _, q := range confl.lits {
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

func (s *Solver) recordLearnt(lits []Lit) {
	if len(lits) == 1 {
		s.enqueue(lits[0], nil)
		return
	}
	c := &clause{lits: lits, learnt: true, act: s.claInc, lbd: s.clauseLBD(lits)}
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
	removable := make([]*clause, 0, len(s.learnts))
	for _, c := range s.learnts {
		if len(c.lits) > 2 && c.lbd > 2 && !c.locked(s) {
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
		if removable[i].lbd != removable[j].lbd {
			return removable[i].lbd > removable[j].lbd
		}
		return removable[i].act < removable[j].act
	})
	drop := removable[:len(removable)/2]
	for _, c := range drop {
		c.deleted = true
	}
	s.ClausesDeleted += int64(len(drop))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.maxLearnts += s.maxLearnts / 10
}

func (c *clause) locked(s *Solver) bool {
	v := c.lits[0].Var()
	return s.reason[v] == c && s.assign[v] != lUndef
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
	if s.propagate() != nil {
		s.ok = false
		return false
	}
	s.removeSatisfied(&s.learnts)
	s.removeSatisfied(&s.clauses)
	return true
}

func (s *Solver) removeSatisfied(list *[]*clause) {
	kept := (*list)[:0]
	for _, c := range *list {
		sat := false
		for _, l := range c.lits {
			if s.valueLit(l) == lTrue && s.level[l.Var()] == 0 {
				sat = true
				break
			}
		}
		if !sat {
			kept = append(kept, c)
			continue
		}
		c.deleted = true
		// Level-0 assignments are never resolved on, so dropping the
		// reason pointer of a satisfied reason clause is safe.
		if v := c.lits[0].Var(); s.reason[v] == c {
			s.reason[v] = nil
		}
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
		if confl != nil {
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
			s.enqueue(a, nil)
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
			s.enqueue(PosLit(v), nil)
		} else {
			s.enqueue(NegLit(v), nil)
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
		if s.reason[v] == nil {
			// A decision above level 0 inside the placement loop is an
			// assumption; record it as part of the incompatible set.
			s.conflictAssumps = append(s.conflictAssumps, s.trail[i])
		} else {
			for _, q := range s.reason[v].lits[1:] {
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
