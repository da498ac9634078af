package xr

import (
	"context"
	"slices"
)

// This file decides signature groups from greedy repairs of a signature's
// sub-world (DESIGN.md §17), before the signature's persistent solver
// exists. Consistency is closed under subsets, so adding the sub-world's
// deletable facts to the rest one by one, in any fixed order, each unless
// it realizes a covered violation, ends in a maximal consistent set: a
// repair, a stable model of the signature program. A candidate false in
// such a repair is not certain, and one true in it is possible.
//
// Each signature program keeps two repairs, built with its base program:
// the deletable facts added in ascending and in descending local-id order.
// A candidate both leave open under the asked semantics gets at most one
// repair of its own, in a directed order: on the certain side the facts
// whose loss alone falsifies it go last, on the possible side the
// deletable facts of its first covered support set's closure go first.

// maxDirectedWork bounds a directed repair's cost, in deletable facts
// times index size: past it the candidate goes to a session. The certain
// side's order takes one derivation per deletable fact.
const maxDirectedWork = 1 << 20

// repairSet is one repair of a signature's sub-world: the local facts it
// derives, as a bitset.
type repairSet []uint64

func (r repairSet) has(l int32) bool { return r[l>>6]&(1<<(l&63)) != 0 }

// holds reports whether a candidate, given by its covered support sets
// over local ids, holds in r: whether one of the sets lies in it.
func (r repairSet) holds(sets [][]int32) bool {
sets:
	for _, set := range sets {
		for _, l := range set {
			if !r.has(l) {
				continue sets
			}
		}
		return true
	}
	return false
}

// greedyWork builds greedy repairs over one derivation index. While a
// repair is built its derived set only grows, so adding a fact propagates
// only its new consequences, and a fact that realizes a covered violation
// is taken back from the trail.
type greedyWork struct {
	x          *maxIndex
	deletable  []int32   // the program's deletable local facts, ascending
	derived    repairSet // the derived local facts
	pending    []int32   // per rule, its body facts not yet derived
	vioPending []int32   // per covered violation, its body facts not yet derived
	trail      []int32   // the derived facts, in derivation order
	stack      []int32
	base       int // trail length once the base is derived
}

// newGreedyWork derives the base of every repair: the non-deletable
// source facts and what they derive. It returns nil when the base alone
// realizes a covered violation, so that the sub-world has no repair.
func newGreedyWork(x *maxIndex, deletable []int32) *greedyWork {
	n := len(x.watchFrom) - 1
	wk := &greedyWork{
		x:          x,
		deletable:  deletable,
		derived:    make(repairSet, (n+63)/64),
		pending:    slices.Clone(x.pendingInit),
		vioPending: make([]int32, len(x.violations)),
	}
	consistent := true
	for vi, body := range x.violations {
		wk.vioPending[vi] = int32(len(body))
		consistent = consistent && len(body) > 0
	}
	next := 0
	for l := range x.sources {
		if next < len(deletable) && deletable[next] == l {
			next++
			continue
		}
		consistent = wk.derive(l) && consistent
	}
	for _, l := range x.seeds {
		consistent = wk.derive(l) && consistent
	}
	if !consistent {
		return nil
	}
	wk.base = len(wk.trail)
	return wk
}

// derive adds local fact l and everything it newly completes to the
// derived set, and reports whether no covered violation got realized.
func (wk *greedyWork) derive(l int32) bool {
	x := wk.x
	ok := true
	stack := append(wk.stack[:0], l)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if wk.derived.has(f) {
			continue
		}
		wk.derived[f>>6] |= 1 << (f & 63)
		wk.trail = append(wk.trail, f)
		for _, ri := range x.watchers[x.watchFrom[f]:x.watchFrom[f+1]] {
			if wk.pending[ri]--; wk.pending[ri] == 0 {
				stack = append(stack, x.heads[ri])
			}
		}
		for _, vi := range x.vioWatchers[x.vioFrom[f]:x.vioFrom[f+1]] {
			if wk.vioPending[vi]--; wk.vioPending[vi] == 0 {
				ok = false
			}
		}
	}
	wk.stack = stack
	return ok
}

// undo takes back every fact derived after the first n of the trail.
func (wk *greedyWork) undo(n int) {
	x := wk.x
	for _, f := range wk.trail[n:] {
		wk.derived[f>>6] &^= 1 << (f & 63)
		for _, ri := range x.watchers[x.watchFrom[f]:x.watchFrom[f+1]] {
			wk.pending[ri]++
		}
		for _, vi := range x.vioWatchers[x.vioFrom[f]:x.vioFrom[f+1]] {
			wk.vioPending[vi]++
		}
	}
	wk.trail = wk.trail[:n]
}

// repair returns the greedy repair that adds the deletable facts to the
// base in order, each unless it realizes a covered violation.
func (wk *greedyWork) repair(order []int32) repairSet {
	wk.undo(wk.base)
	for _, l := range order {
		if n := len(wk.trail); !wk.derive(l) {
			wk.undo(n)
		}
	}
	return slices.Clone(wk.derived)
}

// holdsWithout reports whether a candidate, given by its covered support
// sets, is derived with every deletable fact but l kept, violations
// aside: when it is not, the loss of l alone falsifies it.
func (wk *greedyWork) holdsWithout(l int32, sets [][]int32) bool {
	wk.undo(wk.base)
	for _, k := range wk.deletable {
		if k != l {
			wk.derive(k)
		}
	}
	return wk.derived.holds(sets)
}

// ordered returns the facts ls, those for which first holds first, each
// part in the order of ls.
func ordered(ls []int32, first func(l int32) bool) []int32 {
	order := make([]int32, 0, len(ls))
	var rest []int32
	for _, l := range ls {
		if first(l) {
			order = append(order, l)
		} else {
			rest = append(rest, l)
		}
	}
	return append(order, rest...)
}

// sharedRepairs returns the program's two shared greedy repairs, the
// deletable facts added in ascending and in descending order, or nil when
// its sub-world has no repair.
func sharedRepairs(e *encoder, x *maxIndex) []repairSet {
	wk := newGreedyWork(x, e.deletable)
	if wk == nil {
		return nil
	}
	desc := slices.Clone(e.deletable)
	slices.Reverse(desc)
	return []repairSet{wk.repair(e.deletable), wk.repair(desc)}
}

// coveredSets returns the candidate's covered support sets over local ids
// (none when the candidate cannot hold in the sub-world).
func (e *encoder) coveredSets(c *candidate) [][]int32 {
	var flat []int32
	var ends []int
	for _, set := range c.supports {
		n := len(flat)
		var covered bool
		if flat, covered = e.locals(flat, set); covered {
			ends = append(ends, len(flat))
		} else {
			flat = flat[:n]
		}
	}
	sets := make([][]int32, len(ends))
	from := 0
	for i, end := range ends {
		sets[i] = flat[from:end:end]
		from = end
	}
	return sets
}

// directedRepair returns the repair in the directed order for a candidate
// given by its covered support sets, on the side of the semantics. It
// returns nil past maxDirectedWork, and when the directed order is the
// ascending one, whose repair is shared and left the candidate open.
func (sp *sigProgram) directedRepair(wk *greedyWork, sets [][]int32, brave bool) repairSet {
	var order []int32
	if brave {
		closure := make([]bool, len(sp.enc.vars))
		sp.enc.close(closure, sets[0])
		order = ordered(wk.deletable, func(l int32) bool { return closure[l] })
	} else {
		if len(wk.deletable)*sp.idx.size() > maxDirectedWork {
			return nil
		}
		order = ordered(wk.deletable, func(l int32) bool { return wk.holdsWithout(l, sets) })
	}
	if slices.Equal(order, wk.deletable) {
		return nil
	}
	return wk.repair(order)
}

// size is the index's size: its local facts and watch entries.
func (x *maxIndex) size() int { return len(x.watchFrom) + len(x.watchers) + len(x.vioWatchers) }

// groupDecision is what the greedy repairs of a group's signature program
// show about the group under one semantics. It is a pure function of the
// group, immutable once published on it.
type groupDecision struct {
	// verdicts holds what the repairs show about each candidate with a
	// covered support set, in group order: true in one, the candidate is
	// possible; false in one, not certain. It is nil when the program
	// keeps no repairs.
	verdicts []verdict
	// complete marks a group the repairs decide entirely, as the fields
	// below describe.
	complete   bool
	accepted   []*candidate // the candidates that hold, in group order
	candidates int          // candidates with a covered support set
	atoms      int          // distinct query atoms they would wire
	rules      int          // the base program's size
	numAtoms   int
}

// solve returns a complete decision as a sigSolve decided without a
// session.
func (d *groupDecision) solve() sigSolve {
	return sigSolve{
		accepted:   d.accepted,
		candidates: d.candidates,
		memo:       true,
		greedy:     d.atoms,
		hasModel:   true,
		rules:      d.rules,
		numAtoms:   d.numAtoms,
	}
}

// greedyDecision returns the group's decision from the program's greedy
// repairs under the semantics, evaluating and publishing it on the first
// ask. A candidate the shared repairs leave open gets one directed repair.
// It reports false, publishing nothing, when ctx ended before the
// evaluation did.
func (sp *sigProgram) greedyDecision(ctx context.Context, g *sigGroup, brave bool) (*groupDecision, bool) {
	slot := g.decided(brave)
	if d := slot.Load(); d != nil {
		return d, true
	}
	d := &groupDecision{}
	if sp.repairs != nil {
		var ok bool
		if d, ok = sp.evalGreedy(ctx, g, brave); !ok {
			return nil, false
		}
	}
	slot.Store(d)
	return d, true
}

// evalGreedy evaluates the group on the program's repairs. It checks ctx
// before each directed repair and reports false once ctx is done.
func (sp *sigProgram) evalGreedy(ctx context.Context, g *sigGroup, brave bool) (*groupDecision, bool) {
	var live []*candidate
	var sets [][][]int32
	var vs []verdict
	for _, c := range g.cands {
		s := sp.enc.coveredSets(c)
		if len(s) == 0 {
			continue
		}
		var v verdict
		for _, r := range sp.repairs {
			v = v.from(r, s)
		}
		live = append(live, c)
		sets = append(sets, s)
		vs = append(vs, v)
	}
	d := &groupDecision{verdicts: vs, complete: true}
	var wk *greedyWork
	for i := range live {
		if _, known := vs[i].lookup(brave); known {
			continue
		}
		if ctx.Err() != nil {
			return nil, false
		}
		if wk == nil {
			wk = newGreedyWork(sp.idx, sp.enc.deletable)
		}
		if r := sp.directedRepair(wk, sets[i], brave); r != nil {
			for j := i; j < len(live); j++ {
				if _, known := vs[j].lookup(brave); !known {
					vs[j] = vs[j].from(r, sets[j])
				}
			}
		}
		if _, known := vs[i].lookup(brave); !known {
			d.complete = false
		}
	}
	if !d.complete {
		return d, true
	}
	d.candidates = len(live)
	d.rules, d.numAtoms = sp.enc.gp.NumRules(), sp.enc.gp.NumAtoms()
	keys := make([]string, len(live))
	for i, c := range live {
		if h, _ := vs[i].lookup(brave); h {
			d.accepted = append(d.accepted, c)
		}
		keys[i], _ = sp.enc.candidateKey(c)
	}
	slices.Sort(keys)
	d.atoms = len(slices.Compact(keys))
	return d, true
}

// from returns v with what repair r shows about a candidate given by its
// covered support sets: true in r, it is possible; false, not certain.
func (v verdict) from(r repairSet, sets [][]int32) verdict {
	if r.holds(sets) {
		return v.with(true, true)
	}
	return v.with(false, false)
}

// learnGreedy records in the verdict memo what the greedy repairs showed
// about the wired atoms (vs follows w.live) and returns the number of
// distinct atoms they decided under the semantics that the memo had not.
func (inc *incSolver) learnGreedy(w *groupWiring, vs []verdict, brave bool) (decided int) {
	if vs == nil {
		return 0
	}
	for i, a := range w.atoms {
		v := inc.verdicts[a]
		if _, known := v.lookup(brave); known {
			continue
		}
		v |= vs[i]
		inc.verdicts[a] = v
		if _, known := v.lookup(brave); known {
			decided++
		}
	}
	return decided
}
