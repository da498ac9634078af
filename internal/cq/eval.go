// Package cq evaluates conjunctive queries and unions of conjunctive queries
// over instances. A body compiles once into a Plan (variable slots, constant
// templates); join order is chosen per evaluation by a cheap greedy re-cost
// (most-bound atom first, then smallest relation), so one Plan can be reused
// across chase rounds as relation sizes change. Matches are enumerated by
// indexed backtracking; ForEachDelta additionally restricts enumeration to
// matches using at least one tuple newer than a generation watermark, which
// is the core of semi-naive chase evaluation.
package cq

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// atomExec is one precompiled body atom: a constant template plus the
// environment slot of each variable position (-1 for constants).
type atomExec struct {
	rel    schema.RelID
	consts []symtab.Value // constant at each position, None where a variable
	slots  []int          // env slot at each position, -1 where a constant
}

// Plan is a compiled conjunctive body. Plans are instance-independent and
// reusable: compile once per rule, evaluate every round. A Plan is
// read-only after Compile and safe for concurrent evaluation.
type Plan struct {
	base    []atomExec // atoms in original body order
	VarSlot map[string]int
	NumVars int
}

// Compile assigns environment slots to the variables of body and
// precompiles each atom's constant template. Join ordering is deferred to
// evaluation time (JoinOrder), so no instance is needed here.
func Compile(body []logic.Atom) *Plan {
	p := &Plan{VarSlot: make(map[string]int)}
	for _, a := range body {
		ae := atomExec{
			rel:    a.Rel,
			consts: make([]symtab.Value, len(a.Terms)),
			slots:  make([]int, len(a.Terms)),
		}
		for j, t := range a.Terms {
			if t.IsVar() {
				s, ok := p.VarSlot[t.Var]
				if !ok {
					s = p.NumVars
					p.VarSlot[t.Var] = s
					p.NumVars++
				}
				ae.slots[j] = s
				ae.consts[j] = symtab.None
			} else {
				ae.slots[j] = -1
				ae.consts[j] = t.Val
			}
		}
		p.base = append(p.base, ae)
	}
	return p
}

// NumAtoms returns the number of body atoms.
func (p *Plan) NumAtoms() int { return len(p.base) }

// Relations returns the distinct relations of the body atoms in first-use
// order. The chase uses this to build its rule→relation dependency index.
func (p *Plan) Relations() []schema.RelID {
	var out []schema.RelID
	for i := range p.base {
		r := p.base[i].rel
		seen := false
		for _, s := range out {
			if s == r {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, r)
		}
	}
	return out
}

// JoinOrder picks the evaluation order of the body atoms against in:
// greedily, the atom with the most bound positions (constants or variables
// bound by earlier atoms), ties broken by smaller relation cardinality, then
// by earlier position in the body. A nil instance orders with arity-based
// heuristics only. The returned slice indexes into the compiled body.
func (p *Plan) JoinOrder(in *instance.Instance) []int {
	n := len(p.base)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, p.NumVars)
	for len(order) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i := range p.base {
			if used[i] {
				continue
			}
			score := 0
			for _, s := range p.base[i].slots {
				if s < 0 || bound[s] {
					score++
				}
			}
			sz := 1 << 20
			if in != nil {
				sz = in.LenOf(p.base[i].rel)
			}
			if score > bestScore || (score == bestScore && sz < bestSize) {
				best, bestScore, bestSize = i, score, sz
			}
		}
		used[best] = true
		order = append(order, best)
		for _, s := range p.base[best].slots {
			if s >= 0 {
				bound[s] = true
			}
		}
	}
	return order
}

// evalState holds the per-evaluation scratch buffers so a match run does not
// allocate per candidate: one pattern and bound-slot buffer per plan
// position, the shared environment, and the generation rank vector.
//
// order is the canonical JoinOrder sequence; it defines the semi-naive
// window of each atom (before the seed: old, at it: delta, after: full) and
// the positions of the rank vector. evalOrder is the nesting order actually
// used to enumerate the join for the current seed — the seed atom first
// (its delta is the small side), the rest greedily by boundness — expressed
// as a permutation of order positions. Windows and ranks depend only on an
// atom's order position, never on its eval position, so reordering the
// nesting changes which matches are found fastest but not which are found.
type evalState struct {
	in         *instance.Instance
	oldGen     uint64
	order      []int
	evalOrder  []int
	env        []symtab.Value
	rank       []uint64
	patterns   [][]symtab.Value // indexed by order position
	boundSlots [][]int          // indexed by order position
	sizes      []int            // relation cardinality per order position
}

func (p *Plan) newEvalState(in *instance.Instance, oldGen uint64) *evalState {
	st := &evalState{
		in:         in,
		oldGen:     oldGen,
		order:      p.JoinOrder(in),
		evalOrder:  make([]int, len(p.base)),
		env:        make([]symtab.Value, p.NumVars),
		rank:       make([]uint64, len(p.base)),
		patterns:   make([][]symtab.Value, len(p.base)),
		boundSlots: make([][]int, len(p.base)),
		sizes:      make([]int, len(p.base)),
	}
	for i, bi := range st.order {
		st.patterns[i] = make([]symtab.Value, len(p.base[bi].consts))
		st.sizes[i] = in.LenOf(p.base[bi].rel)
	}
	return st
}

// planEvalOrder fills st.evalOrder for the given seed: the seed's order
// position first, then greedily the most-bound remaining atom (ties: smaller
// relation, then earlier order position). Seeding from order position 0
// reproduces the canonical JoinOrder sequence.
func (p *Plan) planEvalOrder(st *evalState, seed int) {
	n := len(st.order)
	bound := make([]bool, p.NumVars)
	st.evalOrder = st.evalOrder[:0]
	st.evalOrder = append(st.evalOrder, seed)
	for _, s := range p.base[st.order[seed]].slots {
		if s >= 0 {
			bound[s] = true
		}
	}
	taken := make([]bool, n)
	taken[seed] = true
	for len(st.evalOrder) < n {
		best, bestScore, bestSize := -1, -1, 0
		for pos := 0; pos < n; pos++ {
			if taken[pos] {
				continue
			}
			score := 0
			for _, s := range p.base[st.order[pos]].slots {
				if s < 0 || bound[s] {
					score++
				}
			}
			if score > bestScore || (score == bestScore && st.sizes[pos] < bestSize) {
				best, bestScore, bestSize = pos, score, st.sizes[pos]
			}
		}
		taken[best] = true
		st.evalOrder = append(st.evalOrder, best)
		for _, s := range p.base[st.order[best]].slots {
			if s >= 0 {
				bound[s] = true
			}
		}
	}
}

// ForEach enumerates every substitution satisfying the plan's body in in.
// env is indexed by VarSlot; the callback must not retain env. Returning
// false stops the enumeration early. ForEach reports whether enumeration ran
// to completion. Enumeration order is deterministic: lexicographic in tuple
// insertion order along the JoinOrder atom sequence.
func (p *Plan) ForEach(in *instance.Instance, fn func(env []symtab.Value) bool) bool {
	return p.ForEachDelta(in, 0, func(env []symtab.Value, _ []uint64, _ []int) bool {
		return fn(env)
	})
}

// ForEachDelta enumerates exactly the substitutions that use at least one
// body tuple inserted after generation oldGen, each exactly once: the
// standard semi-naive split, seeding the join in turn from each atom's delta
// while earlier atoms range over the pre-oldGen instance and later atoms
// over the full instance. oldGen 0 degenerates to a full enumeration
// (everything is delta for the first seed, and the "old" range of later
// seeds is empty), so the naive and semi-naive chase strategies share this
// single code path.
//
// rank holds the insertion generation of the tuple matched at each body
// atom, indexed by the atom's position in the compiled body. order is the
// JoinOrder sequence of the evaluation (shared across all callbacks of one
// ForEachDelta call; safe to retain for the duration of the call). Within
// one evaluation, sorting collected matches lexicographically by
// (rank[order[0]], rank[order[1]], ...) reproduces the enumeration order a
// full ForEach would have produced (tuple insertion order and generation
// order coincide in the add-only chase), which is how the semi-naive chase
// keeps its firing order — and hence its output — byte-identical to the
// naive fixpoint. Callbacks must not retain env or rank.
func (p *Plan) ForEachDelta(in *instance.Instance, oldGen uint64, fn func(env []symtab.Value, rank []uint64, order []int) bool) bool {
	if len(p.base) == 0 {
		if oldGen == 0 {
			return fn(nil, nil, nil)
		}
		return true
	}
	st := p.newEvalState(in, oldGen)
	for seed := range st.order {
		if oldGen > 0 && in.RelGen(p.base[st.order[seed]].rel) <= oldGen {
			continue // no delta tuples in this atom's relation
		}
		p.planEvalOrder(st, seed)
		if !p.matchDelta(st, 0, seed, fn) {
			return false
		}
		if oldGen == 0 {
			break // full enumeration: seed 0 already covered everything
		}
	}
	return true
}

func (p *Plan) matchDelta(st *evalState, depth, seed int, fn func([]symtab.Value, []uint64, []int) bool) bool {
	if depth == len(st.order) {
		return fn(st.env, st.rank, st.order)
	}
	pos := st.evalOrder[depth]
	ae := &p.base[st.order[pos]]
	pattern := st.patterns[pos]
	for j, s := range ae.slots {
		if s >= 0 {
			pattern[j] = st.env[s] // None when unbound
		} else {
			pattern[j] = ae.consts[j]
		}
	}
	lo, hi := uint64(0), ^uint64(0)
	switch {
	case pos < seed:
		hi = st.oldGen
	case pos == seed:
		lo = st.oldGen
	}
	return st.in.ForEachMatch(ae.rel, pattern, lo, hi, func(tup []symtab.Value, gen uint64) bool {
		bs := st.boundSlots[pos][:0]
		ok := true
		for j, s := range ae.slots {
			if s < 0 {
				continue
			}
			switch {
			case st.env[s] == symtab.None:
				st.env[s] = tup[j]
				bs = append(bs, s)
			case st.env[s] != tup[j]:
				ok = false
			}
			if !ok {
				break
			}
		}
		st.boundSlots[pos] = bs
		cont := true
		if ok {
			st.rank[st.order[pos]] = gen
			cont = p.matchDelta(st, depth+1, seed, fn)
		}
		for _, s := range bs {
			st.env[s] = symtab.None
		}
		return cont
	})
}

// AnswerSet is a deduplicated set of answer tuples, held as one slice
// sorted in key order (see CompareTuples): the order Tuples returns, and
// the order in which the segmentary engine collects candidates, so a set
// built from candidates in their collection order only ever appends.
type AnswerSet struct {
	tuples [][]symtab.Value
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet { return &AnswerSet{} }

// SortedAnswerSet returns the set holding tuples, which must be sorted in
// key order without duplicates. The set takes the slice over: the caller
// must not use it afterwards.
func SortedAnswerSet(tuples [][]symtab.Value) *AnswerSet {
	return &AnswerSet{tuples: tuples}
}

// CompareTuples orders tuples as their instance.EncodeTuple keys compare
// as strings: value by value, each by its four little-endian bytes, so by
// the byte-reversed value rather than numerically, and a proper prefix
// first.
func CompareTuples(a, b []symtab.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i])))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// Add inserts a tuple (copied) and reports whether it was new. A tuple
// that sorts after every other is appended; any other is placed by binary
// search.
func (s *AnswerSet) Add(t []symtab.Value) bool {
	n := len(s.tuples)
	if n == 0 || CompareTuples(s.tuples[n-1], t) < 0 {
		s.tuples = append(s.tuples, slices.Clone(t))
		return true
	}
	i, found := slices.BinarySearchFunc(s.tuples, t, CompareTuples)
	if found {
		return false
	}
	s.tuples = slices.Insert(s.tuples, i, slices.Clone(t))
	return true
}

// Contains reports membership.
func (s *AnswerSet) Contains(t []symtab.Value) bool {
	_, found := slices.BinarySearchFunc(s.tuples, t, CompareTuples)
	return found
}

// Len returns the number of tuples.
func (s *AnswerSet) Len() int { return len(s.tuples) }

// Tuples returns the tuples in key order. The slice is the set's own:
// callers may read it and change tuple values, but not reorder it.
func (s *AnswerSet) Tuples() [][]symtab.Value { return s.tuples[:len(s.tuples):len(s.tuples)] }

// Intersect removes tuples not present in other and returns s.
func (s *AnswerSet) Intersect(other *AnswerSet) *AnswerSet {
	kept, j := s.tuples[:0], 0
	for _, t := range s.tuples {
		for j < len(other.tuples) && CompareTuples(other.tuples[j], t) < 0 {
			j++
		}
		if j < len(other.tuples) && CompareTuples(other.tuples[j], t) == 0 {
			kept = append(kept, t)
		}
	}
	clear(s.tuples[len(kept):])
	s.tuples = kept
	return s
}

// WithoutNulls returns the subset of tuples containing only constants
// (the paper's q↓).
func (s *AnswerSet) WithoutNulls() *AnswerSet {
	out := NewAnswerSet()
	for _, t := range s.tuples {
		if !slices.ContainsFunc(t, symtab.Value.IsNull) {
			out.tuples = append(out.tuples, slices.Clone(t))
		}
	}
	return out
}

// Clone returns a copy of the answer set.
func (s *AnswerSet) Clone() *AnswerSet {
	return &AnswerSet{tuples: slices.Clone(s.tuples)}
}

// EvalUCQ evaluates q over in and returns all answers (q(I), including
// tuples with nulls; apply WithoutNulls for q↓).
func EvalUCQ(q *logic.UCQ, in *instance.Instance) *AnswerSet {
	out := NewAnswerSet()
	for ci := range q.Clauses {
		c := &q.Clauses[ci]
		plan := Compile(c.Body)
		tuple := make([]symtab.Value, len(c.Head))
		plan.ForEach(in, func(env []symtab.Value) bool {
			for i, t := range c.Head {
				if t.IsVar() {
					tuple[i] = env[plan.VarSlot[t.Var]]
				} else {
					tuple[i] = t.Val
				}
			}
			out.Add(tuple)
			return true
		})
	}
	return out
}
