// Package chase implements the chase procedure in two flavours:
//
//   - Native: the standard (restricted) chase for glav+(wa-glav, egd)
//     mappings, introducing labeled nulls for existential variables and
//     unifying values when egds fire. Used for ground truth, solution
//     existence, and universal-solution construction (Fagin et al. 2005).
//
//   - GAV provenance chase: a datalog fixpoint for gav+(gav, egd) mappings
//     that records every ground derivation (the paper's support sets,
//     Definition 4) and every egd violation; this powers repair envelopes
//     and the segmentary pipeline.
//
// Both flavours are driven semi-naively (Abiteboul/Hull/Vianu): rules
// compile once per chase, a rule is re-evaluated only when a relation in
// its body gained tuples since the rule's generation watermark, and each
// evaluation enumerates only the matches that use at least one such delta
// tuple. Collected matches are applied in ascending generation-rank order,
// which reproduces the enumeration order of the naive fixpoint exactly, so
// the semi-naive chase is byte-identical to the naive one (same null
// naming, same fact interning order, same support sets and violations).
// The naive fixpoint survives only as the reference driver of the
// equivalence tests.
package chase

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// ErrNoSolution is returned when an egd attempts to equate two distinct
// constants, i.e. the chase fails and the source instance has no solution.
var ErrNoSolution = errors.New("chase: egd failure, no solution exists")

// maxRounds bounds the number of chase rounds as a safety net against
// non-terminating inputs. Weakly acyclic chases converge in rounds bounded
// by the derivation depth, which is far below this for any realistic
// mapping; inputs that legitimately need deeper iteration (e.g. transitive
// closure over a path of thousands of edges expressed without doubling)
// would need the constant raised.
const maxRounds = 2_000

// Stats reports what one chase run did. All counters are deterministic for
// a given (mapping, source).
type Stats struct {
	Rounds     int // fixpoint rounds executed
	RuleEvals  int // rule evaluations actually performed
	RuleSkips  int // evaluations skipped by the rule→relation dependency index
	Triggers   int // tgd matches applied (fired or support-recorded)
	DeltaFacts int // facts added by the chase (beyond the source)

	TgdDuration       time.Duration // time enumerating and applying tgds
	EgdDuration       time.Duration // Native: time evaluating egds and rewriting
	ViolationDuration time.Duration // GAV: time in the final violation scan
}

// Options configures a chase run.
type Options struct {
	// Stats, when non-nil, is filled in with run counters and timings.
	Stats *Stats
}

// Native runs the standard chase of src with m and returns the combined
// instance I ∪ J where J is the canonical universal solution. It returns
// ErrNoSolution if an egd fails. The mapping's target tgds should be weakly
// acyclic for guaranteed termination.
//
// The result contains the (possibly value-rewritten) source facts alongside
// target facts; restrict to m.Target for J alone.
func Native(m *mapping.Mapping, src *instance.Instance) (*instance.Instance, error) {
	return NativeWithOptions(m, src, Options{})
}

// NativeWithOptions is Native with a stats sink.
func NativeWithOptions(m *mapping.Mapping, src *instance.Instance, opt Options) (*instance.Instance, error) {
	st := opt.Stats
	if st == nil {
		st = &Stats{}
	}
	work := src.Clone()

	tgds := m.AllTgds()
	tgdExecs := make([]*tgdExec, len(tgds))
	for i, d := range tgds {
		tgdExecs[i] = compileTGD(d)
	}
	egdExecs := make([]*egdExec, len(m.TEgds))
	for i, d := range m.TEgds {
		egdExecs[i] = compileEGD(d)
	}

	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("chase: did not terminate after %d rounds (mapping not weakly acyclic?)", maxRounds)
		}
		st.Rounds++
		evaluated := false
		// Tgd phase: fire every unsatisfied trigger.
		t0 := time.Now()
		for _, te := range tgdExecs {
			ev, _ := te.apply(work, m.U, st)
			evaluated = evaluated || ev
		}
		st.TgdDuration += time.Since(t0)
		// Egd phase: collect all equalities demanded by egds, merge.
		t0 = time.Now()
		evEgd, _, err := applyEGDs(egdExecs, work, st)
		st.EgdDuration += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !evaluated && !evEgd {
			// Every rule was up to date with the instance generation:
			// fixpoint (changed rules re-check one cheap round later).
			return work, nil
		}
	}
}

// HasSolution reports whether src has a solution w.r.t. m (for weakly
// acyclic mappings, iff the chase succeeds).
func HasSolution(m *mapping.Mapping, src *instance.Instance) bool {
	_, err := Native(m, src)
	return err == nil
}

// headExec is one precompiled head atom: a constant template plus, per
// position, the body-variable environment slot or the existential index.
type headExec struct {
	rel    schema.RelID
	consts []symtab.Value // constant per position, None where a variable
	slot   []int          // body env slot per position, -1 otherwise
	extIdx []int          // existential index per position, -1 otherwise
}

// tgdExec is one compiled tgd: a reusable body plan, the head templates,
// the body relation set for the dependency index, the semi-naive watermark,
// and per-instance scratch buffers (an exec is used by one chase at a time).
type tgdExec struct {
	d         *logic.TGD
	plan      *cq.Plan
	bodyRels  []schema.RelID
	watermark uint64
	started   bool // evaluated at least once (watermark is meaningful)

	heads    []headExec
	numExt   int
	ext      []symtab.Value   // existential bindings, None = unbound
	patterns [][]symtab.Value // per head atom, for headSatisfied
	free     [][]int          // per head atom, unbound existential positions
	boundExt [][]int          // per head atom, ext indices bound at this depth
}

func compileTGD(d *logic.TGD) *tgdExec {
	te := &tgdExec{d: d, plan: cq.Compile(d.Body)}
	te.bodyRels = te.plan.Relations()
	exts := d.ExistentialVars() // sorted: fresh-null assignment order
	te.numExt = len(exts)
	te.ext = make([]symtab.Value, len(exts))
	extIdx := make(map[string]int, len(exts))
	for i, v := range exts {
		extIdx[v] = i
	}
	for _, a := range d.Head {
		h := headExec{
			rel:    a.Rel,
			consts: make([]symtab.Value, len(a.Terms)),
			slot:   make([]int, len(a.Terms)),
			extIdx: make([]int, len(a.Terms)),
		}
		for j, t := range a.Terms {
			h.slot[j], h.extIdx[j] = -1, -1
			switch {
			case !t.IsVar():
				h.consts[j] = t.Val
			default:
				if s, ok := te.plan.VarSlot[t.Var]; ok {
					h.slot[j] = s
				} else {
					h.extIdx[j] = extIdx[t.Var]
				}
				h.consts[j] = symtab.None
			}
		}
		te.heads = append(te.heads, h)
		te.patterns = append(te.patterns, make([]symtab.Value, len(a.Terms)))
		te.free = append(te.free, nil)
		te.boundExt = append(te.boundExt, nil)
	}
	return te
}

// hasDelta reports whether any body relation gained tuples since the
// watermark (always true for a never-evaluated rule).
func (te *tgdExec) hasDelta(work *instance.Instance) bool {
	if !te.started {
		return true
	}
	for _, r := range te.bodyRels {
		if work.RelGen(r) > te.watermark {
			return true
		}
	}
	return false
}

// trigger is one collected body match: the environment and its generation
// rank (gens of the matched body tuples, indexed by body atom). Applying
// triggers in ascending join-order rank reproduces naive enumeration order.
type trigger struct {
	env  []symtab.Value
	rank []uint64
}

func sortTriggers(trig []trigger, order []int) {
	sort.Slice(trig, func(i, j int) bool {
		return rankLess(trig[i].rank, trig[j].rank, order)
	})
}

// rankLess compares generation ranks lexicographically along the join
// order. Ranks are unique per match (tuple generations are globally
// unique), so the order is total and the sort deterministic.
func rankLess(a, b []uint64, order []int) bool {
	for _, pos := range order {
		if a[pos] != b[pos] {
			return a[pos] < b[pos]
		}
	}
	return false
}

// apply evaluates the tgd semi-naively and fires every collected trigger
// whose head is not already satisfied, adding fresh nulls for existential
// variables. It reports whether the rule was evaluated at all and whether
// any fact was added.
func (te *tgdExec) apply(work *instance.Instance, u *symtab.Universe, st *Stats) (evaluated, added bool) {
	old := te.watermark
	if !te.hasDelta(work) {
		st.RuleSkips++
		return false, false
	}
	cur := work.Gen()
	st.RuleEvals++
	te.started = true
	var trig []trigger
	var evalOrder []int
	te.plan.ForEachDelta(work, old, func(env []symtab.Value, rank []uint64, order []int) bool {
		evalOrder = order
		trig = append(trig, trigger{
			env:  append([]symtab.Value(nil), env...),
			rank: append([]uint64(nil), rank...),
		})
		return true
	})
	te.watermark = cur
	sortTriggers(trig, evalOrder)
	for _, tr := range trig {
		if te.headSatisfied(work, tr.env) {
			continue
		}
		st.Triggers++
		// Fire: fresh nulls for existential variables, in sorted
		// existential-variable order (te.ext is indexed in that order).
		for i := range te.ext {
			te.ext[i] = u.FreshNull()
		}
		for hi := range te.heads {
			h := &te.heads[hi]
			args := make([]symtab.Value, len(h.consts))
			for j := range args {
				switch {
				case h.slot[j] >= 0:
					args[j] = tr.env[h.slot[j]]
				case h.extIdx[j] >= 0:
					args[j] = te.ext[h.extIdx[j]]
				default:
					args[j] = h.consts[j]
				}
			}
			if work.Add(h.rel, args) {
				added = true
				st.DeltaFacts++
			}
		}
	}
	return true, added
}

// headSatisfied reports whether env extends to a substitution of the head's
// existential variables making every head atom a fact of work (the
// restricted-chase applicability test).
func (te *tgdExec) headSatisfied(work *instance.Instance, env []symtab.Value) bool {
	for i := range te.ext {
		te.ext[i] = symtab.None
	}
	return te.matchHead(work, 0, env)
}

func (te *tgdExec) matchHead(work *instance.Instance, i int, env []symtab.Value) bool {
	if i == len(te.heads) {
		return true
	}
	h := &te.heads[i]
	pattern := te.patterns[i]
	free := te.free[i][:0]
	for j := range pattern {
		switch {
		case h.slot[j] >= 0:
			pattern[j] = env[h.slot[j]]
		case h.extIdx[j] >= 0:
			if v := te.ext[h.extIdx[j]]; v != symtab.None {
				pattern[j] = v
			} else {
				pattern[j] = symtab.None
				free = append(free, j)
			}
		default:
			pattern[j] = h.consts[j]
		}
	}
	te.free[i] = free
	if len(free) == 0 {
		return work.Contains(h.rel, pattern) && te.matchHead(work, i+1, env)
	}
	found := false
	work.ForEachMatch(h.rel, pattern, 0, ^uint64(0), func(tup []symtab.Value, _ uint64) bool {
		bound := te.boundExt[i][:0]
		ok := true
		for _, j := range free {
			e := h.extIdx[j]
			if v := te.ext[e]; v != symtab.None {
				if v != tup[j] {
					ok = false
					break
				}
				continue
			}
			te.ext[e] = tup[j]
			bound = append(bound, e)
		}
		te.boundExt[i] = bound
		if ok && te.matchHead(work, i+1, env) {
			found = true
			return false
		}
		for _, e := range bound {
			te.ext[e] = symtab.None
		}
		return true
	})
	return found
}

// egdExec is one compiled egd: a reusable body plan plus the semi-naive
// watermark.
type egdExec struct {
	d         *logic.EGD
	plan      *cq.Plan
	bodyRels  []schema.RelID
	watermark uint64
	started   bool // evaluated at least once (watermark is meaningful)
}

func compileEGD(d *logic.EGD) *egdExec {
	ee := &egdExec{d: d, plan: cq.Compile(d.Body)}
	ee.bodyRels = ee.plan.Relations()
	return ee
}

func (ee *egdExec) hasDelta(work *instance.Instance) bool {
	if !ee.started {
		return true
	}
	for _, r := range ee.bodyRels {
		if work.RelGen(r) > ee.watermark {
			return true
		}
	}
	return false
}

// applyEGDs finds every newly violated ground egd, merges the demanded
// values via union-find, and rewrites the instance in place (touching only
// tuples containing a remapped value). It reports whether any egd was
// evaluated, whether anything merged, or ErrNoSolution on a
// constant/constant conflict.
//
// Restricting to delta bindings is sound: a violating pair among pre-
// watermark tuples was enumerated when those tuples were last new, merged,
// and rewritten — after which its two sides are equal, and value rewriting
// can never make equal sides unequal again.
func applyEGDs(egds []*egdExec, work *instance.Instance, st *Stats) (evaluated, merged bool, err error) {
	uf := newUnionFind()
	demand := false
	// All egds are evaluated against the same frozen instance; the rewrite
	// happens once at the end, so every watermark advances to the same
	// generation.
	cur := work.Gen()
	for _, ee := range egds {
		old := ee.watermark
		if !ee.hasDelta(work) {
			st.RuleSkips++
			continue
		}
		st.RuleEvals++
		ee.started = true
		evaluated = true
		var fail error
		lTerm, rTerm := ee.d.L, ee.d.R
		ee.plan.ForEachDelta(work, old, func(env []symtab.Value, _ []uint64, _ []int) bool {
			l := egdSide(lTerm, ee.plan, env)
			r := egdSide(rTerm, ee.plan, env)
			if l == r {
				return true
			}
			demand = true
			if err := uf.union(l, r); err != nil {
				fail = err
				return false
			}
			return true
		})
		ee.watermark = cur
		if fail != nil {
			return evaluated, false, fail
		}
	}
	if !demand {
		return evaluated, false, nil
	}
	// Rewrite the instance through the union-find representatives, in
	// place: only tuples containing a remapped value are removed and
	// re-inserted (with fresh generations, making them the next round's
	// delta).
	rewrite := uf.mapping()
	if len(rewrite) == 0 {
		return evaluated, false, nil
	}
	work.RewriteValues(rewrite)
	return evaluated, true, nil
}

func egdSide(t logic.Term, plan *cq.Plan, env []symtab.Value) symtab.Value {
	if t.IsVar() {
		return env[plan.VarSlot[t.Var]]
	}
	return t.Val
}

// unionFind merges values with the invariant that a class containing a
// constant is represented by that constant; merging two distinct constants
// is an error (egd failure). Representatives are order-independent: the
// final representative of a class is its constant, or among nulls the
// largest Value (= earliest-created null).
type unionFind struct {
	parent map[symtab.Value]symtab.Value
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[symtab.Value]symtab.Value)}
}

// find returns the representative of v, compressing the path iteratively
// (merge chains can be long enough to make recursion a stack hazard).
func (uf *unionFind) find(v symtab.Value) symtab.Value {
	root := v
	for {
		p, ok := uf.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	for v != root {
		next := uf.parent[v]
		uf.parent[v] = root
		v = next
	}
	return root
}

func (uf *unionFind) union(a, b symtab.Value) error {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return nil
	}
	if ra.IsConst() && rb.IsConst() {
		return ErrNoSolution
	}
	// Keep a constant as representative; otherwise keep the smaller null id.
	switch {
	case ra.IsConst():
		uf.parent[rb] = ra
	case rb.IsConst():
		uf.parent[ra] = rb
	case ra > rb: // both nulls; prefer the earlier null (greater Value is earlier... nulls are negative; -1 > -2, null 1 earlier)
		uf.parent[rb] = ra
	default:
		uf.parent[ra] = rb
	}
	return nil
}

// mapping returns the non-identity value rewrites. Idempotent by
// construction (images are representatives, which map to themselves), as
// instance.RewriteValues requires.
func (uf *unionFind) mapping() map[symtab.Value]symtab.Value {
	out := make(map[symtab.Value]symtab.Value)
	for v := range uf.parent {
		if r := uf.find(v); r != v {
			out[v] = r
		}
	}
	return out
}
