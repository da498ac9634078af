package xr

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/asp"
	"repro/internal/logic"
	"repro/internal/symtab"
)

// This file implements the query plans of the segmentary query path
// (DESIGN.md §9.3): the query-specific half of a query — its candidate
// count, its safe answers and its signature groups — computed once per
// query per Exchange and kept in its query state (state.go). An Exchange
// is immutable, so all three are a pure function of the rewritten query,
// and XR-Certain and XR-Possible answers share them: only the per-group
// decision differs. A warm ask then skips candidate collection and the
// safe split, and a group the persistent solver has already wired skips
// candidateKey too.

// queryPlan is what a segmentary query derives from the Exchange before
// solving. Plans are shared by every ask of the query and never mutated
// after the build, except for each group's wiring (an atomic pointer).
type queryPlan struct {
	candidates int // candidate tuples (QueryStats.Candidates)
	// safe holds the tuples of the nsafe safe candidates, accepted without
	// solving, back to back: one pointer-free allocation the garbage
	// collector never scans, however long the plan stays cached.
	safe   []symtab.Value
	nsafe  int
	groups []*sigGroup // the other candidates by fact signature, in canonical key order
}

// sigGroup is the non-safe candidates of one query that share a fact
// signature, in candidate collection order. A group keeps its candidates'
// support sets, from which a persistent solver wires their query atoms.
type sigGroup struct {
	key   string // canonical signature key: the cluster ids joined by commas
	sig   []int
	cands []*candidate

	// wired caches the query atoms of cands on the last persistent solver
	// that wired them (see incSolver.wireCandidates).
	wired atomic.Pointer[groupWiring]
	// decisions holds what the greedy repairs decided about the group,
	// certain then possible, once a job asked them
	// (sigProgram.greedyDecision).
	decisions [2]atomic.Pointer[groupDecision]
}

// decided returns the slot of the group's greedy decision under the
// semantics.
func (g *sigGroup) decided(brave bool) *atomic.Pointer[groupDecision] {
	if brave {
		return &g.decisions[1]
	}
	return &g.decisions[0]
}

// groupWiring is a group resolved to query atoms on one persistent solver:
// live are the candidates with a covered support set, atoms their query
// atoms. It is immutable once published on its group.
type groupWiring struct {
	solver   uint64 // incSolver.id of the solver whose program holds atoms
	atoms    []asp.AtomID
	live     []*candidate
	distinct int // distinct atoms: two candidates may share one
}

// newPlan accepts the collection's proven tuples and groups the candidates
// of the others by fact signature. It also returns every candidate the
// collection built, in key order: with keepAll, the proven ones too.
func (ex *Exchange) newPlan(cl *collector) (*queryPlan, []*candidate) {
	cands := cl.candidates()
	p := &queryPlan{candidates: len(cl.order)}
	size := 0
	for _, t := range cl.order {
		if cl.proven[t] {
			size += len(cl.tuples.Tuple(int(t)))
			p.nsafe++
		}
	}
	p.safe = slices.Grow(p.safe, size)
	for _, t := range cl.order {
		if cl.proven[t] {
			p.safe = append(p.safe, cl.tuples.Tuple(int(t))...)
		}
	}
	byKey := make(map[string]*sigGroup)
	var sig []int
	var key []byte
	for _, c := range cands {
		if cl.proven[cl.order[c.rank]] {
			continue
		}
		sig, key = ex.signature(c, sig[:0], key[:0])
		g, ok := byKey[string(key)]
		if !ok {
			g = &sigGroup{key: string(key), sig: slices.Clone(sig)}
			byKey[g.key] = g
			p.groups = append(p.groups, g)
		}
		g.cands = append(g.cands, c)
	}
	slices.SortFunc(p.groups, func(a, b *sigGroup) int { return strings.Compare(a.key, b.key) })
	return p, cands
}

// planFor returns the plan of a rewritten query, building it on the first
// ask (queryState.get). Like the candidate collection each ask would
// otherwise run itself, the build has no cancellation point.
func (ex *Exchange) planFor(rq *logic.UCQ, mt *meters) *queryPlan {
	v, hit := ex.state.get(ex.state.plans, planKey(rq), mt, func() stateValue { return ex.buildPlan(rq) })
	if hit {
		mt.recordPlanHit()
	}
	return v.(*queryPlan)
}

// buildPlan collects the candidates of a rewritten query and builds its
// plan: what a planFor miss runs.
func (ex *Exchange) buildPlan(rq *logic.UCQ) *queryPlan {
	p, _ := ex.newPlan(collect(rq, ex.Prov, ex.safeDerivable, false))
	return p
}

// planKey returns the canonical encoding of a rewritten UCQ. Each clause
// is encoded as its head and body lengths, relation ids and constant
// value ids as they are, and variables numbered by first occurrence; the
// clause encodings are sorted and deduplicated. Candidates do not depend
// on the query's name, its variable names, or the order and repetition of
// its clauses (collect sorts and dedups them), so queries that
// differ only in those share a plan — a preloaded query and the same text
// sent inline, say. The encoding is prefix-free, so the concatenation is
// unambiguous.
func planKey(rq *logic.UCQ) string {
	clauses := make([]string, 0, len(rq.Clauses))
	vars := make(map[string]int64)
	var b []byte
	term := func(t logic.Term) {
		if !t.IsVar() {
			b = binary.AppendVarint(append(b, 'c'), int64(t.Val))
			return
		}
		id, ok := vars[t.Var]
		if !ok {
			id = int64(len(vars))
			vars[t.Var] = id
		}
		b = binary.AppendVarint(append(b, 'v'), id)
	}
	for i := range rq.Clauses {
		c := &rq.Clauses[i]
		clear(vars)
		b = binary.AppendUvarint(b[:0], uint64(len(c.Head)))
		for _, t := range c.Head {
			term(t)
		}
		b = binary.AppendUvarint(b, uint64(len(c.Body)))
		for _, a := range c.Body {
			b = binary.AppendUvarint(b, uint64(a.Rel))
			b = binary.AppendUvarint(b, uint64(len(a.Terms)))
			for _, t := range a.Terms {
				term(t)
			}
		}
		clauses = append(clauses, string(b))
	}
	slices.Sort(clauses)
	return strings.Join(slices.Compact(clauses), "")
}

// bytes estimates the memory a plan holds: the capacity of each of its
// slices (safe-tuple, tuple, support-set, signature and group values;
// slice headers in their parents), the candidate structs, a group's
// wiring at one atom id and one pointer per candidate, and its greedy
// decision at one verdict and one pointer per candidate (a workload that
// asks both semantics keeps two).
func (p *queryPlan) bytes() int64 {
	const (
		header    = 24 // slice header
		value     = 4  // symtab.Value, chase.FactID, asp.AtomID
		word      = 8  // pointer, int
		candidate = 2*header + word
	)
	n := int64(cap(p.safe))*value + int64(cap(p.groups))*word
	for _, g := range p.groups {
		n += int64(len(g.key)) + int64(cap(g.sig))*word + int64(cap(g.cands))*word
		n += 2*header + 4*word // the sigGroup and its wiring
		n += 2*header + 6*word // its greedy decision
		for _, c := range g.cands {
			n += candidate + int64(cap(c.tuple))*value + int64(cap(c.supports))*header
			for _, s := range c.supports {
				n += int64(cap(s)) * value
			}
			n += value + word + 1 + word
		}
	}
	return n
}
