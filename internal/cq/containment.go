package cq

import (
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// This file implements the classic Chandra–Merlin machinery for conjunctive
// queries: containment via canonical instances and homomorphisms, and query
// minimization (computing the core). The pipelines use it to simplify the
// clause sets produced by shape expansion; it is exposed for general use.

// Contains reports whether q1 ⊆ q2 (every answer of q1 on every instance is
// an answer of q2), for single-clause conjunctive queries of equal arity.
// By the Chandra–Merlin theorem this holds iff there is a homomorphism from
// q2 to q1's canonical (frozen) instance mapping q2's head to q1's head.
func Contains(cat *schema.Catalog, q1, q2 *logic.CQ) bool {
	if len(q1.Head) != len(q2.Head) {
		return false
	}
	frozen := newFrozenCQ(cat, q1)
	return homIntoFrozen(q2, frozen)
}

// Minimize returns the core of a conjunctive query: an equivalent query
// with a minimal number of body atoms, computed by repeatedly attempting to
// drop an atom while preserving equivalence. The input is not modified.
func Minimize(cat *schema.Catalog, q *logic.CQ) *logic.CQ {
	cur := &logic.CQ{
		Head: append([]logic.Term(nil), q.Head...),
		Body: append([]logic.Atom(nil), q.Body...),
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Body); i++ {
			if len(cur.Body) == 1 {
				break
			}
			smaller := &logic.CQ{
				Head: cur.Head,
				Body: append(append([]logic.Atom(nil), cur.Body[:i]...), cur.Body[i+1:]...),
			}
			// Dropping an atom can only weaken the query (cur ⊆ smaller
			// always); dropping is safe when smaller ⊆ cur too. The
			// smaller query must remain safe (head variables bound).
			if smaller.Validate() != nil {
				continue
			}
			if Contains(cat, smaller, cur) {
				cur = smaller
				changed = true
				break
			}
		}
	}
	return cur
}

// MinimizeUCQ minimizes every clause of a UCQ and drops clauses subsumed by
// another clause (ci ⊆ cj for i ≠ j makes ci redundant in the union).
func MinimizeUCQ(cat *schema.Catalog, q *logic.UCQ) *logic.UCQ {
	out := &logic.UCQ{Name: q.Name, Arity: q.Arity}
	var minimized []*logic.CQ
	for i := range q.Clauses {
		minimized = append(minimized, Minimize(cat, &q.Clauses[i]))
	}
	for i, ci := range minimized {
		subsumed := false
		for j, cj := range minimized {
			if i == j {
				continue
			}
			if !Contains(cat, ci, cj) {
				continue
			}
			// ci ⊆ cj: redundant, unless cj ⊆ ci too (duplicates) — then
			// keep only the first of the pair.
			if !Contains(cat, cj, ci) || j < i {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out.Clauses = append(out.Clauses, *ci)
		}
	}
	return out
}

// frozenCQ is the canonical instance of a conjunctive query: each variable
// becomes a fresh frozen constant (represented as a labeled null so it can
// never collide with real constants).
type frozenCQ struct {
	in   *instanceLike
	head []symtab.Value
}

// instanceLike is a minimal fact index for homomorphism checks, independent
// of a Universe (frozen constants are synthesized locally).
type instanceLike struct {
	facts map[schema.RelID][][]symtab.Value
}

func newFrozenCQ(cat *schema.Catalog, q *logic.CQ) *frozenCQ {
	frozen := &frozenCQ{in: &instanceLike{facts: make(map[schema.RelID][][]symtab.Value)}}
	vars := make(map[string]symtab.Value)
	next := 1
	freeze := func(t logic.Term) symtab.Value {
		if !t.IsVar() {
			return t.Val
		}
		v, ok := vars[t.Var]
		if !ok {
			v = symtab.Null(next) // frozen constant
			next++
			vars[t.Var] = v
		}
		return v
	}
	for _, a := range q.Body {
		tup := make([]symtab.Value, len(a.Terms))
		for i, t := range a.Terms {
			tup[i] = freeze(t)
		}
		frozen.in.facts[a.Rel] = append(frozen.in.facts[a.Rel], tup)
	}
	frozen.head = make([]symtab.Value, len(q.Head))
	for i, t := range q.Head {
		frozen.head[i] = freeze(t)
	}
	return frozen
}

// homIntoFrozen searches for a homomorphism from q's body into the frozen
// instance that maps q's head to the frozen head and fixes constants.
func homIntoFrozen(q *logic.CQ, frozen *frozenCQ) bool {
	sub := make(map[string]symtab.Value)
	// Pre-bind head terms.
	for i, t := range q.Head {
		want := frozen.head[i]
		if !t.IsVar() {
			if t.Val != want {
				return false
			}
			continue
		}
		if prev, ok := sub[t.Var]; ok {
			if prev != want {
				return false
			}
			continue
		}
		sub[t.Var] = want
	}
	return matchAtoms(q.Body, 0, sub, frozen.in)
}

func matchAtoms(body []logic.Atom, i int, sub map[string]symtab.Value, in *instanceLike) bool {
	if i == len(body) {
		return true
	}
	a := body[i]
	for _, tup := range in.facts[a.Rel] {
		var bound []string
		ok := true
		for j, t := range a.Terms {
			if !t.IsVar() {
				if t.Val != tup[j] {
					ok = false
					break
				}
				continue
			}
			if prev, has := sub[t.Var]; has {
				if prev != tup[j] {
					ok = false
					break
				}
				continue
			}
			sub[t.Var] = tup[j]
			bound = append(bound, t.Var)
		}
		if ok && matchAtoms(body, i+1, sub, in) {
			return true
		}
		for _, v := range bound {
			delete(sub, v)
		}
	}
	return false
}
