package cq

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/symtab"
)

// TestForEachDeltaEnumeratesEachMatchOnce drives a two-atom join through
// several incremental batches and checks the semi-naive contract: every
// match is reported in exactly one ForEachDelta window — the one of the
// first batch in which all its body tuples exist.
func TestForEachDeltaEnumeratesEachMatchOnce(t *testing.T) {
	w := newWorld()
	e := w.rel("E")
	plan := Compile([]logic.Atom{
		newAtom(w.cat, e, logic.V("x"), logic.V("y")),
		newAtom(w.cat, e, logic.V("y"), logic.V("z")),
	})

	key := func(env []symtab.Value) string { return fmt.Sprintf("%v", env) }
	seen := map[string]int{}
	batches := [][][2]string{
		{{"a", "b"}, {"b", "c"}},
		{{"c", "d"}},
		{{"b", "e"}, {"e", "a"}},
	}
	old := uint64(0)
	for bi, batch := range batches {
		for _, tup := range batch {
			w.add("E", tup[0], tup[1])
		}
		plan.ForEachDelta(w.in, old, func(env []symtab.Value, rank []uint64, order []int) bool {
			k := key(env)
			if prev, dup := seen[k]; dup {
				t.Fatalf("match %s reported twice (batches %d and %d)", k, prev, bi)
			}
			seen[k] = bi
			if len(rank) != plan.NumAtoms() || len(order) != plan.NumAtoms() {
				t.Fatalf("rank/order length %d/%d, want %d", len(rank), len(order), plan.NumAtoms())
			}
			inDelta := false
			for _, g := range rank {
				if g == 0 || g > w.in.Gen() {
					t.Fatalf("rank %v outside instance generations", rank)
				}
				if g > old {
					inDelta = true
				}
			}
			if !inDelta {
				t.Fatalf("match %s uses no delta tuple (old=%d, rank=%v)", k, old, rank)
			}
			return true
		})
		old = w.in.Gen()
	}

	// The union over windows must equal a fresh full evaluation.
	full := map[string]bool{}
	plan.ForEach(w.in, func(env []symtab.Value) bool {
		full[key(env)] = true
		return true
	})
	if len(full) != len(seen) {
		t.Fatalf("delta union has %d matches, full evaluation %d", len(seen), len(full))
	}
	for k := range full {
		if _, ok := seen[k]; !ok {
			t.Fatalf("full evaluation match %s never reported by a delta window", k)
		}
	}
}

// TestForEachDeltaEmptyWindow: with old at the current generation, nothing
// is enumerated; with old = 0 the enumeration equals ForEach.
func TestForEachDeltaEmptyWindow(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	w.add("E", "b", "c")
	e := w.rel("E")
	plan := Compile([]logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))})
	n := 0
	plan.ForEachDelta(w.in, w.in.Gen(), func([]symtab.Value, []uint64, []int) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty delta window enumerated %d matches", n)
	}
	plan.ForEachDelta(w.in, 0, func([]symtab.Value, []uint64, []int) bool { n++; return true })
	if n != 2 {
		t.Fatalf("zero-window enumeration = %d matches, want 2", n)
	}
}

// TestJoinOrderPrefersBoundAndSmall pins the planner heuristics the chase
// relies on: constants and already-bound variables come first, ties break
// toward the smaller relation.
func TestJoinOrderPrefersBoundAndSmall(t *testing.T) {
	w := newWorld()
	for i := 0; i < 30; i++ {
		w.add("E", "x", fmt.Sprintf("v%d", i))
	}
	w.add("P", "x")
	e, p := w.rel("E"), w.rel("P")
	plan := Compile([]logic.Atom{
		newAtom(w.cat, e, logic.V("a"), logic.V("b")),
		newAtom(w.cat, p, logic.V("a")),
	})
	order := plan.JoinOrder(w.in)
	if plan.base[order[0]].rel != p.ID {
		t.Fatalf("join order %v does not start with the small relation", order)
	}
	rels := plan.Relations()
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	if len(rels) != 2 {
		t.Fatalf("Relations() = %v, want the two distinct body relations", rels)
	}
}
