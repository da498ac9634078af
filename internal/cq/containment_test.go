package cq

import (
	"math/rand"
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// equivalent reports whether two conjunctive queries are semantically
// equivalent (mutual containment).
func equivalent(cat *schema.Catalog, q1, q2 *logic.CQ) bool {
	return Contains(cat, q1, q2) && Contains(cat, q2, q1)
}

func contFixture() (*schema.Catalog, *schema.Relation, *schema.Relation) {
	cat := schema.NewCatalog()
	e := cat.MustAdd("E", 2)
	p := cat.MustAdd("P", 1)
	return cat, e, p
}

func atom(cat *schema.Catalog, r *schema.Relation, ts ...logic.Term) logic.Atom {
	return newAtom(cat, r, ts...)
}

func TestContainmentBasic(t *testing.T) {
	cat, e, _ := contFixture()
	// q1(x) :- E(x,y), E(y,z)    (paths of length 2)
	q1 := &logic.CQ{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.V("y")), atom(cat, e, logic.V("y"), logic.V("z"))},
	}
	// q2(x) :- E(x,y)            (paths of length 1)
	q2 := &logic.CQ{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.V("y"))},
	}
	if !Contains(cat, q1, q2) {
		t.Fatal("length-2 paths should be contained in length-1 paths")
	}
	if Contains(cat, q2, q1) {
		t.Fatal("length-1 paths are not all length-2 paths")
	}
	if equivalent(cat, q1, q2) {
		t.Fatal("not equivalent")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	cat, e, _ := contFixture()
	u := symtab.NewUniverse()
	a := u.Const("a")
	// q1(x) :- E(x, a)  vs  q2(x) :- E(x, y)
	q1 := &logic.CQ{Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.C(a))}}
	q2 := &logic.CQ{Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.V("y"))}}
	if !Contains(cat, q1, q2) || Contains(cat, q2, q1) {
		t.Fatal("constant specialization containment wrong")
	}
}

func TestEquivalentUpToRenaming(t *testing.T) {
	cat, e, _ := contFixture()
	q1 := &logic.CQ{Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.V("y"))}}
	q2 := &logic.CQ{Head: []logic.Term{logic.V("u")},
		Body: []logic.Atom{atom(cat, e, logic.V("u"), logic.V("w"))}}
	if !equivalent(cat, q1, q2) {
		t.Fatal("alpha-renamed queries should be equivalent")
	}
}

func TestMinimizeRedundantAtom(t *testing.T) {
	cat, e, _ := contFixture()
	// q(x) :- E(x,y), E(x,z): E(x,z) folds onto E(x,y) — core has 1 atom.
	q := &logic.CQ{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{
			atom(cat, e, logic.V("x"), logic.V("y")),
			atom(cat, e, logic.V("x"), logic.V("z")),
		},
	}
	min := Minimize(cat, q)
	if len(min.Body) != 1 {
		t.Fatalf("core size = %d, want 1", len(min.Body))
	}
	if !equivalent(cat, q, min) {
		t.Fatal("minimized query not equivalent")
	}
}

func TestMinimizeKeepsNonRedundant(t *testing.T) {
	cat, e, _ := contFixture()
	// q(x,z) :- E(x,y), E(y,z): both atoms needed.
	q := &logic.CQ{
		Head: []logic.Term{logic.V("x"), logic.V("z")},
		Body: []logic.Atom{
			atom(cat, e, logic.V("x"), logic.V("y")),
			atom(cat, e, logic.V("y"), logic.V("z")),
		},
	}
	min := Minimize(cat, q)
	if len(min.Body) != 2 {
		t.Fatalf("core size = %d, want 2", len(min.Body))
	}
}

func TestMinimizeTriangleWithPendant(t *testing.T) {
	cat, e, _ := contFixture()
	// Boolean q() :- E(x,y),E(y,z),E(z,x),E(x,w): the pendant edge E(x,w)
	// folds onto E(x,y); the triangle does not fold onto anything smaller.
	q := &logic.CQ{
		Head: nil,
		Body: []logic.Atom{
			atom(cat, e, logic.V("x"), logic.V("y")),
			atom(cat, e, logic.V("y"), logic.V("z")),
			atom(cat, e, logic.V("z"), logic.V("x")),
			atom(cat, e, logic.V("x"), logic.V("w")),
		},
	}
	min := Minimize(cat, q)
	if len(min.Body) != 3 {
		t.Fatalf("core size = %d, want 3", len(min.Body))
	}
}

func TestMinimizeUCQSubsumption(t *testing.T) {
	cat, e, _ := contFixture()
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{
		// clause 0: E(x,y) — most general
		{Head: []logic.Term{logic.V("x")}, Body: []logic.Atom{atom(cat, e, logic.V("x"), logic.V("y"))}},
		// clause 1: E(x,y), E(y,z) ⊆ clause 0 — redundant
		{Head: []logic.Term{logic.V("x")}, Body: []logic.Atom{
			atom(cat, e, logic.V("x"), logic.V("y")), atom(cat, e, logic.V("y"), logic.V("z"))}},
		// clause 2: duplicate of clause 0 (renamed) — deduplicated
		{Head: []logic.Term{logic.V("u")}, Body: []logic.Atom{atom(cat, e, logic.V("u"), logic.V("v"))}},
	}}
	min := MinimizeUCQ(cat, q)
	if len(min.Clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(min.Clauses))
	}
}

// TestContainmentSemanticsProperty cross-validates Contains against direct
// evaluation: if q1 ⊆ q2 then on random instances answers(q1) ⊆ answers(q2),
// and if not contained, some witness instance exists (we use the frozen
// instance itself as the witness).
func TestContainmentSemanticsProperty(t *testing.T) {
	cat, e, p := contFixture()
	u := symtab.NewUniverse()
	rng := rand.New(rand.NewSource(9))
	vars := []string{"x", "y", "z"}
	randCQ := func() *logic.CQ {
		n := 1 + rng.Intn(3)
		body := make([]logic.Atom, n)
		for i := range body {
			if rng.Intn(4) == 0 {
				body[i] = atom(cat, p, logic.V(vars[rng.Intn(len(vars))]))
			} else {
				body[i] = atom(cat, e, logic.V(vars[rng.Intn(len(vars))]), logic.V(vars[rng.Intn(len(vars))]))
			}
		}
		// Head: one variable from the body.
		var hv string
		for _, a := range body {
			for _, tm := range a.Terms {
				hv = tm.Var
			}
		}
		return &logic.CQ{Head: []logic.Term{logic.V(hv)}, Body: body}
	}
	dom := []symtab.Value{u.Const("c0"), u.Const("c1"), u.Const("c2")}
	for trial := 0; trial < 150; trial++ {
		q1, q2 := randCQ(), randCQ()
		contained := Contains(cat, q1, q2)
		// Evaluate on a random instance; containment must hold pointwise.
		in := instance.New(cat)
		for i := 0; i < 6; i++ {
			in.Add(e.ID, []symtab.Value{dom[rng.Intn(3)], dom[rng.Intn(3)]})
			if rng.Intn(2) == 0 {
				in.Add(p.ID, []symtab.Value{dom[rng.Intn(3)]})
			}
		}
		a1 := EvalUCQ(&logic.UCQ{Name: "q1", Arity: 1, Clauses: []logic.CQ{*q1}}, in)
		a2 := EvalUCQ(&logic.UCQ{Name: "q2", Arity: 1, Clauses: []logic.CQ{*q2}}, in)
		if contained {
			for _, tup := range a1.Tuples() {
				if !a2.Contains(tup) {
					t.Fatalf("trial %d: Contains=true but answers leak", trial)
				}
			}
		}
		// Minimization must preserve answers on the same instance.
		min := Minimize(cat, q1)
		am := EvalUCQ(&logic.UCQ{Name: "m", Arity: 1, Clauses: []logic.CQ{*min}}, in)
		if am.Len() != a1.Len() {
			t.Fatalf("trial %d: minimization changed answers (%d vs %d)", trial, am.Len(), a1.Len())
		}
	}
}
