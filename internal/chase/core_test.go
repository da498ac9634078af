package chase

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// newAtom builds an atom for static test setup, panicking on an arity
// mismatch.
func newAtom(cat *schema.Catalog, rel *schema.Relation, terms ...logic.Term) logic.Atom {
	a, err := logic.MakeAtom(cat, rel, terms...)
	if err != nil {
		panic(err)
	}
	return a
}

func TestCoreFoldsRedundantNull(t *testing.T) {
	// {S(a, n), S(a, b)}: n folds onto b — core is {S(a, b)}.
	w := newTW()
	s := w.tgtRel("S", 2)
	in := instance.New(w.cat)
	a, b := w.u.Const("a"), w.u.Const("b")
	n := w.u.FreshNull()
	in.Add(s.ID, []symtab.Value{a, n})
	in.Add(s.ID, []symtab.Value{a, b})
	core := Core(in)
	if core.Len() != 1 || !core.Contains(s.ID, []symtab.Value{a, b}) {
		t.Fatalf("core = %s", core.String(w.u))
	}
}

func TestCoreKeepsNecessaryNulls(t *testing.T) {
	// {S(a, n)} alone: n is not foldable (no other tuple) — core unchanged.
	w := newTW()
	s := w.tgtRel("S", 2)
	in := instance.New(w.cat)
	a := w.u.Const("a")
	n := w.u.FreshNull()
	in.Add(s.ID, []symtab.Value{a, n})
	core := Core(in)
	if core.Len() != 1 || len(core.Nulls()) != 1 {
		t.Fatalf("core = %s", core.String(w.u))
	}
}

func TestCoreChainFolds(t *testing.T) {
	// E(a,n1), E(n1,n2) with E(a,b), E(b,c) present: both nulls fold.
	w := newTW()
	e := w.tgtRel("E", 2)
	in := instance.New(w.cat)
	a, b, c := w.u.Const("a"), w.u.Const("b"), w.u.Const("c")
	n1, n2 := w.u.FreshNull(), w.u.FreshNull()
	in.Add(e.ID, []symtab.Value{a, n1})
	in.Add(e.ID, []symtab.Value{n1, n2})
	in.Add(e.ID, []symtab.Value{a, b})
	in.Add(e.ID, []symtab.Value{b, c})
	core := Core(in)
	if len(core.Nulls()) != 0 {
		t.Fatalf("nulls remain in core: %s", core.String(w.u))
	}
	if core.Len() != 2 {
		t.Fatalf("core size = %d, want 2", core.Len())
	}
}

func TestCoreOfCanonicalSolution(t *testing.T) {
	// Two tgds generating overlapping patterns: R(x) -> ∃z S(x,z) and
	// P(x,y) -> S(x,y). With both R(a) and P(a,b), the canonical solution
	// has S(a,n) and S(a,b); its core is just S(a,b).
	w := newTW()
	r := w.srcRel("R", 1)
	p := w.srcRel("P", 2)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))}},
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))}},
	}
	w.add(r, "a")
	w.add(p, "a", "b")
	j, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	target := j.Restrict(w.m.Target)
	core := Core(target)
	if core.Len() != 1 || len(core.Nulls()) != 0 {
		t.Fatalf("core of canonical solution = %s", core.String(w.u))
	}
	// The core is homomorphically equivalent to the original.
	if _, ok := instance.Homomorphism(target, core); !ok {
		t.Fatal("no homomorphism original -> core")
	}
	if _, ok := instance.Homomorphism(core, target); !ok {
		t.Fatal("no homomorphism core -> original")
	}
}

func TestCoreIdempotent(t *testing.T) {
	w := newTW()
	e := w.tgtRel("E", 2)
	in := instance.New(w.cat)
	a := w.u.Const("a")
	n1, n2 := w.u.FreshNull(), w.u.FreshNull()
	in.Add(e.ID, []symtab.Value{a, n1})
	in.Add(e.ID, []symtab.Value{n1, n2})
	in.Add(e.ID, []symtab.Value{n2, a})
	core := Core(in)
	again := Core(core)
	if !core.Equal(again) {
		t.Fatal("Core not idempotent")
	}
}
