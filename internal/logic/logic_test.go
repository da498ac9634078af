package logic

import (
	"errors"
	"testing"

	"repro/internal/schema"
	"repro/internal/symtab"
)

// IsLAV reports whether the tgd is a LAV constraint: a single body atom.
func (d *TGD) IsLAV() bool { return len(d.Body) == 1 }

// IsFull reports whether the tgd has no existential variables.
func (d *TGD) IsFull() bool { return len(d.ExistentialVars()) == 0 }

// NewAtom is the Must-style form of MakeAtom for static test setup: it
// panics with a *schema.ArityError on mismatch.
func NewAtom(cat *schema.Catalog, rel *schema.Relation, terms ...Term) Atom {
	a, err := MakeAtom(cat, rel, terms...)
	if err != nil {
		panic(err)
	}
	return a
}

func fixture() (*schema.Catalog, *symtab.Universe) {
	cat := schema.NewCatalog()
	cat.MustAdd("E", 2)
	cat.MustAdd("P", 1)
	cat.MustAdd("T", 2)
	return cat, symtab.NewUniverse()
}

func rel(cat *schema.Catalog, name string) *schema.Relation {
	r, ok := cat.ByName(name)
	if !ok {
		panic(name)
	}
	return r
}

func TestTGDClassification(t *testing.T) {
	cat, _ := fixture()
	e, p, tt := rel(cat, "E"), rel(cat, "P"), rel(cat, "T")

	gav := &TGD{
		Body: []Atom{NewAtom(cat, e, V("x"), V("y")), NewAtom(cat, p, V("x"))},
		Head: []Atom{NewAtom(cat, tt, V("x"), V("y"))},
	}
	if !gav.IsGAV() || gav.IsLAV() || !gav.IsFull() {
		t.Fatalf("gav classification wrong: gav=%v lav=%v full=%v", gav.IsGAV(), gav.IsLAV(), gav.IsFull())
	}

	lav := &TGD{
		Body: []Atom{NewAtom(cat, p, V("x"))},
		Head: []Atom{NewAtom(cat, tt, V("x"), V("z"))},
	}
	if lav.IsGAV() || !lav.IsLAV() || lav.IsFull() {
		t.Fatal("lav classification wrong")
	}
	if got := lav.ExistentialVars(); len(got) != 1 || got[0] != "z" {
		t.Fatalf("ExistentialVars = %v", got)
	}
	if got := lav.FrontierVars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("FrontierVars = %v", got)
	}
}

func TestTGDValidate(t *testing.T) {
	cat, _ := fixture()
	p := rel(cat, "P")
	bad := &TGD{Head: []Atom{NewAtom(cat, p, V("x"))}}
	if bad.Validate() == nil {
		t.Fatal("empty body accepted")
	}
	bad2 := &TGD{Body: []Atom{NewAtom(cat, p, V("x"))}}
	if bad2.Validate() == nil {
		t.Fatal("empty head accepted")
	}
}

func TestEGDValidate(t *testing.T) {
	cat, _ := fixture()
	e := rel(cat, "E")
	good := &EGD{
		Body: []Atom{NewAtom(cat, e, V("x"), V("y")), NewAtom(cat, e, V("x"), V("z"))},
		L:    V("y"), R: V("z"),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &EGD{Body: good.Body, L: V("y"), R: V("w")}
	if bad.Validate() == nil {
		t.Fatal("unsafe egd accepted")
	}
}

func TestAtomArityPanic(t *testing.T) {
	cat, _ := fixture()
	e := rel(cat, "E")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	NewAtom(cat, e, V("x"))
}

func TestUCQValidate(t *testing.T) {
	cat, _ := fixture()
	e := rel(cat, "E")
	q := &UCQ{Name: "q", Arity: 1, Clauses: []CQ{
		{Head: []Term{V("x")}, Body: []Atom{NewAtom(cat, e, V("x"), V("y"))}},
		{Head: []Term{V("y")}, Body: []Atom{NewAtom(cat, e, V("x"), V("y"))}},
	}}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	q.Clauses[1].Head = []Term{V("z")}
	if q.Validate() == nil {
		t.Fatal("unsafe clause accepted")
	}
}

func TestStringRendering(t *testing.T) {
	cat, u := fixture()
	e, tt := rel(cat, "E"), rel(cat, "T")
	d := &TGD{
		Body: []Atom{NewAtom(cat, e, V("x"), V("y"))},
		Head: []Atom{NewAtom(cat, tt, V("x"), V("z"))},
	}
	if got := d.String(cat, u); got != "E(x,y) -> T(x,z)" {
		t.Fatalf("tgd string = %q", got)
	}
	g := &EGD{Body: []Atom{NewAtom(cat, tt, V("x"), V("y")), NewAtom(cat, tt, V("x"), V("z"))}, L: V("y"), R: V("z")}
	if got := g.String(cat, u); got != "T(x,y) & T(x,z) -> y = z" {
		t.Fatalf("egd string = %q", got)
	}
	a := u.Const("a")
	q := &UCQ{Name: "q", Arity: 1, Clauses: []CQ{{Head: []Term{V("x")}, Body: []Atom{NewAtom(cat, e, V("x"), C(a))}}}}
	if got := q.String(cat, u); got != "q(x) :- E(x,a)" {
		t.Fatalf("ucq string = %q", got)
	}
}

func TestWeaklyAcyclicPositive(t *testing.T) {
	cat, _ := fixture()
	e, tt := rel(cat, "E"), rel(cat, "T")

	// E(x,y) -> T(x,z): special edges from E positions into T.2, no cycle.
	d1 := &TGD{
		Body: []Atom{NewAtom(cat, e, V("x"), V("y"))},
		Head: []Atom{NewAtom(cat, tt, V("x"), V("z"))},
	}
	// T(x,y) -> E(x,y): full tgd, regular edges only.
	d2 := &TGD{
		Body: []Atom{NewAtom(cat, tt, V("x"), V("y"))},
		Head: []Atom{NewAtom(cat, e, V("x"), V("y"))},
	}
	if !WeaklyAcyclic([]*TGD{d1}) {
		t.Fatal("single existential tgd should be weakly acyclic")
	}
	// d1+d2 creates a cycle through the special edge E.1 -> T.2 -> E.2 -> T.2...
	// T.2 -> E.2 (regular via d2), E.2 -> T.2 (special via d1, since y occurs
	// in... y does NOT occur in the head of d1, so no edge from E.2).
	// The actual cycle check: E.1 -> T.1 (regular), E.1 -> T.2 (special),
	// T.1 -> E.1, T.2 -> E.2. Special edge E.1->T.2 is not on a cycle
	// (T.2 -> E.2, and E.2 has no outgoing edges). So still weakly acyclic.
	if !WeaklyAcyclic([]*TGD{d1, d2}) {
		t.Fatal("d1+d2 should be weakly acyclic")
	}
}

func TestWeaklyAcyclicNegative(t *testing.T) {
	cat, _ := fixture()
	e := rel(cat, "E")
	// E(x,y) -> E(y,z): classic non-weakly-acyclic tgd. x... body var y occurs
	// in head position E.1, and existential z occurs at E.2, so special edge
	// E.2 -> E.2? No: y occurs in body at E.2, head at E.1: regular E.2->E.1,
	// special E.2->E.2. Cycle through special edge at E.2.
	d := &TGD{
		Body: []Atom{NewAtom(cat, e, V("x"), V("y"))},
		Head: []Atom{NewAtom(cat, e, V("y"), V("z"))},
	}
	if WeaklyAcyclic([]*TGD{d}) {
		t.Fatal("E(x,y)->E(y,z) reported weakly acyclic")
	}
}

func TestWeaklyAcyclicTwoStepCycle(t *testing.T) {
	cat, _ := fixture()
	p := rel(cat, "P")
	tt := rel(cat, "T")
	// P(x) -> T(x,z) ; T(x,y) -> P(y): cycle P.1 -(special)-> T.2 -> P.1.
	d1 := &TGD{
		Body: []Atom{NewAtom(cat, p, V("x"))},
		Head: []Atom{NewAtom(cat, tt, V("x"), V("z"))},
	}
	d2 := &TGD{
		Body: []Atom{NewAtom(cat, tt, V("x"), V("y"))},
		Head: []Atom{NewAtom(cat, p, V("y"))},
	}
	if WeaklyAcyclic([]*TGD{d1, d2}) {
		t.Fatal("two-step special cycle reported weakly acyclic")
	}
	if !WeaklyAcyclic([]*TGD{d2}) {
		t.Fatal("full tgd alone should be weakly acyclic")
	}
}

func TestWeaklyAcyclicRegularCycleOK(t *testing.T) {
	cat, _ := fixture()
	e, tt := rel(cat, "E"), rel(cat, "T")
	// E(x,y) -> T(x,y) ; T(x,y) -> E(x,y): regular cycle, fine.
	d1 := &TGD{Body: []Atom{NewAtom(cat, e, V("x"), V("y"))}, Head: []Atom{NewAtom(cat, tt, V("x"), V("y"))}}
	d2 := &TGD{Body: []Atom{NewAtom(cat, tt, V("x"), V("y"))}, Head: []Atom{NewAtom(cat, e, V("x"), V("y"))}}
	if !WeaklyAcyclic([]*TGD{d1, d2}) {
		t.Fatal("regular-only cycle should be weakly acyclic")
	}
}

// TestMakeAtomArityError: MakeAtom returns a typed *schema.ArityError on a
// term-count mismatch; NewAtom panics with the same error.
func TestMakeAtomArityError(t *testing.T) {
	cat := schema.NewCatalog()
	r := cat.MustAdd("R", 2)
	if _, err := MakeAtom(cat, r, V("x"), V("y")); err != nil {
		t.Fatalf("well-formed MakeAtom failed: %v", err)
	}
	_, err := MakeAtom(cat, r, V("x"))
	var ae *schema.ArityError
	if !errors.As(err, &ae) || ae.Rel != "R" || ae.Want != 2 || ae.Got != 1 {
		t.Fatalf("error %v is not the expected ArityError", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewAtom with wrong arity did not panic")
		}
		if perr, ok := r.(error); !ok || !errors.As(perr, &ae) {
			t.Fatalf("NewAtom panicked with %v, want an ArityError", r)
		}
	}()
	NewAtom(cat, r, V("x"), V("y"), V("z"))
}
