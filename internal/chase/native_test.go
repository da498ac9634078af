package chase

import (
	"errors"
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// buildMapping assembles a mapping over fresh catalog/universe via a setup
// callback for brevity in tests.
type tw struct {
	cat *schema.Catalog
	u   *symtab.Universe
	m   *mapping.Mapping
	src *instance.Instance
}

func newTW() *tw {
	cat := schema.NewCatalog()
	u := symtab.NewUniverse()
	return &tw{cat: cat, u: u, m: mapping.New(cat, u), src: instance.New(cat)}
}

func (w *tw) srcRel(name string, arity int) *schema.Relation {
	r := w.cat.MustAdd(name, arity)
	w.m.Source.Add(r)
	return r
}

func (w *tw) tgtRel(name string, arity int) *schema.Relation {
	r := w.cat.MustAdd(name, arity)
	w.m.Target.Add(r)
	return r
}

func (w *tw) add(r *schema.Relation, vals ...string) {
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	w.src.Add(r.ID, args)
}

func (w *tw) vals(vals ...string) []symtab.Value {
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	return args
}

func TestNativeCopyMapping(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 2)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))},
	}}
	w.add(r, "a", "b")
	w.add(r, "b", "c")

	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(s.ID, w.vals("a", "b")) || !res.Contains(s.ID, w.vals("b", "c")) {
		t.Fatal("copied facts missing")
	}
	if res.LenOf(s.ID) != 2 {
		t.Fatalf("S has %d facts", res.LenOf(s.ID))
	}
}

func TestNativeExistentialCreatesNull(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 1)
	s := w.tgtRel("S", 2)
	// R(x) -> ∃z S(x,z)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
		Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))},
	}}
	w.add(r, "a")
	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	tuples := res.Tuples(s.ID)
	if len(tuples) != 1 {
		t.Fatalf("S has %d tuples", len(tuples))
	}
	if !tuples[0][1].IsNull() {
		t.Fatal("existential position is not a null")
	}
	// Restricted chase: re-running adds nothing (head already satisfied).
	res2, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if res2.LenOf(s.ID) != 1 {
		t.Fatalf("second chase created extra nulls: %d", res2.LenOf(s.ID))
	}
}

func TestNativeEGDMergesNullWithConstant(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 1)
	p := w.srcRel("P", 2)
	s := w.tgtRel("S", 2)
	// R(x) -> ∃z S(x,z);  P(x,y) -> S(x,y);  S(x,y) & S(x,y') -> y = y'
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))}},
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))}},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, s, logic.V("x"), logic.V("y")),
			newAtom(w.cat, s, logic.V("x"), logic.V("y2")),
		},
		L: logic.V("y"), R: logic.V("y2"),
	}}
	w.add(r, "a")
	w.add(p, "a", "b")

	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	// The null must have merged into b, leaving exactly S(a,b).
	if res.LenOf(s.ID) != 1 || !res.Contains(s.ID, w.vals("a", "b")) {
		t.Fatalf("merge failed: %s", res.String(w.u))
	}
}

func TestNativeEGDConstantConflict(t *testing.T) {
	w := newTW()
	p := w.srcRel("P", 2)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))},
	}}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, s, logic.V("x"), logic.V("y")),
			newAtom(w.cat, s, logic.V("x"), logic.V("y2")),
		},
		L: logic.V("y"), R: logic.V("y2"),
	}}
	w.add(p, "a", "b")
	w.add(p, "a", "c")

	if _, err := Native(w.m, w.src); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	if HasSolution(w.m, w.src) {
		t.Fatal("HasSolution = true for inconsistent instance")
	}
}

func TestNativeEGDMergesTwoNulls(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 1)
	q := w.srcRel("Q", 2)
	s := w.tgtRel("S", 2)
	link := w.tgtRel("L", 2)
	// R(x) -> ∃z S(x,z); Q(x,y) -> L(x,y);
	// L(x,y) & S(x,u) & S(y,v) -> u = v  (cluster mates share the null)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))}},
		{Body: []logic.Atom{newAtom(w.cat, q, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, link, logic.V("x"), logic.V("y"))}},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, link, logic.V("x"), logic.V("y")),
			newAtom(w.cat, s, logic.V("x"), logic.V("u")),
			newAtom(w.cat, s, logic.V("y"), logic.V("v")),
		},
		L: logic.V("u"), R: logic.V("v"),
	}}
	w.add(r, "a")
	w.add(r, "b")
	w.add(r, "c")
	w.add(q, "a", "b")

	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	tupA := res.Match(s.ID, []symtab.Value{w.u.Const("a"), symtab.None})
	tupB := res.Match(s.ID, []symtab.Value{w.u.Const("b"), symtab.None})
	tupC := res.Match(s.ID, []symtab.Value{w.u.Const("c"), symtab.None})
	if len(tupA) != 1 || len(tupB) != 1 || len(tupC) != 1 {
		t.Fatalf("expected one S tuple per source element")
	}
	if tupA[0][1] != tupB[0][1] {
		t.Fatal("a and b cluster nulls not merged")
	}
	if tupA[0][1] == tupC[0][1] {
		t.Fatal("c's null merged spuriously")
	}
}

func TestNativeTargetTgd(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 2)
	e := w.tgtRel("E", 2)
	tc := w.tgtRel("TC", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
	}}
	// transitive closure: E(x,y) -> TC(x,y); TC(x,y) & E(y,z) -> TC(x,z)
	w.m.TTgds = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, tc, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{newAtom(w.cat, tc, logic.V("x"), logic.V("y")), newAtom(w.cat, e, logic.V("y"), logic.V("z"))},
			Head: []logic.Atom{newAtom(w.cat, tc, logic.V("x"), logic.V("z"))}},
	}
	w.add(r, "a", "b")
	w.add(r, "b", "c")
	w.add(r, "c", "d")
	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if res.LenOf(tc.ID) != 6 {
		t.Fatalf("TC has %d facts, want 6", res.LenOf(tc.ID))
	}
	if !res.Contains(tc.ID, w.vals("a", "d")) {
		t.Fatal("TC(a,d) missing")
	}
}

func TestNativeUniversality(t *testing.T) {
	// The canonical solution must have a homomorphism into any other solution.
	w := newTW()
	r := w.srcRel("R", 1)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
		Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))},
	}}
	w.add(r, "a")
	res, err := Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	canonical := res.Restrict(schema.NewSchema(w.cat.ByID(s.ID)))

	other := instance.New(w.cat)
	other.Add(s.ID, w.vals("a", "b"))
	if _, ok := instance.Homomorphism(canonical, other); !ok {
		t.Fatal("no homomorphism from canonical solution into another solution")
	}
}

func TestNativeNonTerminatingGuard(t *testing.T) {
	// E(x,y) -> E(y,z) is not weakly acyclic; the chase must abort with an
	// error rather than loop forever.
	w := newTW()
	r := w.srcRel("R", 2)
	e := w.tgtRel("E", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
	}}
	w.m.TTgds = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, e, logic.V("y"), logic.V("z"))},
	}}
	w.add(r, "a", "b")
	if _, err := Native(w.m, w.src); err == nil {
		t.Fatal("non-terminating chase did not error")
	}
}

func TestNativeEgdOnSourceValuesViaTargets(t *testing.T) {
	// Egd equating two constants propagated through separate tgds.
	w := newTW()
	p := w.srcRel("P", 2)
	q := w.srcRel("Q", 2)
	s := w.tgtRel("S", 2)
	u := w.tgtRel("U", 2)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{newAtom(w.cat, q, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, u, logic.V("x"), logic.V("y"))}},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, s, logic.V("k"), logic.V("a")),
			newAtom(w.cat, u, logic.V("k"), logic.V("b")),
		},
		L: logic.V("a"), R: logic.V("b"),
	}}
	w.add(p, "k1", "v")
	w.add(q, "k1", "v") // equal: fine
	if !HasSolution(w.m, w.src) {
		t.Fatal("consistent cross-relation egd rejected")
	}
	w.add(q, "k1", "w") // now forced v = w
	if HasSolution(w.m, w.src) {
		t.Fatal("conflicting cross-relation egd accepted")
	}
}
