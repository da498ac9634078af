package chase

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
)

// gavWorld builds the running example used across provenance tests:
//
//	P(x,y) -> P'(x,y)       Q(x,y) -> Q'(x,y)
//	P'(x,y) & Q'(y,z) -> R'(x,y,z)
//	egd: P'(x,y) & P'(x,y2) -> y = y2   (key on P')
func gavWorld() *tw {
	w := newTW()
	p := w.srcRel("P", 2)
	q := w.srcRel("Q", 2)
	pp := w.tgtRel("P1", 2)
	qq := w.tgtRel("Q1", 2)
	rr := w.tgtRel("R1", 3)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{logic.NewAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, pp, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{logic.NewAtom(w.cat, q, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, qq, logic.V("x"), logic.V("y"))}},
	}
	w.m.TTgds = []*logic.TGD{
		{Body: []logic.Atom{logic.NewAtom(w.cat, pp, logic.V("x"), logic.V("y")), logic.NewAtom(w.cat, qq, logic.V("y"), logic.V("z"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, rr, logic.V("x"), logic.V("y"), logic.V("z"))}},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			logic.NewAtom(w.cat, pp, logic.V("x"), logic.V("y")),
			logic.NewAtom(w.cat, pp, logic.V("x"), logic.V("y2")),
		},
		L: logic.V("y"), R: logic.V("y2"),
	}}
	return w
}

func TestGAVRequiresGAVMapping(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 1)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{logic.NewAtom(w.cat, r, logic.V("x"))},
		Head: []logic.Atom{logic.NewAtom(w.cat, s, logic.V("x"), logic.V("z"))},
	}}
	if _, err := GAV(w.m, w.src); err == nil {
		t.Fatal("non-GAV mapping accepted")
	}
}

func TestGAVChaseDerivesAndRecordsSupports(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	q, _ := w.cat.ByName("Q")
	pp, _ := w.cat.ByName("P1")
	rr, _ := w.cat.ByName("R1")

	w.add(p, "a", "b")
	w.add(q, "b", "c")

	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if !prov.Instance.Contains(rr.ID, w.vals("a", "b", "c")) {
		t.Fatal("R1(a,b,c) not derived")
	}
	// Support of P1(a,b) is {P(a,b)}.
	ppID, ok := prov.FactIDOf(instance.Fact{Rel: pp.ID, Args: w.vals("a", "b")})
	if !ok {
		t.Fatal("P1(a,b) not interned")
	}
	sets := prov.Supports(ppID)
	if len(sets) != 1 || len(sets[0]) != 1 {
		t.Fatalf("P1(a,b) supports = %v", sets)
	}
	if got := prov.Fact(sets[0][0]); got.Rel != p.ID {
		t.Fatal("support of P1(a,b) is not P(a,b)")
	}
	// Support of R1(a,b,c) is {P1(a,b), Q1(b,c)}.
	rrID, ok := prov.FactIDOf(instance.Fact{Rel: rr.ID, Args: w.vals("a", "b", "c")})
	if !ok {
		t.Fatal("R1 fact missing")
	}
	rsets := prov.Supports(rrID)
	if len(rsets) != 1 || len(rsets[0]) != 2 {
		t.Fatalf("R1 supports = %v", rsets)
	}
	// Source facts have no supports.
	pID, _ := prov.FactIDOf(instance.Fact{Rel: p.ID, Args: w.vals("a", "b")})
	if len(prov.Supports(pID)) != 0 {
		t.Fatal("source fact has supports")
	}
	if !prov.IsSource(pID) || prov.IsSource(rrID) {
		t.Fatal("IsSource flags wrong")
	}
	// FactIDOf returns the id each fact was interned under, and misses an
	// absent fact and present args asked under another relation.
	for id := FactID(0); int(id) < prov.NumFacts(); id++ {
		if got, ok := prov.FactIDOf(prov.Fact(id)); !ok || got != id {
			t.Fatalf("FactIDOf(fact %d) = (%d, %v)", id, got, ok)
		}
	}
	if id, ok := prov.FactIDOf(instance.Fact{Rel: p.ID, Args: w.vals("b", "a")}); ok {
		t.Fatalf("absent P(b,a) has id %d", id)
	}
	if id, ok := prov.FactIDOf(instance.Fact{Rel: q.ID, Args: w.vals("a", "b")}); ok {
		t.Fatalf("Q(a,b) has id %d: only P and P1 hold (a,b)", id)
	}
	for _, g := range []uint64{0, prov.Instance.Gen() + 1} {
		if id, ok := prov.FactIDOfGen(g); ok {
			t.Fatalf("FactIDOfGen(%d) = %d for a generation never assigned", g, id)
		}
	}
}

func TestGAVChaseViolations(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	w.add(p, "a", "b")
	w.add(p, "a", "c")

	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (after symmetric dedup)", len(prov.Violations))
	}
	v := prov.Violations[0]
	if len(v.Body) != 2 {
		t.Fatalf("violation body size = %d", len(v.Body))
	}
	if v.L == v.R {
		t.Fatal("violation with equal sides")
	}
}

func TestGAVChaseNoViolationsOnConsistent(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	q, _ := w.cat.ByName("Q")
	w.add(p, "a", "b")
	w.add(q, "b", "c")
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Violations) != 0 {
		t.Fatalf("violations = %d, want 0", len(prov.Violations))
	}
}

func TestSupportClosure(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	q, _ := w.cat.ByName("Q")
	rr, _ := w.cat.ByName("R1")
	w.add(p, "a", "b")
	w.add(q, "b", "c")
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	rrID, _ := prov.FactIDOf(instance.Fact{Rel: rr.ID, Args: w.vals("a", "b", "c")})
	closure := prov.SupportClosure([]FactID{rrID})
	// Closure: R1(a,b,c), P1(a,b), Q1(b,c), P(a,b), Q(b,c) = 5 facts.
	if len(closure) != 5 {
		t.Fatalf("closure size = %d, want 5", len(closure))
	}
}

func TestInfluence(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	q, _ := w.cat.ByName("Q")
	rr, _ := w.cat.ByName("R1")
	w.add(p, "a", "b")
	w.add(q, "b", "c")
	w.add(q, "x", "y") // unrelated
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	pID, _ := prov.FactIDOf(instance.Fact{Rel: p.ID, Args: w.vals("a", "b")})
	infl := prov.Influence(map[FactID]bool{pID: true})
	// Influence of P(a,b): itself, P1(a,b), R1(a,b,c) = 3 facts.
	if len(infl) != 3 {
		t.Fatalf("influence size = %d, want 3", len(infl))
	}
	rrID, _ := prov.FactIDOf(instance.Fact{Rel: rr.ID, Args: w.vals("a", "b", "c")})
	if !infl[rrID] {
		t.Fatal("influence misses R1(a,b,c)")
	}
}

func TestSafeDerivable(t *testing.T) {
	w := gavWorld()
	p, _ := w.cat.ByName("P")
	q, _ := w.cat.ByName("Q")
	pp, _ := w.cat.ByName("P1")
	rr, _ := w.cat.ByName("R1")
	w.add(p, "a", "b")
	w.add(q, "b", "c")
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	pID, _ := prov.FactIDOf(instance.Fact{Rel: p.ID, Args: w.vals("a", "b")})
	qID, _ := prov.FactIDOf(instance.Fact{Rel: q.ID, Args: w.vals("b", "c")})
	ppID, _ := prov.FactIDOf(instance.Fact{Rel: pp.ID, Args: w.vals("a", "b")})
	rrID, _ := prov.FactIDOf(instance.Fact{Rel: rr.ID, Args: w.vals("a", "b", "c")})

	// Excluding P(a,b) kills P1(a,b) and R1(a,b,c) but not Q-side facts.
	d := prov.SafeDerivable(only(prov, pID))
	if d[pID] || d[ppID] || d[rrID] {
		t.Fatal("excluded fact or its consequences derivable")
	}
	if !d[qID] {
		t.Fatal("unrelated source fact not derivable")
	}
	// Excluding nothing: everything derivable.
	all := prov.SafeDerivable(nil)
	if got := countTrue(all); got != prov.NumFacts() {
		t.Fatalf("derivable = %d, want all %d", got, prov.NumFacts())
	}
}

func TestGAVChaseMultipleSupportSets(t *testing.T) {
	// Two rules derive the same fact: both support sets must be recorded.
	w := newTW()
	a := w.srcRel("A", 1)
	b := w.srcRel("B", 1)
	tt := w.tgtRel("T", 1)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{logic.NewAtom(w.cat, a, logic.V("x"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, tt, logic.V("x"))}},
		{Body: []logic.Atom{logic.NewAtom(w.cat, b, logic.V("x"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, tt, logic.V("x"))}},
	}
	w.add(a, "v")
	w.add(b, "v")
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	ttRel, _ := w.cat.ByName("T")
	id, _ := prov.FactIDOf(instance.Fact{Rel: ttRel.ID, Args: w.vals("v")})
	if got := len(prov.Supports(id)); got != 2 {
		t.Fatalf("support sets = %d, want 2", got)
	}
	// With A(v) excluded, T(v) still derivable through B(v).
	aRel, _ := w.cat.ByName("A")
	aID, _ := prov.FactIDOf(instance.Fact{Rel: aRel.ID, Args: w.vals("v")})
	d := prov.SafeDerivable(only(prov, aID))
	if !d[id] {
		t.Fatal("fact with an alternative derivation not derivable")
	}
}

func TestGAVChaseRecursiveRules(t *testing.T) {
	// Transitive closure via target tgds; supports recorded for every
	// derivation found in the final pass.
	w := newTW()
	r := w.srcRel("R", 2)
	e := w.tgtRel("E", 2)
	tc := w.tgtRel("TC", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{logic.NewAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{logic.NewAtom(w.cat, e, logic.V("x"), logic.V("y"))},
	}}
	w.m.TTgds = []*logic.TGD{
		{Body: []logic.Atom{logic.NewAtom(w.cat, e, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, tc, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{logic.NewAtom(w.cat, tc, logic.V("x"), logic.V("y")), logic.NewAtom(w.cat, tc, logic.V("y"), logic.V("z"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, tc, logic.V("x"), logic.V("z"))}},
	}
	w.add(r, "a", "b")
	w.add(r, "b", "c")
	w.add(r, "c", "d")
	prov, err := GAV(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Instance.LenOf(tc.ID) != 6 {
		t.Fatalf("TC size = %d", prov.Instance.LenOf(tc.ID))
	}
	// TC(a,c) has supports {TC(a,b),TC(b,c)} (and only that one besides).
	id, _ := prov.FactIDOf(instance.Fact{Rel: tc.ID, Args: w.vals("a", "c")})
	if len(prov.Supports(id)) == 0 {
		t.Fatal("recursive derivation unrecorded")
	}
	// Excluding R(b,c) must kill TC(a,c), TC(b,c), TC(b,d), TC(a,d)... wait:
	// TC(a,d) could go a->b->c->d only through (b,c); so it dies too.
	rID, _ := prov.FactIDOf(instance.Fact{Rel: r.ID, Args: w.vals("b", "c")})
	d := prov.SafeDerivable(only(prov, rID))
	acID, _ := prov.FactIDOf(instance.Fact{Rel: tc.ID, Args: w.vals("a", "c")})
	abID, _ := prov.FactIDOf(instance.Fact{Rel: tc.ID, Args: w.vals("a", "b")})
	if d[acID] {
		t.Fatal("TC(a,c) derivable without R(b,c)")
	}
	if !d[abID] {
		t.Fatal("TC(a,b) not derivable")
	}
}

// only returns the dense fact set {f} of prov, as SafeDerivable takes it.
func only(prov *Provenance, f FactID) []bool {
	set := make([]bool, prov.NumFacts())
	set[f] = true
	return set
}

// countTrue counts the members of a dense fact set.
func countTrue(set []bool) int {
	n := 0
	for _, ok := range set {
		if ok {
			n++
		}
	}
	return n
}
