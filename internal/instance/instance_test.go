package instance

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/symtab"
)

func fixture() (*schema.Catalog, *symtab.Universe, *schema.Relation, *schema.Relation) {
	cat := schema.NewCatalog()
	r := cat.MustAdd("R", 2)
	s := cat.MustAdd("S", 1)
	return cat, symtab.NewUniverse(), r, s
}

func TestAddContainsRemove(t *testing.T) {
	cat, u, r, _ := fixture()
	in := New(cat)
	a, b := u.Const("a"), u.Const("b")

	if !in.Add(r.ID, []symtab.Value{a, b}) {
		t.Fatal("Add returned false for a new fact")
	}
	if in.Add(r.ID, []symtab.Value{a, b}) {
		t.Fatal("Add returned true for a duplicate")
	}
	if in.Len() != 1 || in.LenOf(r.ID) != 1 {
		t.Fatalf("sizes: %d %d", in.Len(), in.LenOf(r.ID))
	}
	if !in.Contains(r.ID, []symtab.Value{a, b}) {
		t.Fatal("Contains missed an added fact")
	}
	if in.Contains(r.ID, []symtab.Value{b, a}) {
		t.Fatal("Contains hit a reversed tuple")
	}
	if !in.Remove(r.ID, []symtab.Value{a, b}) {
		t.Fatal("Remove returned false for a present fact")
	}
	if in.Remove(r.ID, []symtab.Value{a, b}) {
		t.Fatal("Remove returned true for an absent fact")
	}
	if in.Len() != 0 {
		t.Fatalf("Len after removal = %d", in.Len())
	}
}

func TestArityPanic(t *testing.T) {
	cat, u, r, _ := fixture()
	in := New(cat)
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	in.Add(r.ID, []symtab.Value{u.Const("a")})
}

func TestMatchAndLookup(t *testing.T) {
	cat, u, r, _ := fixture()
	in := New(cat)
	a, b, c := u.Const("a"), u.Const("b"), u.Const("c")
	in.Add(r.ID, []symtab.Value{a, b})
	in.Add(r.ID, []symtab.Value{a, c})
	in.Add(r.ID, []symtab.Value{b, c})

	if got := in.Lookup(r.ID, 0, a); len(got) != 2 {
		t.Fatalf("Lookup col0=a: %d tuples, want 2", len(got))
	}
	if got := in.Match(r.ID, []symtab.Value{a, symtab.None}); len(got) != 2 {
		t.Fatalf("Match (a,_): %d", len(got))
	}
	if got := in.Match(r.ID, []symtab.Value{symtab.None, c}); len(got) != 2 {
		t.Fatalf("Match (_,c): %d", len(got))
	}
	if got := in.Match(r.ID, []symtab.Value{a, c}); len(got) != 1 {
		t.Fatalf("Match (a,c): %d", len(got))
	}
	if got := in.Match(r.ID, []symtab.Value{symtab.None, symtab.None}); len(got) != 3 {
		t.Fatalf("Match (_,_): %d", len(got))
	}
	// Index must see subsequent mutations.
	in.Add(r.ID, []symtab.Value{a, a})
	if got := in.Lookup(r.ID, 0, a); len(got) != 3 {
		t.Fatalf("Lookup after add: %d tuples, want 3", len(got))
	}
	in.Remove(r.ID, []symtab.Value{a, a})
	if got := in.Lookup(r.ID, 0, a); len(got) != 2 {
		t.Fatalf("Lookup after remove: %d tuples, want 2", len(got))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	cat, u, r, _ := fixture()
	in := New(cat)
	a, b := u.Const("a"), u.Const("b")
	in.Add(r.ID, []symtab.Value{a, b})
	cp := in.Clone()
	cp.Add(r.ID, []symtab.Value{b, a})
	if in.Len() != 1 || cp.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", in.Len(), cp.Len())
	}
	if !in.SubInstanceOf(cp) || cp.SubInstanceOf(in) {
		t.Fatal("SubInstanceOf wrong")
	}
}

func TestRestrictAndEqual(t *testing.T) {
	cat, u, r, s := fixture()
	in := New(cat)
	a := u.Const("a")
	in.Add(r.ID, []symtab.Value{a, a})
	in.Add(s.ID, []symtab.Value{a})

	onlyR := in.Restrict(schema.NewSchema(cat.ByID(r.ID)))
	if onlyR.Len() != 1 || !onlyR.Contains(r.ID, []symtab.Value{a, a}) {
		t.Fatal("Restrict wrong")
	}
	again := in.Clone()
	if !in.Equal(again) {
		t.Fatal("Equal(clone) = false")
	}
	again.Remove(s.ID, []symtab.Value{a})
	if in.Equal(again) {
		t.Fatal("Equal after removal = true")
	}
}

func TestActiveDomainAndNulls(t *testing.T) {
	cat, u, r, _ := fixture()
	in := New(cat)
	a := u.Const("a")
	n := u.FreshNull()
	in.Add(r.ID, []symtab.Value{a, n})
	dom := in.ActiveDomain()
	if !dom[a] || !dom[n] || len(dom) != 2 {
		t.Fatalf("ActiveDomain = %v", dom)
	}
	nulls := in.Nulls()
	if len(nulls) != 1 || nulls[0] != n {
		t.Fatalf("Nulls = %v", nulls)
	}
	f := Fact{Rel: r.ID, Args: []symtab.Value{a, n}}
	if !slices.ContainsFunc(f.Args, symtab.Value.IsNull) {
		t.Fatal("fact with a null has no null argument")
	}
}

func TestHomomorphism(t *testing.T) {
	cat, u, r, _ := fixture()
	a, b := u.Const("a"), u.Const("b")
	n1, n2 := u.FreshNull(), u.FreshNull()

	// src: R(a, n1), R(n1, n2); dst: R(a,b), R(b,b)
	src := New(cat)
	src.Add(r.ID, []symtab.Value{a, n1})
	src.Add(r.ID, []symtab.Value{n1, n2})
	dst := New(cat)
	dst.Add(r.ID, []symtab.Value{a, b})
	dst.Add(r.ID, []symtab.Value{b, b})

	h, ok := Homomorphism(src, dst)
	if !ok {
		t.Fatal("expected a homomorphism")
	}
	if h[n1] != b || h[n2] != b {
		t.Fatalf("h = %v", h)
	}

	// Removing R(b,b) breaks it: n1 must map to b (forced by R(a,n1)) but then
	// R(b, x) has no image.
	dst.Remove(r.ID, []symtab.Value{b, b})
	if _, ok := Homomorphism(src, dst); ok {
		t.Fatal("unexpected homomorphism")
	}
}

func TestHomomorphismRepeatedNull(t *testing.T) {
	cat, u, r, _ := fixture()
	a, b := u.Const("a"), u.Const("b")
	n := u.FreshNull()

	src := New(cat)
	src.Add(r.ID, []symtab.Value{n, n})
	dst := New(cat)
	dst.Add(r.ID, []symtab.Value{a, b})
	if _, ok := Homomorphism(src, dst); ok {
		t.Fatal("R(n,n) should not map into R(a,b)")
	}
	dst.Add(r.ID, []symtab.Value{b, b})
	if h, ok := Homomorphism(src, dst); !ok || h[n] != b {
		t.Fatalf("expected n->b, got %v ok=%v", h, ok)
	}
}

func TestApplyValueMap(t *testing.T) {
	cat, u, r, _ := fixture()
	a, b := u.Const("a"), u.Const("b")
	n := u.FreshNull()
	in := New(cat)
	in.Add(r.ID, []symtab.Value{a, n})
	in.Add(r.ID, []symtab.Value{a, b})
	out := ApplyValueMap(in, map[symtab.Value]symtab.Value{n: b})
	if out.Len() != 1 || !out.Contains(r.ID, []symtab.Value{a, b}) {
		t.Fatalf("ApplyValueMap merged wrong: %v", out.Facts())
	}
}

// TestFactKeyDistinguishesRelations: equal argument tuples in two
// relations are two facts; each relation's tuple set holds its own.
func TestFactKeyDistinguishesRelations(t *testing.T) {
	cat := schema.NewCatalog()
	r0 := cat.MustAdd("R0", 1)
	r1 := cat.MustAdd("R1", 1)
	a := symtab.NewUniverse().Const("a")
	in := New(cat)
	in.Add(r0.ID, []symtab.Value{a})
	if in.Contains(r1.ID, []symtab.Value{a}) {
		t.Fatal("keys collide across relations")
	}
	if !in.Add(r1.ID, []symtab.Value{a}) || in.Len() != 2 {
		t.Fatal("keys collide across relations")
	}
}

// TestInsertArityError: a wrong-arity tuple is rejected with a typed
// *schema.ArityError instead of panicking; Add panics with the same error.
func TestInsertArityError(t *testing.T) {
	cat := schema.NewCatalog()
	r := cat.MustAdd("R", 2)
	in := New(cat)
	added, err := in.Insert(r.ID, []symtab.Value{1})
	if added || err == nil {
		t.Fatalf("Insert(%d args for arity 2) = %v, %v", 1, added, err)
	}
	var ae *schema.ArityError
	if !errors.As(err, &ae) || ae.Rel != "R" || ae.Want != 2 || ae.Got != 1 {
		t.Fatalf("error %v is not the expected ArityError", err)
	}
	if in.Len() != 0 {
		t.Fatalf("failed Insert mutated the instance: %d facts", in.Len())
	}
	if _, err := in.Insert(r.ID, []symtab.Value{1, 2, 3}); !errors.As(err, &ae) {
		t.Fatalf("Insert error %v is not an ArityError", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Add with wrong arity did not panic")
		}
		if perr, ok := r.(error); !ok || !errors.As(perr, &ae) {
			t.Fatalf("Add panicked with %v, want an ArityError", r)
		}
	}()
	in.Add(r.ID, []symtab.Value{1})
}
