package instance

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/symtab"
)

// tupleOps is a random sequence of instance mutations used to quick-check
// set semantics against a reference map implementation.
type tupleOps []tupleOp

type tupleOp struct {
	Add  bool
	A, B uint8
}

// Generate implements quick.Generator.
func (tupleOps) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	ops := make(tupleOps, n)
	for i := range ops {
		ops[i] = tupleOp{Add: r.Intn(3) != 0, A: uint8(r.Intn(4)), B: uint8(r.Intn(4))}
	}
	return reflect.ValueOf(ops)
}

// TestInstanceMatchesReferenceSet: Add/Remove/Contains/Len agree with a
// plain map-of-keys reference under arbitrary operation sequences, and
// Match(_,_) enumerates exactly the reference contents.
func TestInstanceMatchesReferenceSet(t *testing.T) {
	cat := schema.NewCatalog()
	rel := cat.MustAdd("R", 2)
	u := symtab.NewUniverse()
	dom := []symtab.Value{u.Const("a"), u.Const("b"), u.Const("c"), u.Const("d")}

	f := func(ops tupleOps) bool {
		in := New(cat)
		ref := map[[2]uint8]bool{}
		for _, op := range ops {
			args := []symtab.Value{dom[op.A], dom[op.B]}
			key := [2]uint8{op.A, op.B}
			if op.Add {
				added := in.Add(rel.ID, args)
				if added == ref[key] {
					return false // added must be true iff previously absent
				}
				ref[key] = true
			} else {
				removed := in.Remove(rel.ID, args)
				if removed != ref[key] {
					return false
				}
				delete(ref, key)
			}
		}
		if in.Len() != len(ref) {
			return false
		}
		for key := range ref {
			if !in.Contains(rel.ID, []symtab.Value{dom[key[0]], dom[key[1]]}) {
				return false
			}
		}
		all := in.Match(rel.ID, []symtab.Value{symtab.None, symtab.None})
		return len(all) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchAgainstLinearScan: indexed Match returns exactly the tuples a
// linear scan filter would.
func TestMatchAgainstLinearScan(t *testing.T) {
	cat := schema.NewCatalog()
	rel := cat.MustAdd("R", 3)
	u := symtab.NewUniverse()
	dom := []symtab.Value{u.Const("a"), u.Const("b"), u.Const("c")}
	rng := rand.New(rand.NewSource(5))

	for trial := 0; trial < 60; trial++ {
		in := New(cat)
		for i := 0; i < rng.Intn(20); i++ {
			in.Add(rel.ID, []symtab.Value{dom[rng.Intn(3)], dom[rng.Intn(3)], dom[rng.Intn(3)]})
		}
		pattern := make([]symtab.Value, 3)
		for i := range pattern {
			if rng.Intn(2) == 0 {
				pattern[i] = symtab.None
			} else {
				pattern[i] = dom[rng.Intn(3)]
			}
		}
		got := in.Match(rel.ID, pattern)
		want := 0
		for _, tup := range in.Tuples(rel.ID) {
			ok := true
			for i, p := range pattern {
				if p != symtab.None && tup[i] != p {
					ok = false
					break
				}
			}
			if ok {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: Match=%d scan=%d pattern=%v", trial, len(got), want, pattern)
		}
	}
}

// TestRestrictUnionDecomposition: an instance equals the union of its
// restriction to a schema and to the complement.
func TestRestrictUnionDecomposition(t *testing.T) {
	cat := schema.NewCatalog()
	r1 := cat.MustAdd("R1", 1)
	r2 := cat.MustAdd("R2", 1)
	u := symtab.NewUniverse()
	rng := rand.New(rand.NewSource(6))

	for trial := 0; trial < 40; trial++ {
		in := New(cat)
		for i := 0; i < rng.Intn(10); i++ {
			rel := r1
			if rng.Intn(2) == 0 {
				rel = r2
			}
			in.Add(rel.ID, []symtab.Value{u.Const(string(rune('a' + rng.Intn(5))))})
		}
		left := in.Restrict(schema.NewSchema(r1))
		right := in.Restrict(schema.NewSchema(r2))
		union := New(cat)
		for _, f := range left.Facts() {
			union.AddFact(f)
		}
		for _, f := range right.Facts() {
			union.AddFact(f)
		}
		if !union.Equal(in) {
			t.Fatalf("trial %d: restriction decomposition failed", trial)
		}
		if left.Len()+right.Len() != in.Len() {
			t.Fatalf("trial %d: restrictions overlap", trial)
		}
	}
}

// TestHomomorphismReflexiveAndComposable: identity works, and homomorphisms
// compose (h2 ∘ h1 maps I into K when I→J and J→K exist) — spot-checked via
// existence.
func TestHomomorphismReflexiveAndComposable(t *testing.T) {
	cat := schema.NewCatalog()
	rel := cat.MustAdd("R", 2)
	u := symtab.NewUniverse()
	rng := rand.New(rand.NewSource(7))
	a, b := u.Const("a"), u.Const("b")

	for trial := 0; trial < 30; trial++ {
		mkInst := func(nulls int, facts int) *Instance {
			in := New(cat)
			pool := []symtab.Value{a, b}
			for i := 0; i < nulls; i++ {
				pool = append(pool, u.FreshNull())
			}
			for i := 0; i < facts; i++ {
				in.Add(rel.ID, []symtab.Value{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]})
			}
			return in
		}
		i1 := mkInst(2, 1+rng.Intn(3))
		if _, ok := Homomorphism(i1, i1); !ok {
			t.Fatalf("trial %d: no identity homomorphism", trial)
		}
		i2 := mkInst(1, 1+rng.Intn(4))
		i3 := mkInst(0, 1+rng.Intn(4))
		_, h12 := Homomorphism(i1, i2)
		_, h23 := Homomorphism(i2, i3)
		_, h13 := Homomorphism(i1, i3)
		if h12 && h23 && !h13 {
			t.Fatalf("trial %d: homomorphisms do not compose", trial)
		}
	}
}
