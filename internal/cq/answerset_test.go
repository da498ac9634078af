package cq

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/symtab"
)

// refSet is the answer set AnswerSet replaced, a map from each tuple's
// EncodeTuple key to a copy of the tuple: the reference for membership and
// order.
type refSet map[string][]symtab.Value

func (r refSet) add(t []symtab.Value) bool {
	k := instance.EncodeTuple(t)
	if _, ok := r[k]; ok {
		return false
	}
	r[k] = slices.Clone(t)
	return true
}

// tuples returns the tuples in the order of sort.Strings over their keys.
func (r refSet) tuples() [][]symtab.Value {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]symtab.Value, len(keys))
	for i, k := range keys {
		out[i] = r[k]
	}
	return out
}

// randomValue mixes small constants, constants of 256 and more, whose
// low byte — the first byte of their key — repeats, and labelled nulls,
// whose key starts with the low byte of a negative number: little-endian
// key order is then far from numeric order.
func randomValue(rng *rand.Rand) symtab.Value {
	switch rng.Intn(4) {
	case 0:
		return symtab.Value(1 + rng.Intn(300))
	case 1:
		return symtab.Value(256*(1+rng.Intn(70000)) + rng.Intn(3))
	case 2:
		return symtab.Value(1 << (8 + rng.Intn(22)))
	default:
		return symtab.Null(1 + rng.Intn(70000))
	}
}

func randomTuples(rng *rand.Rand, n, arity int) [][]symtab.Value {
	out := make([][]symtab.Value, n)
	for i := range out {
		out[i] = make([]symtab.Value, arity)
		for j := range out[i] {
			out[i][j] = randomValue(rng)
		}
	}
	return out
}

// requireSameTuples requires got to hold exactly want's tuples, in want's
// order.
func requireSameTuples(t *testing.T, label string, got *AnswerSet, want refSet) {
	t.Helper()
	g, w := got.Tuples(), want.tuples()
	if got.Len() != len(w) || len(g) != len(w) {
		t.Fatalf("%s: %d tuples (Len %d), reference %d", label, len(g), got.Len(), len(w))
	}
	for i := range w {
		if !slices.Equal(g[i], w[i]) {
			t.Fatalf("%s: tuple %d is %v, reference %v", label, i, g[i], w[i])
		}
	}
}

// TestCompareTuplesIsKeyOrder: CompareTuples orders tuples, of equal or
// different lengths, as strings.Compare orders their EncodeTuple keys.
func TestCompareTuplesIsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	for i := 0; i < 20000; i++ {
		a := randomTuples(rng, 1, rng.Intn(4))[0]
		b := randomTuples(rng, 1, rng.Intn(4))[0]
		if rng.Intn(3) == 0 { // share a prefix
			b = append(slices.Clone(a[:rng.Intn(len(a)+1)]), b...)
		}
		got := CompareTuples(a, b)
		want := strings.Compare(instance.EncodeTuple(a), instance.EncodeTuple(b))
		if got != want {
			t.Fatalf("CompareTuples(%v, %v) = %d, key order %d", a, b, got, want)
		}
	}
}

// TestAnswerSetMatchesReference adds random tuples in random order, with
// repeats, to an AnswerSet and to the map-of-keys reference, and requires
// them to agree on every operation: Add's report, Len, the order of
// Tuples, Contains, Intersect, WithoutNulls and Clone.
func TestAnswerSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2202))
	build := func(pool [][]symtab.Value, adds int) (*AnswerSet, refSet) {
		set, ref := NewAnswerSet(), refSet{}
		for i := 0; i < adds; i++ {
			tup := pool[rng.Intn(len(pool))]
			if got, want := set.Add(tup), ref.add(tup); got != want {
				t.Fatalf("Add(%v) = %v, reference %v", tup, got, want)
			}
		}
		return set, ref
	}
	for trial := 0; trial < 300; trial++ {
		arity := rng.Intn(4) // 0 is a boolean query's empty tuple
		pool := randomTuples(rng, 1+rng.Intn(60), arity)
		set, ref := build(pool, rng.Intn(120))
		requireSameTuples(t, "Add", set, ref)

		probes := append(slices.Clone(pool), randomTuples(rng, 20, arity)...)
		for _, p := range probes {
			_, want := ref[instance.EncodeTuple(p)]
			if got := set.Contains(p); got != want {
				t.Fatalf("Contains(%v) = %v, reference %v", p, got, want)
			}
		}

		// Add copies its tuple: changing the caller's slice changes no member.
		if len(pool) > 0 && arity > 0 {
			own := slices.Clone(pool[0])
			set.Add(own)
			ref.add(own)
			own[0] = randomValue(rng)
			requireSameTuples(t, "Add after the caller writes its tuple", set, ref)
		}

		clone := set.Clone()
		requireSameTuples(t, "Clone", clone, ref)
		extra := randomTuples(rng, 5, arity)
		refExtra := refSet{}
		for k, v := range ref {
			refExtra[k] = v
		}
		for _, e := range extra {
			clone.Add(e)
			refExtra.add(e)
		}
		requireSameTuples(t, "Clone after Add", clone, refExtra)
		requireSameTuples(t, "original after Clone's Add", set, ref)

		refNoNull := refSet{}
		for _, tup := range ref {
			if !slices.ContainsFunc(tup, symtab.Value.IsNull) {
				refNoNull.add(tup)
			}
		}
		requireSameTuples(t, "WithoutNulls", set.WithoutNulls(), refNoNull)

		other, refOther := build(append(pool[:len(pool)/2:len(pool)/2], randomTuples(rng, 10, arity)...), rng.Intn(80))
		refBoth := refSet{}
		for k, v := range ref {
			if _, ok := refOther[k]; ok {
				refBoth[k] = v
			}
		}
		if got := set.Intersect(other); got != set {
			t.Fatal("Intersect did not return its receiver")
		}
		requireSameTuples(t, "Intersect", set, refBoth)
		requireSameTuples(t, "Intersect's argument", other, refOther)
	}
}
