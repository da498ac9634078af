package instance

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/symtab"
)

func deltaWorld() (*Instance, *schema.Relation, *symtab.Universe) {
	cat := schema.NewCatalog()
	e := cat.MustAdd("E", 2)
	return New(cat), e, symtab.NewUniverse()
}

// deltaSince returns the tuples of rel inserted after generation g, in
// insertion order: the delta window of ForEachMatch under an all-wildcard
// pattern.
func deltaSince(in *Instance, rel schema.RelID, g uint64) [][]symtab.Value {
	var out [][]symtab.Value
	pattern := make([]symtab.Value, in.Catalog().ByID(rel).Arity)
	in.ForEachMatch(rel, pattern, g, ^uint64(0), func(t []symtab.Value, _ uint64) bool {
		out = append(out, t)
		return true
	})
	return out
}

func TestGenerationsAndDeltaSince(t *testing.T) {
	in, e, u := deltaWorld()
	a, b, c := u.Const("a"), u.Const("b"), u.Const("c")
	in.Add(e.ID, []symtab.Value{a, b})
	mark := in.Gen()
	if mark != 1 {
		t.Fatalf("Gen after one insert = %d, want 1", mark)
	}
	in.Add(e.ID, []symtab.Value{b, c})
	in.Add(e.ID, []symtab.Value{a, b}) // duplicate: no new generation
	if in.Gen() != 2 {
		t.Fatalf("Gen = %d, want 2 (duplicate must not advance)", in.Gen())
	}
	if in.RelGen(e.ID) != 2 {
		t.Fatalf("RelGen = %d, want 2", in.RelGen(e.ID))
	}
	delta := deltaSince(in, e.ID, mark)
	if len(delta) != 1 || delta[0][0] != b || delta[0][1] != c {
		t.Fatalf("DeltaSince(%d) = %v, want [[b c]]", mark, delta)
	}
	if len(deltaSince(in, e.ID, in.Gen())) != 0 {
		t.Fatal("DeltaSince(current) must be empty")
	}
}

func TestAddWithGenReturnsExistingGeneration(t *testing.T) {
	in, e, u := deltaWorld()
	a, b := u.Const("a"), u.Const("b")
	g1, added := in.AddWithGen(e.ID, []symtab.Value{a, b})
	if !added || g1 != 1 {
		t.Fatalf("first AddWithGen = (%d, %v), want (1, true)", g1, added)
	}
	g2, added := in.AddWithGen(e.ID, []symtab.Value{a, b})
	if added || g2 != g1 {
		t.Fatalf("duplicate AddWithGen = (%d, %v), want (%d, false)", g2, added, g1)
	}
	if g, ok := in.GenOf(e.ID, []symtab.Value{a, b}); !ok || g != g1 {
		t.Fatalf("GenOf = (%d, %v), want (%d, true)", g, ok, g1)
	}
	if _, ok := in.GenOf(e.ID, []symtab.Value{b, a}); ok {
		t.Fatal("GenOf of absent tuple must report false")
	}
}

func TestForEachMatchGenerationWindows(t *testing.T) {
	in, e, u := deltaWorld()
	a := u.Const("a")
	var vals []symtab.Value
	for i := 0; i < 6; i++ {
		v := u.Const(string(rune('p' + i)))
		vals = append(vals, v)
		in.Add(e.ID, []symtab.Value{a, v})
	}
	collect := func(lo, hi uint64) []symtab.Value {
		var out []symtab.Value
		in.ForEachMatch(e.ID, []symtab.Value{a, symtab.None}, lo, hi, func(tup []symtab.Value, gen uint64) bool {
			out = append(out, tup[1])
			return true
		})
		return out
	}
	got := collect(2, 5) // generations 3, 4, 5
	if len(got) != 3 || got[0] != vals[2] || got[2] != vals[4] {
		t.Fatalf("window (2,5] = %v, want vals[2:5]", got)
	}
	if n := len(collect(0, ^uint64(0))); n != 6 {
		t.Fatalf("full window = %d tuples, want 6", n)
	}
	if n := len(collect(6, ^uint64(0))); n != 0 {
		t.Fatal("empty delta window must match nothing")
	}
}

func TestPersistentIndexSurvivesRemove(t *testing.T) {
	in, e, u := deltaWorld()
	a, b := u.Const("a"), u.Const("b")
	var tuples [][]symtab.Value
	for i := 0; i < 5; i++ {
		v := u.Const(string(rune('p' + i)))
		tup := []symtab.Value{a, v}
		tuples = append(tuples, tup)
		in.Add(e.ID, tup)
	}
	in.Add(e.ID, []symtab.Value{b, u.Const("q")})
	// Force the column-0 index, then mutate and re-query: the index must be
	// patched in place, not rebuilt (builds stays at 1).
	if n := len(in.Lookup(e.ID, 0, a)); n != 5 {
		t.Fatalf("initial lookup = %d, want 5", n)
	}
	builds := in.IndexBuilds()
	in.Remove(e.ID, tuples[1])
	in.Add(e.ID, []symtab.Value{a, u.Const("z")})
	got := in.Lookup(e.ID, 0, a)
	if len(got) != 5 {
		t.Fatalf("lookup after remove+add = %d, want 5", len(got))
	}
	for _, tup := range got {
		if tup[0] != a {
			t.Fatal("index returned a non-matching tuple")
		}
		if tup[1] == tuples[1][1] {
			t.Fatal("index still lists the removed tuple")
		}
	}
	if in.IndexBuilds() != builds {
		t.Fatalf("index was rebuilt (%d -> %d builds); want incremental maintenance", builds, in.IndexBuilds())
	}
	if in.IndexProbes() == 0 {
		t.Fatal("probes counter did not advance")
	}
}

func TestRewriteValuesStampsNewGenerations(t *testing.T) {
	in, e, u := deltaWorld()
	a, b, c, d := u.Const("a"), u.Const("b"), u.Const("c"), u.Const("d")
	in.Add(e.ID, []symtab.Value{a, b})
	in.Add(e.ID, []symtab.Value{c, d})
	in.Add(e.ID, []symtab.Value{a, d})
	mark := in.Gen()

	n := in.RewriteValues(map[symtab.Value]symtab.Value{b: d})
	if n != 1 {
		t.Fatalf("rewrote %d tuples, want 1", n)
	}
	if !in.Contains(e.ID, []symtab.Value{a, d}) || in.Contains(e.ID, []symtab.Value{a, b}) {
		t.Fatal("rewrite did not replace (a,b) with (a,d)")
	}
	// (a,b) -> (a,d) collides with the existing (a,d): the instance merges.
	if in.Len() != 2 {
		t.Fatalf("Len = %d after merging rewrite, want 2", in.Len())
	}
	// Untouched tuples keep their generations; only rewrites are delta.
	if g, _ := in.GenOf(e.ID, []symtab.Value{c, d}); g > mark {
		t.Fatal("untouched tuple was restamped")
	}
	delta := deltaSince(in, e.ID, mark)
	for _, tup := range delta {
		if tup[1] == b {
			t.Fatal("delta still contains a pre-rewrite value")
		}
	}
}

func TestCloneSharesNothingMutable(t *testing.T) {
	in, e, u := deltaWorld()
	a, b := u.Const("a"), u.Const("b")
	in.Add(e.ID, []symtab.Value{a, b})
	gen := in.Gen()
	cp := in.Clone()
	if cp.Gen() != gen || cp.RelGen(e.ID) != in.RelGen(e.ID) {
		t.Fatal("clone did not preserve generations")
	}
	cp.Add(e.ID, []symtab.Value{b, a})
	if in.Contains(e.ID, []symtab.Value{b, a}) || in.Gen() != gen {
		t.Fatal("mutating the clone changed the original")
	}
	if g, ok := cp.GenOf(e.ID, []symtab.Value{a, b}); !ok || g != 1 {
		t.Fatalf("clone GenOf = (%d, %v), want (1, true)", g, ok)
	}
}
