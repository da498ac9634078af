package asp

import (
	"slices"
	"testing"
)

// TestFrozenProgramPanicsOnWrite checks that every write to a frozen
// program panics, and that a program which is not frozen has no tail.
func TestFrozenProgramPanicsOnWrite(t *testing.T) {
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.AnonAtom()
	p.AddRule([]AtomID{a}, nil, []AtomID{b})
	mustPanic(t, "Tail of an unfrozen program", func() { p.Tail() })
	p.Freeze()
	for name, write := range map[string]func(){
		"Atom":          func() { p.Atom("c") },
		"AnonAtom":      func() { p.AnonAtom() },
		"AddRule":       func() { p.AddRule([]AtomID{a}, nil, nil) },
		"AddFact":       func() { p.AddFact(a) },
		"AddConstraint": func() { p.AddConstraint([]AtomID{a, b}, nil) },
	} {
		mustPanic(t, name, write)
	}
	// Interning a name the frozen program already has writes nothing.
	if got := p.Atom("a"); got != a {
		t.Fatalf("Atom(a) on the frozen program = %d, want %d", got, a)
	}
	if p.NumAtoms() != 2 || p.NumRules() != 1 || p.NumFacts() != 0 {
		t.Fatalf("frozen program changed: %s", p.Stats())
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// TestTailContinuesBase checks that a tail reads its frozen base as its
// own prefix: atoms, rules and facts numbered after the base's, names
// looked up across both, and the rendering and stats of the one program
// built without a split. Two tails of one base stay independent.
func TestTailContinuesBase(t *testing.T) {
	build := func(p *GroundProgram, split func(*GroundProgram) *GroundProgram) *GroundProgram {
		a, b := p.Atom("a"), p.AnonAtom()
		p.AddFact(a)
		p.AddRule([]AtomID{b}, []AtomID{a}, nil)
		p.AddConstraint(nil, []AtomID{a, b})
		p = split(p)
		c := p.Atom("c")
		d := p.AnonAtom()
		p.AddRule([]AtomID{c, d}, []AtomID{a}, []AtomID{b})
		p.AddFact(d)
		return p
	}
	whole := build(NewGroundProgram(), func(p *GroundProgram) *GroundProgram { return p })
	var base *GroundProgram
	tail := build(NewGroundProgram(), func(p *GroundProgram) *GroundProgram {
		p.Freeze()
		base = p
		return p.Tail()
	})
	other := base.Tail()
	other.AnonAtom()

	if tail.String() != whole.String() || tail.Stats() != whole.Stats() {
		t.Fatalf("tail renders\n%s\n(%s), whole program\n%s\n(%s)", tail, tail.Stats(), whole, whole.Stats())
	}
	for i := range whole.NumRules() {
		w, g := whole.Rule(i), tail.Rule(i)
		if !slices.Equal(w.Head, g.Head) || !slices.Equal(w.Pos, g.Pos) || !slices.Equal(w.Neg, g.Neg) {
			t.Fatalf("rule %d: tail %v, whole %v", i, g, w)
		}
	}
	for i := range whole.NumFacts() {
		if whole.Fact(i) != tail.Fact(i) {
			t.Fatalf("fact %d: tail %d, whole %d", i, tail.Fact(i), whole.Fact(i))
		}
	}
	if id, ok := tail.LookupAtom("a"); !ok || id != 0 {
		t.Fatalf("tail LookupAtom(a) = %d, %v", id, ok)
	}
	if id, ok := tail.LookupAtom("c"); !ok || id != 2 || tail.Name(3) != "_a3" {
		t.Fatalf("tail LookupAtom(c) = %d, %v; Name(3) = %s", id, ok, tail.Name(3))
	}
	if _, ok := base.LookupAtom("c"); ok || base.NumAtoms() != 2 || base.NumRules() != 2 || base.NumFacts() != 1 {
		t.Fatalf("base changed under its tail: %s", base.Stats())
	}
	if other.NumAtoms() != 3 || other.NumRules() != 2 {
		t.Fatalf("second tail: %s", other.Stats())
	}
}
