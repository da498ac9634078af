package asp

import (
	"testing"
)

func TestGroundSimpleDatalog(t *testing.T) {
	sp := &SymProgram{}
	sp.AddFact("edge", "a", "b")
	sp.AddFact("edge", "b", "c")
	// path(X,Y) :- edge(X,Y).  path(X,Z) :- path(X,Y), edge(Y,Z).
	sp.AddRule(SymRule{
		Head: []SymAtom{SA("path", SV("X"), SV("Y"))},
		Pos:  []SymAtom{SA("edge", SV("X"), SV("Y"))},
	})
	sp.AddRule(SymRule{
		Head: []SymAtom{SA("path", SV("X"), SV("Z"))},
		Pos:  []SymAtom{SA("path", SV("X"), SV("Y")), SA("edge", SV("Y"), SV("Z"))},
	})
	gp, err := sp.Ground()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStableSolver(gp)
	m := s.NextStable()
	if m == nil {
		t.Fatal("no stable model")
	}
	ac, ok := gp.LookupAtom("path(a,c)")
	if !ok || !m[ac] {
		t.Fatal("path(a,c) not derived")
	}
	n := 0
	for _, tv := range m {
		if tv {
			n++
		}
	}
	if n != 5 { // 2 edges + 3 paths
		t.Fatalf("model size = %d, want 5", n)
	}
}

func TestGroundNegationSimplification(t *testing.T) {
	sp := &SymProgram{}
	sp.AddFact("p", "a")
	// q(X) :- p(X), not r(X).   r never derivable -> literal dropped.
	sp.AddRule(SymRule{
		Head: []SymAtom{SA("q", SV("X"))},
		Pos:  []SymAtom{SA("p", SV("X"))},
		Neg:  []SymAtom{SA("r", SV("X"))},
	})
	gp, err := sp.Ground()
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Rules) != 1 || len(gp.Rules[0].Neg) != 0 {
		t.Fatalf("negative literal not simplified: %s", gp.String())
	}
	s := NewStableSolver(gp)
	m := s.NextStable()
	qa, _ := gp.LookupAtom("q(a)")
	if m == nil || !m[qa] {
		t.Fatal("q(a) not derived")
	}
}

func TestGroundInequality(t *testing.T) {
	sp := &SymProgram{}
	sp.AddFact("p", "a")
	sp.AddFact("p", "b")
	// conflict(X,Y) :- p(X), p(Y), X != Y.
	sp.AddRule(SymRule{
		Head: []SymAtom{SA("conflict", SV("X"), SV("Y"))},
		Pos:  []SymAtom{SA("p", SV("X")), SA("p", SV("Y"))},
		Neq:  [][2]SymTerm{{SV("X"), SV("Y")}},
	})
	gp, err := sp.Ground()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStableSolver(gp)
	m := s.NextStable()
	ab, okAB := gp.LookupAtom("conflict(a,b)")
	if !okAB || !m[ab] {
		t.Fatal("conflict(a,b) missing")
	}
	if _, okAA := gp.LookupAtom("conflict(a,a)"); okAA {
		t.Fatal("conflict(a,a) grounded despite inequality")
	}
}

func TestGroundUnsafeRule(t *testing.T) {
	sp := &SymProgram{}
	sp.AddRule(SymRule{Head: []SymAtom{SA("q", SV("X"))}})
	if _, err := sp.Ground(); err == nil {
		t.Fatal("unsafe rule accepted")
	}
	sp2 := &SymProgram{}
	sp2.AddFact("p", "a")
	sp2.AddRule(SymRule{
		Head: []SymAtom{SA("q", SV("X"))},
		Pos:  []SymAtom{SA("p", SV("X"))},
		Neg:  []SymAtom{SA("r", SV("Y"))},
	})
	if _, err := sp2.Ground(); err == nil {
		t.Fatal("unsafe negative literal accepted")
	}
}

func TestGroundThreeColoring(t *testing.T) {
	// Classic: 3-color a triangle plus a pendant vertex.
	sp := &SymProgram{}
	for _, e := range [][2]string{{"v1", "v2"}, {"v2", "v3"}, {"v1", "v3"}, {"v3", "v4"}} {
		sp.AddFact("edge", e[0], e[1])
	}
	for _, v := range []string{"v1", "v2", "v3", "v4"} {
		sp.AddFact("node", v)
	}
	// col(X,r) | col(X,g) | col(X,b) :- node(X).
	sp.AddRule(SymRule{
		Head: []SymAtom{
			SA("col", SV("X"), SC("r")),
			SA("col", SV("X"), SC("g")),
			SA("col", SV("X"), SC("b")),
		},
		Pos: []SymAtom{SA("node", SV("X"))},
	})
	// :- edge(X,Y), col(X,C), col(Y,C).
	sp.AddRule(SymRule{
		Pos: []SymAtom{SA("edge", SV("X"), SV("Y")), SA("col", SV("X"), SV("C")), SA("col", SV("Y"), SV("C"))},
	})
	gp, err := sp.Ground()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStableSolver(gp)
	count := s.Enumerate(func(m []bool) bool { return true })
	// Triangle: 3! = 6 colorings; pendant vertex: 2 choices each → 12.
	if count != 12 {
		t.Fatalf("3-coloring models = %d, want 12", count)
	}
}

func TestGroundThreeColoringUnsat(t *testing.T) {
	// K4 is not 3-colorable.
	sp := &SymProgram{}
	vs := []string{"v1", "v2", "v3", "v4"}
	for i := range vs {
		sp.AddFact("node", vs[i])
		for j := i + 1; j < len(vs); j++ {
			sp.AddFact("edge", vs[i], vs[j])
		}
	}
	sp.AddRule(SymRule{
		Head: []SymAtom{
			SA("col", SV("X"), SC("r")),
			SA("col", SV("X"), SC("g")),
			SA("col", SV("X"), SC("b")),
		},
		Pos: []SymAtom{SA("node", SV("X"))},
	})
	sp.AddRule(SymRule{
		Pos: []SymAtom{SA("edge", SV("X"), SV("Y")), SA("col", SV("X"), SV("C")), SA("col", SV("Y"), SV("C"))},
	})
	gp, err := sp.Ground()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStableSolver(gp)
	if s.NextStable() != nil {
		t.Fatal("K4 3-colored")
	}
}

func TestGroundAtomDisplay(t *testing.T) {
	if got := groundAtomName("p", nil); got != "p" {
		t.Fatalf("nullary atom = %q", got)
	}
	if got := SA("p", SV("X"), SC("a")).String(); got != "p(X,a)" {
		t.Fatalf("symbolic atom = %q", got)
	}
}
