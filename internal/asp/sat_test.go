package asp

import (
	"context"
	"math/rand"
	"testing"
)

func lit(x int) Lit {
	if x > 0 {
		return PosLit(Var(x))
	}
	return NegLit(Var(-x))
}

func newSolverWithVars(n int) *Solver {
	s := NewSolver()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestLitEncoding(t *testing.T) {
	l := PosLit(3)
	if l.Var() != 3 || l.Sign() {
		t.Fatalf("pos lit wrong: %v %v", l.Var(), l.Sign())
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() || n.Neg() != l {
		t.Fatal("negation wrong")
	}
	if NegLit(5).String() != "-5" || PosLit(5).String() != "5" {
		t.Fatal("string rendering wrong")
	}
}

func TestSolveTrivial(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lit(1))
	s.AddClause(lit(-2))
	if !s.Solve() {
		t.Fatal("UNSAT on satisfiable instance")
	}
	if !s.ModelValue(1) || s.ModelValue(2) {
		t.Fatal("model wrong")
	}
}

func TestSolveUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lit(1))
	if s.AddClause(lit(-1)) {
		t.Fatal("adding contradicting unit should report false")
	}
	if s.Solve() {
		t.Fatal("SAT on unsatisfiable instance")
	}
}

func TestSolvePigeonhole3x2(t *testing.T) {
	// 3 pigeons, 2 holes: UNSAT. Var p*2+h+1 means pigeon p in hole h.
	s := newSolverWithVars(6)
	v := func(p, h int) int { return p*2 + h + 1 }
	for p := 0; p < 3; p++ {
		s.AddClause(lit(v(p, 0)), lit(v(p, 1)))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(lit(-v(p1, h)), lit(-v(p2, h)))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole 3x2 reported SAT")
	}
}

func TestSolveWithAssumptions(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(3))
	if !s.Solve(lit(-2)) {
		t.Fatal("UNSAT under assumption -2")
	}
	if !s.ModelValue(1) || !s.ModelValue(3) {
		t.Fatal("model under assumptions wrong")
	}
	// Incremental: same solver, different assumptions.
	if !s.Solve(lit(-1)) {
		t.Fatal("UNSAT under assumption -1")
	}
	if !s.ModelValue(2) {
		t.Fatal("model wrong")
	}
	// Contradictory assumptions.
	s.AddClause(lit(-2), lit(-3))
	if s.Solve(lit(2), lit(3)) {
		t.Fatal("SAT under contradictory assumptions")
	}
	// Solver still usable afterwards.
	if !s.Solve() {
		t.Fatal("solver unusable after assumption UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := newSolverWithVars(2)
	if !s.AddClause(lit(1), lit(-1)) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(lit(2), lit(2)) {
		t.Fatal("duplicate-literal clause rejected")
	}
	if !s.Solve() || !s.ModelValue(2) {
		t.Fatal("dedup handling wrong")
	}
}

// bruteForceSAT checks satisfiability by enumeration.
func bruteForceSAT(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, x := range c {
				v := x
				if v < 0 {
					v = -v
				}
				val := m&(1<<(v-1)) != 0
				if (x > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(8) // 3..10
		nClauses := 1 + rng.Intn(40)
		clauses := make([][]int, nClauses)
		s := newSolverWithVars(nVars)
		addOK := true
		for i := range clauses {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			lits := make([]Lit, k)
			for j := 0; j < k; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
				lits[j] = lit(v)
			}
			clauses[i] = c
			if !s.AddClause(lits...) {
				addOK = false
			}
		}
		want := bruteForceSAT(nVars, clauses)
		got := addOK && s.Solve()
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		if got {
			// Verify the model actually satisfies the clauses.
			for _, c := range clauses {
				sat := false
				for _, x := range c {
					v := Var(x)
					if x < 0 {
						v = Var(-x)
					}
					if (x > 0) == s.ModelValue(v) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, c)
				}
			}
		}
	}
}

func TestPhaseBiasFalseFirst(t *testing.T) {
	// With no constraints, the default false-first phase should produce the
	// all-false model.
	s := newSolverWithVars(5)
	s.AddClause(lit(1), lit(2), lit(3), lit(4), lit(5))
	if !s.Solve() {
		t.Fatal("UNSAT")
	}
	trues := 0
	for v := 1; v <= 5; v++ {
		if s.ModelValue(Var(v)) {
			trues++
		}
	}
	if trues != 1 {
		t.Fatalf("false-first phase produced %d true vars, want 1", trues)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLargerChain(t *testing.T) {
	// Implication chain 1 -> 2 -> ... -> n with unit 1 forces all true.
	const n = 2000
	s := newSolverWithVars(n)
	for i := 1; i < n; i++ {
		s.AddClause(lit(-i), lit(i+1))
	}
	s.AddClause(lit(1))
	if !s.Solve() {
		t.Fatal("UNSAT")
	}
	for i := 1; i <= n; i++ {
		if !s.ModelValue(Var(i)) {
			t.Fatalf("var %d false in chain model", i)
		}
	}
}

func TestRandomHard3SAT(t *testing.T) {
	// Near the phase-transition ratio (4.26 clauses/var) CDCL must still
	// decide instances; verify models when SAT.
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 10; trial++ {
		nVars := 60
		nClauses := int(4.26 * float64(nVars))
		s := newSolverWithVars(nVars)
		clauses := make([][]int, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			c := make([]int, 3)
			lits := make([]Lit, 3)
			for j := 0; j < 3; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
				lits[j] = lit(v)
			}
			clauses = append(clauses, c)
			s.AddClause(lits...)
		}
		if !s.Solve() {
			continue // UNSAT is fine; nothing to verify
		}
		for _, c := range clauses {
			sat := false
			for _, x := range c {
				v := Var(x)
				if x < 0 {
					v = Var(-x)
				}
				if (x > 0) == s.ModelValue(v) {
					sat = true
					break
				}
			}
			if !sat {
				t.Fatalf("trial %d: model violates clause %v", trial, c)
			}
		}
	}
}

func TestSolverCancellation(t *testing.T) {
	// A solver whose context is done returns false promptly and reports
	// Canceled.
	s := newSolverWithVars(40)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 170; i++ {
		var lits []Lit
		for j := 0; j < 3; j++ {
			v := 1 + rng.Intn(40)
			if rng.Intn(2) == 0 {
				v = -v
			}
			lits = append(lits, lit(v))
		}
		s.AddClause(lits...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	if s.Solve() {
		// A solve may still succeed if it finds a model before the first
		// cancellation check; that is acceptable behaviour.
		t.Log("solve finished before cancellation check")
	}
	if !s.Canceled() {
		t.Fatal("Canceled() = false with a done context")
	}
}
