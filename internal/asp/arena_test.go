package asp

import (
	"math/rand"
	"testing"
)

// TestClauseArenaCompaction drives one solver through many sessions on a
// random 3-SAT instance near the phase transition, the way a persistent
// signature solver is driven: each session adds clauses guarded by a
// fresh activation literal, solves under it and a few assumptions, and
// retires it with a unit; every eighth session simplifies. The
// learnt-clause trigger is lowered so that reduceDB deletes clauses over
// and over. After every call the arena must account for each word, keep
// its dead share at most 1/compactShare, watch each live clause on its
// first two literals and name no deleted clause in a reason (and in a
// watch, once compaction has reclaimed every deleted clause). Every
// result must equal a fresh solver's.
func TestClauseArenaCompaction(t *testing.T) {
	const nVars, sessions = 120, 200
	rng := rand.New(rand.NewSource(2718))
	randomLit := func() Lit {
		v := Var(1 + rng.Intn(nVars))
		if rng.Intn(2) == 0 {
			return NegLit(v)
		}
		return PosLit(v)
	}
	randomClause := func() []Lit { return []Lit{randomLit(), randomLit(), randomLit()} }
	var base [][]Lit
	for range int(3.9 * nVars) {
		base = append(base, randomClause())
	}
	s := newSolverWithVars(nVars)
	s.maxLearnts = 20
	for _, c := range base {
		s.AddClause(c...)
	}
	checkArena(t, s)

	compactions, peak, sats := 0, 0, 0
	for i := range sessions {
		act := s.NewVar()
		guarded := [][]Lit{randomClause(), randomClause()}
		for _, c := range guarded {
			s.AddClause(append([]Lit{NegLit(act)}, c...)...)
		}
		assumps := []Lit{PosLit(act), randomLit(), randomLit()}
		wasted, words := s.wasted, len(s.arena)
		got := s.SolveUnderAssumptions(assumps)
		if got {
			sats++
			for _, c := range append(guarded, base...) {
				if !modelSatisfies(s, c) {
					t.Fatalf("session %d: model violates %v", i, c)
				}
			}
		}
		ref := newSolverWithVars(nVars + 1 + i)
		for _, c := range append(guarded, base...) {
			ref.AddClause(c...)
		}
		for _, a := range assumps[1:] {
			ref.AddClause(a)
		}
		if want := ref.Solve(); got != want {
			t.Fatalf("session %d: solver under assumptions says %v, fresh solver %v", i, got, want)
		}
		checkArena(t, s)
		s.AddClause(NegLit(act))
		if i%8 == 7 {
			s.Simplify()
			checkArena(t, s)
		}
		if s.wasted < wasted || len(s.arena) < words {
			compactions++
		}
		peak = max(peak, len(s.arena))
	}
	if s.Reductions < 10 || compactions < 10 || sats == 0 || sats == sessions {
		t.Fatalf("%d reductions, %d compactions, %d of %d sessions satisfiable: the test no longer exercises compaction",
			s.Reductions, compactions, sats, sessions)
	}
	// Every word the arena ever took: the problem clauses and at least six
	// per learnt clause (header, two literals, LBD and activity), less the
	// unit ones. The arena holds its live clauses and at most
	// 1/compactShare dead words, so it stays well below that.
	ever := sessions * 2 * 5
	for _, c := range base {
		ever += 1 + len(c)
	}
	ever += 6 * int(s.Conflicts-int64(nVars+sessions))
	t.Logf("%d conflicts, %d reductions, %d compactions, %d of %d sessions satisfiable; arena %d words, peak %d of %d ever added",
		s.Conflicts, s.Reductions, compactions, sats, sessions, len(s.arena), peak, ever)
	if peak*2 > ever {
		t.Fatalf("arena peaked at %d words, over half of the %d words it ever took", peak, ever)
	}
}

// modelSatisfies reports whether the solver's last model satisfies c.
func modelSatisfies(s *Solver, c []Lit) bool {
	for _, l := range c {
		if s.ModelValue(l.Var()) != l.Sign() {
			return true
		}
	}
	return false
}

// checkArena checks the clause arena's invariants: every word belongs to
// a listed clause, to the header word at offset 0, or to a deleted clause
// counted in wasted; deleted words stay within 1/compactShare of the
// arena; every live clause is watched exactly on the negations of its
// first two literals; a reason names a live clause whose first literal it
// assigns; and a watch names a deleted clause only while wasted counts
// it.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := 0
	watched := map[cref]int{}
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if s.deleted(c) {
				t.Fatalf("listed clause %d is deleted", c)
			}
			live += clauseWords(s.arena[c])
			watched[c] = 0
		}
	}
	if 1+live+s.wasted != len(s.arena) {
		t.Fatalf("arena of %d words holds %d live and %d dead", len(s.arena), live, s.wasted)
	}
	if s.wasted*compactShare > len(s.arena) {
		t.Fatalf("%d of %d arena words dead, above 1/%d", s.wasted, len(s.arena), compactShare)
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			if s.deleted(w.c) {
				if s.wasted == 0 {
					t.Fatalf("watch on %v names deleted clause %d after compaction", Lit(l), w.c)
				}
				continue
			}
			if lits := s.lits(w.c); Lit(l) != lits[0].Neg() && Lit(l) != lits[1].Neg() {
				t.Fatalf("clause %d watched on %v, not on its first two literals %v", w.c, Lit(l), lits[:2])
			}
			watched[w.c]++
		}
	}
	for c, n := range watched {
		if n != 2 {
			t.Fatalf("live clause %d has %d watches", c, n)
		}
	}
	for v, c := range s.reason {
		if c == 0 {
			continue
		}
		if s.deleted(c) {
			t.Fatalf("reason of var %d names deleted clause %d", v, c)
		}
		if s.assign[v] != lUndef && s.lits(c)[0].Var() != Var(v) {
			t.Fatalf("reason of var %d is clause %d, which asserts %v", v, c, s.lits(c)[0])
		}
	}
}
