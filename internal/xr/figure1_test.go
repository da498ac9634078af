package xr

import (
	"testing"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/gavreduce"
	"repro/internal/logic"
)

// TestFigure1Discrepancy documents a corner case in which the paper's
// literal Figure 1 encoding loses a source repair. With
//
//	S1(y) → T1(y);  S1(y) ∧ S2(w,z) → T0(w);  egd: T0(y) ∧ T1(z) → z = y
//	I = {S0(c0), S1(c2), S2(c0,c2)}
//
// the source repairs are {S0,S1} and {S0,S2}: the instance is inconsistent
// (T0(c0) and T1(c2) violate the egd with c0 ≠ c2), and either side can be
// kept. The Figure 1 program, however, has a single stable model (the
// {S0,S1} repair): deleting S1 removes both T0 and T1, the egd deletion
// rule is disabled by the incidental ¬T0i guard, and S1d loses all support
// under the GL reduct. The corrected encoding used by the pipelines
// recovers both repairs (checked against brute force).
func TestFigure1Discrepancy(t *testing.T) {
	w := newTW()
	s0 := w.srcRel("S0", 1)
	s1 := w.srcRel("S1", 1)
	s2 := w.srcRel("S2", 2)
	t0 := w.tgtRel("T0", 1)
	t1 := w.tgtRel("T1", 1)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, s1, logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, t1, logic.V("y"))}},
		{Body: []logic.Atom{newAtom(w.cat, s1, logic.V("y")), newAtom(w.cat, s2, logic.V("w"), logic.V("z"))},
			Head: []logic.Atom{newAtom(w.cat, t0, logic.V("w"))}},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{newAtom(w.cat, t0, logic.V("y")), newAtom(w.cat, t1, logic.V("z"))},
		L:    logic.V("z"), R: logic.V("y"),
	}}
	w.add(s0, "c0")
	w.add(s1, "c2")
	w.add(s2, "c0", "c2")

	// Ground truth: two repairs.
	repairs, err := SourceRepairs(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(repairs))
	}

	red, err := gavreduce.Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := chase.GAV(red.M, w.src)
	if err != nil {
		t.Fatal(err)
	}

	// Literal Figure 1: only one stable model.
	gp, _ := Figure1Program(prov)
	fig1 := asp.NewStableSolver(gp).Enumerate(func([]bool) bool { return true })
	if fig1 != 1 {
		t.Fatalf("Figure 1 program has %d stable models (expected the documented discrepancy: 1)", fig1)
	}

	// Corrected encoding: both repairs.
	enc := newEncoder(prov, func(chase.FactID) factState { return factVar })
	enc.build()
	correctedSolver := asp.NewStableSolver(enc.gp)
	correctedSolver.Acceptor = enc.maximalityAcceptor(correctedSolver)
	corrected := correctedSolver.Enumerate(func([]bool) bool { return true })
	if corrected != 2 {
		t.Fatalf("corrected encoding has %d stable models, want 2", corrected)
	}

	// And the corrected pipeline agrees with brute force on query answers:
	// q(x) :- T1(x) has no certain answer (T1(c2) absent from repair {S0,S2}).
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, t1, logic.V("x"))},
	}}}
	mono, err := Monolithic(w.m, w.src, []*logic.UCQ{q}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mono[0].Answers.Len() != 0 {
		t.Fatalf("monolithic answers = %v, want none", mono[0].Answers.Tuples())
	}
	brute, err := BruteForce(w.m, w.src, []*logic.UCQ{q})
	if err != nil {
		t.Fatal(err)
	}
	if brute[0].Answers.Len() != 0 {
		t.Fatal("brute force disagrees")
	}
}

// TestCorrectedEncodingModelsMatchRepairs checks on the key-conflict world
// that the corrected encoding's stable models are in bijection with the
// source repairs.
func TestCorrectedEncodingModelsMatchRepairs(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	w.add(aRel, "t1", "5")
	w.add(bRel, "t1", "6")
	w.add(bRel, "t1", "7")

	repairs, err := SourceRepairs(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := chase.GAV(red.M, w.src)
	if err != nil {
		t.Fatal(err)
	}
	enc := newEncoder(prov, func(chase.FactID) factState { return factVar })
	enc.build()
	solver := asp.NewStableSolver(enc.gp)
	solver.Acceptor = enc.maximalityAcceptor(solver)
	n := solver.Enumerate(func([]bool) bool { return true })
	if n != len(repairs) {
		t.Fatalf("stable models = %d, repairs = %d", n, len(repairs))
	}
	if n != 3 {
		t.Fatalf("repairs = %d, want 3 (one per candidate exon count)", n)
	}
}
