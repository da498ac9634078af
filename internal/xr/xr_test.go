package xr

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
	"repro/internal/testkit"
)

// newAtom builds an atom for static test setup, panicking on an arity
// mismatch.
func newAtom(cat *schema.Catalog, rel *schema.Relation, terms ...logic.Term) logic.Atom {
	a, err := logic.MakeAtom(cat, rel, terms...)
	if err != nil {
		panic(err)
	}
	return a
}

type tw struct {
	cat *schema.Catalog
	u   *symtab.Universe
	m   *mapping.Mapping
	src *instance.Instance
}

func newTW() *tw {
	cat := schema.NewCatalog()
	u := symtab.NewUniverse()
	return &tw{cat: cat, u: u, m: mapping.New(cat, u), src: instance.New(cat)}
}

func (w *tw) srcRel(name string, arity int) *schema.Relation {
	r := w.cat.MustAdd(name, arity)
	w.m.Source.Add(r)
	return r
}

func (w *tw) tgtRel(name string, arity int) *schema.Relation {
	r := w.cat.MustAdd(name, arity)
	w.m.Target.Add(r)
	return r
}

func (w *tw) add(r *schema.Relation, vals ...string) {
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	w.src.Add(r.ID, args)
}

func (w *tw) vals(vals ...string) []symtab.Value {
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	return args
}

// keyConflictWorld: the paper's exon-count pattern. Two sources propose
// values for T(x, v) under a key on x:
//
//	A(x,v) -> T(x,v);  B(x,v) -> T(x,v);  T(x,v) & T(x,v') -> v = v'.
func keyConflictWorld() *tw {
	w := newTW()
	a := w.srcRel("A", 2)
	b := w.srcRel("B", 2)
	tt := w.tgtRel("T", 2)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, a, logic.V("x"), logic.V("v"))},
			Head: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("v"))}, Label: "a"},
		{Body: []logic.Atom{newAtom(w.cat, b, logic.V("x"), logic.V("v"))},
			Head: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("v"))}, Label: "b"},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, tt, logic.V("x"), logic.V("v")),
			newAtom(w.cat, tt, logic.V("x"), logic.V("v2")),
		},
		L: logic.V("v"), R: logic.V("v2"), Label: "key",
	}}
	return w
}

func (w *tw) queryT() *logic.UCQ {
	tt, _ := w.cat.ByName("T")
	return &logic.UCQ{Name: "q", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("v")},
		Body: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("v"))},
	}}}
}

func TestMonolithicConsistent(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	w.add(aRel, "t1", "5")
	w.add(aRel, "t2", "7")

	res, err := Monolithic(w.m, w.src, []*logic.UCQ{w.queryT()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans := res[0].Answers
	if ans.Len() != 2 || !ans.Contains(w.vals("t1", "5")) || !ans.Contains(w.vals("t2", "7")) {
		t.Fatalf("answers = %v", ans.Tuples())
	}
}

func TestMonolithicKeyConflict(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	w.add(aRel, "t1", "5")
	w.add(bRel, "t1", "6") // conflicting exon count for t1
	w.add(aRel, "t2", "7") // clean

	res, err := Monolithic(w.m, w.src, []*logic.UCQ{w.queryT()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans := res[0].Answers
	// t1's value is disputed (two repairs pick different values): no certain
	// answer for t1. t2 is certain.
	if ans.Len() != 1 || !ans.Contains(w.vals("t2", "7")) {
		t.Fatalf("answers = %v", ans.Tuples())
	}
}

func TestSegmentaryMatchesMonolithicKeyConflict(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	w.add(aRel, "t1", "5")
	w.add(bRel, "t1", "6")
	w.add(aRel, "t2", "7")
	w.add(bRel, "t3", "9")

	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Consistent() {
		t.Fatal("instance reported consistent")
	}
	if ex.Stats.Clusters != 1 {
		t.Fatalf("clusters = %d, want 1", ex.Stats.Clusters)
	}
	if ex.SuspectSourceFacts() != 2 {
		t.Fatalf("suspect = %d, want 2 (A(t1,5), B(t1,6))", ex.SuspectSourceFacts())
	}
	res, err := ex.Answer(w.queryT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 2 || !res.Answers.Contains(w.vals("t2", "7")) || !res.Answers.Contains(w.vals("t3", "9")) {
		t.Fatalf("answers = %v", res.Answers.Tuples())
	}
	// t2/t3 must come from the safe part, no solver needed.
	if res.Stats.SafeAccepted != 2 || res.Stats.SolverAccepted != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestBruteForceKeyConflict(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	w.add(aRel, "t1", "5")
	w.add(bRel, "t1", "6")

	repairs, err := SourceRepairs(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(repairs))
	}
	res, err := BruteForce(w.m, w.src, []*logic.UCQ{w.queryT()})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Answers.Len() != 0 {
		t.Fatalf("answers = %v", res[0].Answers.Tuples())
	}
}

// TestPaperExample1 reproduces Example 1: I_suspect is a sound but not
// necessarily minimal source repair envelope. All three facts are suspect
// although the ideal envelope excludes Q(b,c).
func TestPaperExample1(t *testing.T) {
	w := newTW()
	p := w.srcRel("P", 2)
	q := w.srcRel("Q", 2)
	pp := w.tgtRel("P1", 2)
	qq := w.tgtRel("Q1", 2)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, pp, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{newAtom(w.cat, q, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, qq, logic.V("x"), logic.V("y"))}},
	}
	w.m.TEgds = []*logic.EGD{
		{Body: []logic.Atom{
			newAtom(w.cat, pp, logic.V("x"), logic.V("y")),
			newAtom(w.cat, pp, logic.V("x"), logic.V("y2")),
		}, L: logic.V("y"), R: logic.V("y2")},
		{Body: []logic.Atom{
			newAtom(w.cat, pp, logic.V("x"), logic.V("y")),
			newAtom(w.cat, pp, logic.V("x"), logic.V("y2")),
			newAtom(w.cat, qq, logic.V("y"), logic.V("y2")),
		}, L: logic.V("y"), R: logic.V("y2")},
	}
	w.add(p, "a", "b")
	w.add(p, "a", "c")
	w.add(q, "b", "c")

	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	// I_suspect contains all three facts (the overapproximation).
	if ex.SuspectSourceFacts() != 3 {
		t.Fatalf("suspect = %d, want 3", ex.SuspectSourceFacts())
	}
	// But Q(b,c) survives in every repair (the ideal envelope is smaller):
	repairs, err := SourceRepairs(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(repairs))
	}
	for _, rep := range repairs {
		if !rep.Contains(q.ID, w.vals("b", "c")) {
			t.Fatal("Q(b,c) missing from a repair; ideal envelope reasoning wrong")
		}
	}
	// And query answering still agrees with brute force.
	qq2 := &logic.UCQ{Name: "qq", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("y")},
		Body: []logic.Atom{newAtom(w.cat, qq, logic.V("x"), logic.V("y"))},
	}}}
	want, err := BruteForce(w.m, w.src, []*logic.UCQ{qq2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.Answer(qq2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers.Len() != want[0].Answers.Len() || got.Answers.Len() != 1 {
		t.Fatalf("segmentary %d vs brute %d", got.Answers.Len(), want[0].Answers.Len())
	}
}

// TestPaperExample2 reproduces Example 2: n independent key violations form
// n violation clusters, and the query q(x) :- Q1(x,y) is answered from the
// P1 cluster alone.
func TestPaperExample2(t *testing.T) {
	w := newTW()
	const n = 4
	var srcs, tgts []*schema.Relation
	for i := 0; i < n; i++ {
		srcs = append(srcs, w.srcRel("P"+strconv.Itoa(i+1), 2))
		tgts = append(tgts, w.tgtRel("Q"+strconv.Itoa(i+1), 2))
	}
	for i := 0; i < n; i++ {
		w.m.ST = append(w.m.ST, &logic.TGD{
			Body: []logic.Atom{newAtom(w.cat, srcs[i], logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, tgts[i], logic.V("x"), logic.V("y"))},
		})
		w.m.TEgds = append(w.m.TEgds, &logic.EGD{
			Body: []logic.Atom{
				newAtom(w.cat, tgts[i], logic.V("x"), logic.V("y")),
				newAtom(w.cat, tgts[i], logic.V("x"), logic.V("y2")),
			},
			L: logic.V("y"), R: logic.V("y2"),
		})
		w.add(srcs[i], "a", "b")
		w.add(srcs[i], "a", "c")
	}
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Clusters != n {
		t.Fatalf("clusters = %d, want %d", ex.Stats.Clusters, n)
	}
	// q(x) :- Q1(x,y): certain (x=a survives in both repairs of cluster 1).
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, tgts[0], logic.V("x"), logic.V("y"))},
	}}}
	var atoms int
	res, err := ex.AnswerOpts(q, Options{Trace: func(ev TraceEvent) { atoms += ev.Atoms }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 1 || !res.Answers.Contains(w.vals("a")) {
		t.Fatalf("answers = %v", res.Answers.Tuples())
	}
	// Exactly one small program must have been solved (one signature).
	if res.Stats.Programs != 1 {
		t.Fatalf("programs = %d, want 1", res.Stats.Programs)
	}
	// Its universe must be far smaller than the full instance.
	if atoms >= ex.Stats.TotalFacts*3 {
		t.Fatalf("signature program not localized: %d atoms for %d facts",
			atoms, ex.Stats.TotalFacts)
	}
}

// TestPaperExample3 reproduces Example 3: a candidate fact lying in the
// influences of two distinct violation clusters gets a two-cluster
// signature.
func TestPaperExample3(t *testing.T) {
	w := newTW()
	p := w.srcRel("P", 2)
	q := w.srcRel("Q", 2)
	rr := w.tgtRel("R", 2)
	ss := w.tgtRel("S", 2)
	tt := w.tgtRel("TT", 3)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, rr, logic.V("x"), logic.V("y"))}},
		{Body: []logic.Atom{newAtom(w.cat, q, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, ss, logic.V("x"), logic.V("y"))}},
	}
	w.m.TTgds = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, rr, logic.V("x"), logic.V("y")), newAtom(w.cat, ss, logic.V("x"), logic.V("z"))},
			Head: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("y"), logic.V("z"))}},
	}
	w.m.TEgds = []*logic.EGD{
		{Body: []logic.Atom{
			newAtom(w.cat, rr, logic.V("x"), logic.V("y")),
			newAtom(w.cat, rr, logic.V("x"), logic.V("y2")),
		}, L: logic.V("y"), R: logic.V("y2")},
		{Body: []logic.Atom{
			newAtom(w.cat, ss, logic.V("x"), logic.V("y")),
			newAtom(w.cat, ss, logic.V("x"), logic.V("y2")),
		}, L: logic.V("y"), R: logic.V("y2")},
	}
	w.add(p, "a1", "a2")
	w.add(p, "a1", "a3")
	w.add(q, "a1", "a2")
	w.add(q, "a1", "a3")

	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", ex.Stats.Clusters)
	}
	// q3(x,y,z) :- TT(x,y,z): every TT fact depends on both clusters.
	q3 := &logic.UCQ{Name: "q3", Arity: 3, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("y"), logic.V("z")},
		Body: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("y"), logic.V("z"))},
	}}}
	res, err := ex.Answer(q3)
	if err != nil {
		t.Fatal(err)
	}
	// One program covering both clusters' influences (one signature {0,1}).
	if res.Stats.Programs != 1 {
		t.Fatalf("programs = %d, want 1", res.Stats.Programs)
	}
	// No TT fact is certain: each repair keeps one R and one S value, and
	// the four combinations disagree.
	if res.Answers.Len() != 0 {
		t.Fatalf("answers = %v", res.Answers.Tuples())
	}
	// Cross-check with brute force.
	want, err := BruteForce(w.m, w.src, []*logic.UCQ{q3})
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Answers.Len() != 0 {
		t.Fatal("brute force disagrees")
	}
}

// TestPipelinesAgreeOnRandomInputs is the central correctness property:
// brute force, monolithic, and segmentary agree on random weakly-acyclic
// mappings and instances, with and without existentials.
func TestPipelinesAgreeOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		exist := trial%2 == 0
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: exist, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 3+rng.Intn(5), 3)
		queries := []*logic.UCQ{
			testkit.RandomQuery(rng, w, "q0"),
			testkit.RandomQuery(rng, w, "q1"),
		}
		want, err := BruteForce(w.M, src, queries)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		mono, err := Monolithic(w.M, src, queries, Options{})
		if err != nil {
			t.Fatalf("trial %d: monolithic: %v", trial, err)
		}
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: exchange: %v", trial, err)
		}
		for qi, q := range queries {
			seg, err := ex.Answer(q)
			if err != nil {
				t.Fatalf("trial %d q%d: segmentary: %v", trial, qi, err)
			}
			for name, got := range map[string]int{
				"monolithic": mono[qi].Answers.Len(),
				"segmentary": seg.Answers.Len(),
			} {
				if got != want[qi].Answers.Len() {
					t.Fatalf("trial %d q%d: %s=%d brute=%d\nquery: %s\nsource:\n%s",
						trial, qi, name, got, want[qi].Answers.Len(),
						q.String(w.Cat, w.U), src.String(w.U))
				}
			}
			for _, tup := range want[qi].Answers.Tuples() {
				if !mono[qi].Answers.Contains(tup) || !seg.Answers.Contains(tup) {
					t.Fatalf("trial %d q%d: missing tuple", trial, qi)
				}
			}
		}
	}
}
