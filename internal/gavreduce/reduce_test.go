package gavreduce

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/cq"
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

func TestReduceIdentityForGAV(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 2)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))},
	}}
	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	if !red.Identity || red.M != w.m {
		t.Fatal("GAV mapping should reduce to itself")
	}
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))},
	}}}
	rq, err := red.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if rq != q {
		t.Fatal("identity reduction should not rewrite queries")
	}
}

func TestReduceRejectsNonWeaklyAcyclic(t *testing.T) {
	w := newTW()
	r := w.srcRel("R", 2)
	e := w.tgtRel("E", 2)
	w.m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
	}}
	w.m.TTgds = []*logic.TGD{{
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(w.cat, e, logic.V("y"), logic.V("z"))},
	}}
	if _, err := Reduce(w.m); err == nil {
		t.Fatal("non-weakly-acyclic mapping accepted")
	}
}

// lavKeyWorld: R(x) -> ∃z S(x,z);  P(x,y) -> S(x,y);  key egd on S.
func lavKeyWorld() *tw {
	w := newTW()
	r := w.srcRel("R", 1)
	p := w.srcRel("P", 2)
	s := w.tgtRel("S", 2)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, r, logic.V("x"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("z"))}, Label: "lav"},
		{Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"), logic.V("y"))},
			Head: []logic.Atom{newAtom(w.cat, s, logic.V("x"), logic.V("y"))}, Label: "gav"},
	}
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, s, logic.V("x"), logic.V("y")),
			newAtom(w.cat, s, logic.V("x"), logic.V("y2")),
		},
		L: logic.V("y"), R: logic.V("y2"), Label: "key",
	}}
	return w
}

func TestReduceLavKeyConsistent(t *testing.T) {
	w := lavKeyWorld()
	rRel, _ := w.cat.ByName("R")
	pRel, _ := w.cat.ByName("P")
	w.add(rRel, "a")
	w.add(pRel, "a", "b")

	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	if !red.M.IsGAV() {
		t.Fatal("reduced mapping not GAV")
	}
	prov, err := chase.GAV(red.M, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Violations) != 0 {
		t.Fatalf("violations on consistent instance: %d", len(prov.Violations))
	}
	// Query: q(x,y) :- S(x,y). The null must be extractable as b.
	sRel, _ := w.cat.ByName("S")
	q := &logic.UCQ{Name: "q", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("y")},
		Body: []logic.Atom{newAtom(w.cat, sRel, logic.V("x"), logic.V("y"))},
	}}}
	rq, err := red.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ans := cq.EvalUCQ(rq, prov.Instance)
	if ans.Len() != 1 || !ans.Contains([]symtab.Value{w.u.Const("a"), w.u.Const("b")}) {
		t.Fatalf("rewritten query answers = %d, want {(a,b)}", ans.Len())
	}
}

func TestReduceLavKeyInconsistent(t *testing.T) {
	w := lavKeyWorld()
	pRel, _ := w.cat.ByName("P")
	w.add(pRel, "a", "b")
	w.add(pRel, "a", "c")

	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := chase.GAV(red.M, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Violations) == 0 {
		t.Fatal("no violations on inconsistent instance")
	}
	if chase.HasSolution(w.m, w.src) {
		t.Fatal("native chase disagrees: has solution")
	}
}

// clusterWorld mimics the knownIsoforms pattern: transcripts are assigned
// existential cluster ids, and egds merge clusters of transcripts sharing a
// gene.
func clusterWorld() *tw {
	w := newTW()
	tr := w.srcRel("Tr", 1)     // transcript
	gene := w.srcRel("Gene", 2) // transcript -> gene symbol
	iso := w.tgtRel("Iso", 2)   // (cluster, transcript)
	ann := w.tgtRel("Ann", 2)   // (transcript, gene)
	w.m.ST = []*logic.TGD{
		{Body: []logic.Atom{newAtom(w.cat, tr, logic.V("t"))},
			Head: []logic.Atom{newAtom(w.cat, iso, logic.V("c"), logic.V("t"))}, Label: "mkcluster"},
		{Body: []logic.Atom{newAtom(w.cat, gene, logic.V("t"), logic.V("g"))},
			Head: []logic.Atom{newAtom(w.cat, ann, logic.V("t"), logic.V("g"))}, Label: "copygene"},
	}
	// Same gene symbol -> same cluster.
	w.m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(w.cat, ann, logic.V("t1"), logic.V("g")),
			newAtom(w.cat, ann, logic.V("t2"), logic.V("g")),
			newAtom(w.cat, iso, logic.V("c1"), logic.V("t1")),
			newAtom(w.cat, iso, logic.V("c2"), logic.V("t2")),
		},
		L: logic.V("c1"), R: logic.V("c2"), Label: "cluster",
	}}
	return w
}

func TestReduceClusterQuery(t *testing.T) {
	w := clusterWorld()
	trRel, _ := w.cat.ByName("Tr")
	gRel, _ := w.cat.ByName("Gene")
	w.add(trRel, "t1")
	w.add(trRel, "t2")
	w.add(trRel, "t3")
	w.add(gRel, "t1", "BRCA1")
	w.add(gRel, "t2", "BRCA1")
	w.add(gRel, "t3", "TP53")

	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := chase.GAV(red.M, w.src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Violations) != 0 {
		t.Fatal("cluster merging should not violate")
	}
	// q(a,b) :- Iso(c,a), Iso(c,b): pairs in the same cluster.
	isoRel, _ := w.cat.ByName("Iso")
	q := &logic.UCQ{Name: "q", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("a"), logic.V("b")},
		Body: []logic.Atom{
			newAtom(w.cat, isoRel, logic.V("c"), logic.V("a")),
			newAtom(w.cat, isoRel, logic.V("c"), logic.V("b")),
		},
	}}}
	rq, err := red.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ans := cq.EvalUCQ(rq, prov.Instance)
	// Expected pairs: (t1,t1),(t2,t2),(t3,t3),(t1,t2),(t2,t1) = 5.
	if ans.Len() != 5 {
		t.Fatalf("cluster pairs = %d, want 5: %v", ans.Len(), ans.Tuples())
	}
	if !ans.Contains([]symtab.Value{w.u.Const("t1"), w.u.Const("t2")}) {
		t.Fatal("missing merged pair (t1,t2)")
	}
	if ans.Contains([]symtab.Value{w.u.Const("t1"), w.u.Const("t3")}) {
		t.Fatal("spurious pair (t1,t3)")
	}
	// Compare against the native chase.
	native, err := chase.Native(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	nativeAns := cq.EvalUCQ(q, native).WithoutNulls()
	if nativeAns.Len() != ans.Len() {
		t.Fatalf("native %d answers vs reduced %d", nativeAns.Len(), ans.Len())
	}
}

func TestReduceStatsGrowth(t *testing.T) {
	w := clusterWorld()
	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	orig := w.m.Stats()
	got := red.M.Stats()
	if got.STTgds < orig.STTgds || got.TargetTgds == 0 {
		t.Fatalf("unexpected reduced sizes: %+v vs %+v", got, orig)
	}
	if len(red.M.TEgds) != 1 {
		t.Fatalf("reduced egds = %d, want 1 master egd", len(red.M.TEgds))
	}
}

// TestReduceAgainstNativeChase cross-validates solution existence and
// query answers between the native GLAV chase and the reduced GAV chase on
// random weakly-acyclic mappings with existentials.
func TestReduceAgainstNativeChase(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	trials, skipped := 0, 0
	for trial := 0; trial < 120; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: true, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 4+rng.Intn(6), 3)

		red, err := Reduce(w.M)
		if err != nil {
			t.Fatalf("trial %d: reduce: %v", trial, err)
		}
		prov, err := chase.GAV(red.M, src)
		if err != nil {
			t.Fatalf("trial %d: gav chase: %v", trial, err)
		}
		reducedConsistent := len(prov.Violations) == 0

		nativeResult, nativeErr := chase.Native(w.M, src)
		nativeConsistent := nativeErr == nil

		if reducedConsistent != nativeConsistent {
			t.Fatalf("trial %d: consistency disagreement: native=%v reduced=%v\nmapping egds=%d st=%d",
				trial, nativeConsistent, reducedConsistent, len(w.M.TEgds), len(w.M.ST))
		}
		if !nativeConsistent {
			skipped++
			continue
		}
		trials++
		// Compare query answers on the consistent instance.
		for qi := 0; qi < 3; qi++ {
			q := testkit.RandomQuery(rng, w, "q")
			rq, err := red.RewriteQuery(q)
			if err != nil {
				t.Fatalf("trial %d: rewrite: %v", trial, err)
			}
			want := cq.EvalUCQ(q, nativeResult).WithoutNulls()
			var got *cq.AnswerSet
			if len(rq.Clauses) == 0 {
				got = cq.NewAnswerSet()
			} else {
				got = cq.EvalUCQ(rq, prov.Instance)
			}
			if got.Len() != want.Len() {
				t.Fatalf("trial %d query %d: native %d answers, reduced %d\nquery: %s",
					trial, qi, want.Len(), got.Len(), q.String(w.Cat, w.U))
			}
			for _, tup := range want.Tuples() {
				if !got.Contains(tup) {
					t.Fatalf("trial %d query %d: missing answer", trial, qi)
				}
			}
		}
	}
	if trials < 20 {
		t.Fatalf("too few consistent trials: %d (skipped %d)", trials, skipped)
	}
}

func TestReduceIdempotentOnSharedCatalog(t *testing.T) {
	// Reducing the same mapping twice must reuse the shaped/EQ relations
	// already declared in the shared catalog rather than failing.
	w := clusterWorld()
	r1, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	before := w.cat.Len()
	r2, err := Reduce(w.m)
	if err != nil {
		t.Fatalf("second reduction failed: %v", err)
	}
	if w.cat.Len() != before {
		t.Fatalf("second reduction declared %d new relations", w.cat.Len()-before)
	}
	s1, s2 := r1.M.Stats(), r2.M.Stats()
	if s1 != s2 {
		t.Fatalf("reductions differ: %+v vs %+v", s1, s2)
	}
}

func TestRewriteQueryRejectsSourceRelations(t *testing.T) {
	w := clusterWorld()
	red, err := Reduce(w.m)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := w.cat.ByName("Tr")
	q := &logic.UCQ{Name: "bad", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, tr, logic.V("x"))},
	}}}
	if _, err := red.RewriteQuery(q); err == nil {
		t.Fatal("query over source relation accepted")
	}
}
