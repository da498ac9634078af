package cq

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
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

type world struct {
	cat *schema.Catalog
	u   *symtab.Universe
	in  *instance.Instance
}

func newWorld() *world {
	cat := schema.NewCatalog()
	cat.MustAdd("E", 2)
	cat.MustAdd("P", 1)
	return &world{cat: cat, u: symtab.NewUniverse(), in: instance.New(cat)}
}

func (w *world) rel(name string) *schema.Relation {
	r, _ := w.cat.ByName(name)
	return r
}

func (w *world) add(name string, vals ...string) {
	r := w.rel(name)
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	w.in.Add(r.ID, args)
}

func (w *world) tuple(vals ...string) []symtab.Value {
	args := make([]symtab.Value, len(vals))
	for i, v := range vals {
		args[i] = w.u.Const(v)
	}
	return args
}

func TestEvalSimpleJoin(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	w.add("E", "b", "c")
	w.add("E", "c", "d")

	e := w.rel("E")
	// q(x,z) :- E(x,y), E(y,z)
	q := &logic.UCQ{Name: "q", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("z")},
		Body: []logic.Atom{
			newAtom(w.cat, e, logic.V("x"), logic.V("y")),
			newAtom(w.cat, e, logic.V("y"), logic.V("z")),
		},
	}}}
	ans := EvalUCQ(q, w.in)
	if ans.Len() != 2 {
		t.Fatalf("answers = %d, want 2", ans.Len())
	}
	if !ans.Contains(w.tuple("a", "c")) || !ans.Contains(w.tuple("b", "d")) {
		t.Fatal("missing expected answers")
	}
}

func TestEvalSelfJoinRepeatedVar(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "a")
	w.add("E", "a", "b")
	e := w.rel("E")
	// q(x) :- E(x,x)
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("x"))},
	}}}
	ans := EvalUCQ(q, w.in)
	if ans.Len() != 1 || !ans.Contains(w.tuple("a")) {
		t.Fatalf("self-join answers wrong: %d", ans.Len())
	}
}

func TestEvalWithConstant(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	w.add("E", "c", "b")
	w.add("E", "c", "d")
	e := w.rel("E")
	b := w.u.Const("b")
	// q(x) :- E(x, b)
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.C(b))},
	}}}
	ans := EvalUCQ(q, w.in)
	if ans.Len() != 2 {
		t.Fatalf("answers = %d, want 2", ans.Len())
	}
}

func TestEvalUnion(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	w.add("P", "c")
	e, p := w.rel("E"), w.rel("P")
	q := &logic.UCQ{Name: "q", Arity: 1, Clauses: []logic.CQ{
		{Head: []logic.Term{logic.V("x")}, Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))}},
		{Head: []logic.Term{logic.V("x")}, Body: []logic.Atom{newAtom(w.cat, p, logic.V("x"))}},
	}}
	ans := EvalUCQ(q, w.in)
	if ans.Len() != 2 || !ans.Contains(w.tuple("a")) || !ans.Contains(w.tuple("c")) {
		t.Fatalf("union answers wrong: %d", ans.Len())
	}
}

// evalBoolean evaluates a boolean UCQ (arity 0) and reports whether it
// holds.
func evalBoolean(q *logic.UCQ, in *instance.Instance) bool {
	for ci := range q.Clauses {
		c := &q.Clauses[ci]
		plan := Compile(c.Body)
		found := false
		plan.ForEach(in, func([]symtab.Value) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

func TestEvalBoolean(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	e := w.rel("E")
	q := &logic.UCQ{Name: "q", Arity: 0, Clauses: []logic.CQ{{
		Head: nil,
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("x"))},
	}}}
	if evalBoolean(q, w.in) {
		t.Fatal("boolean query true on non-matching instance")
	}
	w.add("E", "c", "c")
	if !evalBoolean(q, w.in) {
		t.Fatal("boolean query false on matching instance")
	}
}

func TestAnswersWithoutNulls(t *testing.T) {
	w := newWorld()
	e := w.rel("E")
	n := w.u.FreshNull()
	a := w.u.Const("a")
	w.in.Add(e.ID, []symtab.Value{a, n})
	w.in.Add(e.ID, []symtab.Value{a, a})
	q := &logic.UCQ{Name: "q", Arity: 2, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x"), logic.V("y")},
		Body: []logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))},
	}}}
	ans := EvalUCQ(q, w.in)
	if ans.Len() != 2 {
		t.Fatalf("q(I) = %d, want 2", ans.Len())
	}
	down := ans.WithoutNulls()
	if down.Len() != 1 || !down.Contains([]symtab.Value{a, a}) {
		t.Fatalf("q↓(I) wrong: %d", down.Len())
	}
}

func TestAnswerSetOps(t *testing.T) {
	s1, s2 := NewAnswerSet(), NewAnswerSet()
	w := newWorld()
	s1.Add(w.tuple("a"))
	s1.Add(w.tuple("b"))
	if !s1.Add(w.tuple("c")) || s1.Add(w.tuple("c")) {
		t.Fatal("Add dedup wrong")
	}
	s2.Add(w.tuple("b"))
	s2.Add(w.tuple("c"))
	got := s1.Clone().Intersect(s2)
	if got.Len() != 2 || got.Contains(w.tuple("a")) {
		t.Fatalf("Intersect wrong: %d", got.Len())
	}
	if s1.Len() != 3 {
		t.Fatal("Intersect mutated the clone source")
	}
	tuples := got.Tuples()
	if len(tuples) != 2 {
		t.Fatal("Tuples length wrong")
	}
}

func TestPlanCompileOrdersBoundFirst(t *testing.T) {
	w := newWorld()
	// E has many facts, P has one; the plan should start from P (smaller,
	// then E with a bound variable).
	for i := 0; i < 50; i++ {
		w.add("E", "x", string(rune('A'+i)))
	}
	w.add("P", "x")
	e, p := w.rel("E"), w.rel("P")
	body := []logic.Atom{
		newAtom(w.cat, e, logic.V("a"), logic.V("b")),
		newAtom(w.cat, p, logic.V("a")),
	}
	plan := Compile(body)
	if order := plan.JoinOrder(w.in); plan.base[order[0]].rel != p.ID {
		t.Fatal("plan did not start with the smaller relation")
	}
	n := 0
	plan.ForEach(w.in, func(env []symtab.Value) bool { n++; return true })
	if n != 50 {
		t.Fatalf("matches = %d, want 50", n)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	w := newWorld()
	w.add("E", "a", "b")
	w.add("E", "b", "c")
	e := w.rel("E")
	plan := Compile([]logic.Atom{newAtom(w.cat, e, logic.V("x"), logic.V("y"))})
	n := 0
	completed := plan.ForEach(w.in, func([]symtab.Value) bool { n++; return false })
	if completed || n != 1 {
		t.Fatalf("early stop failed: completed=%v n=%d", completed, n)
	}
}
