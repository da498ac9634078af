package asp

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// bruteStableModels enumerates stable models by exhaustive search
// (reference implementation for cross-validation; exponential).
func bruteStableModels(p *GroundProgram) [][]bool {
	n := p.NumAtoms()
	if n > 20 {
		panic("bruteStableModels: too many atoms")
	}
	var models [][]bool
	for bits := 0; bits < 1<<n; bits++ {
		m := make([]bool, n)
		for i := 0; i < n; i++ {
			m[i] = bits&(1<<i) != 0
		}
		if isClassicalModel(p, m) && isMinimalModelOfReduct(p, m) {
			models = append(models, m)
		}
	}
	return models
}

func isClassicalModel(p *GroundProgram, m []bool) bool {
	for i := range p.NumFacts() {
		if !m[p.Fact(i)] {
			return false
		}
	}
	for i := range p.NumRules() {
		if !ruleSatisfied(p.Rule(i), m) {
			return false
		}
	}
	return true
}

func ruleSatisfied(r GroundRule, m []bool) bool {
	body := true
	for _, b := range r.Pos {
		if !m[b] {
			body = false
		}
	}
	for _, g := range r.Neg {
		if m[g] {
			body = false
		}
	}
	if !body {
		return true
	}
	for _, h := range r.Head {
		if m[h] {
			return true
		}
	}
	return false
}

func isMinimalModelOfReduct(p *GroundProgram, m []bool) bool {
	// Build the reduct w.r.t. m.
	var reduct []GroundRule
	for i := range p.NumRules() {
		r := p.Rule(i)
		drop := false
		for _, g := range r.Neg {
			if m[g] {
				drop = true
				break
			}
		}
		if !drop {
			reduct = append(reduct, GroundRule{Head: r.Head, Pos: r.Pos})
		}
	}
	// m must satisfy the reduct (it does if it is a classical model).
	// Check no strict subset of m satisfies facts + reduct.
	var trueAtoms []AtomID
	for a, tv := range m {
		if tv {
			trueAtoms = append(trueAtoms, AtomID(a))
		}
	}
	k := len(trueAtoms)
	for bits := 0; bits < 1<<k-1; bits++ { // all strict subsets
		sub := make([]bool, len(m))
		for i := 0; i < k; i++ {
			if bits&(1<<i) != 0 {
				sub[trueAtoms[i]] = true
			}
		}
		ok := true
		for i := range p.NumFacts() {
			if !sub[p.Fact(i)] {
				ok = false
				break
			}
		}
		if ok {
			for _, r := range reduct {
				if !ruleSatisfied(r, sub) {
					ok = false
					break
				}
			}
		}
		if ok {
			return false
		}
	}
	return true
}

func modelKey(m []bool) string {
	var b strings.Builder
	for _, tv := range m {
		if tv {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func collectStable(p *GroundProgram) map[string]bool {
	s := NewStableSolver(p)
	got := map[string]bool{}
	s.Enumerate(func(m []bool) bool {
		got[modelKey(m)] = true
		return true
	})
	return got
}

func wantStable(t *testing.T, p *GroundProgram, wantCount int) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for _, m := range bruteStableModels(p) {
		want[modelKey(m)] = true
	}
	if wantCount >= 0 && len(want) != wantCount {
		t.Fatalf("brute force found %d stable models, expected %d", len(want), wantCount)
	}
	got := collectStable(p)
	if len(got) != len(want) {
		t.Fatalf("solver found %d stable models, brute force %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("solver missed stable model %s", k)
		}
	}
	return got
}

func TestStableSimpleFactsAndRules(t *testing.T) {
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddFact(a)
	p.AddRule([]AtomID{b}, []AtomID{a}, nil) // b :- a.
	_ = c                                    // c stays false
	wantStable(t, p, 1)
	s := NewStableSolver(p)
	m := s.NextStable()
	if m == nil || !m[a] || !m[b] || m[c] {
		t.Fatalf("model = %v", m)
	}
}

func TestStableNegationChoice(t *testing.T) {
	// a :- not b.  b :- not a.  Two stable models {a}, {b}.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a}, nil, []AtomID{b})
	p.AddRule([]AtomID{b}, nil, []AtomID{a})
	wantStable(t, p, 2)
}

func TestStableNoModelOddLoop(t *testing.T) {
	// a :- not a.  No stable model.
	p := NewGroundProgram()
	a := p.Atom("a")
	p.AddRule([]AtomID{a}, nil, []AtomID{a})
	wantStable(t, p, 0)
	s := NewStableSolver(p)
	if s.NextStable() != nil {
		t.Fatal("NextStable found a model")
	}
}

func TestStableDisjunctionMinimality(t *testing.T) {
	// a | b.  Stable models {a}, {b} — not {a,b}.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a, b}, nil, nil)
	got := wantStable(t, p, 2)
	if got[modelKey([]bool{true, true})] {
		t.Fatal("non-minimal model {a,b} reported stable")
	}
}

func TestStableDisjunctionWithDependence(t *testing.T) {
	// a | b.  c :- a.  c :- b.  Models {a,c}, {b,c}.
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddRule([]AtomID{a, b}, nil, nil)
	p.AddRule([]AtomID{c}, []AtomID{a}, nil)
	p.AddRule([]AtomID{c}, []AtomID{b}, nil)
	got := wantStable(t, p, 2)
	for k := range got {
		if !strings.HasSuffix(k, "1") {
			t.Fatalf("model %s misses c", k)
		}
	}
}

func TestStableHeadCycleDisjunction(t *testing.T) {
	// a | b.  a :- b.  b :- a.  Only minimal model containing one of a,b is
	// forced up to {a,b}; is {a,b} stable? Reduct = program (no negation);
	// minimal models of the reduct: need a or b, and each implies the other,
	// so {a,b} is the unique minimal model → stable.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a, b}, nil, nil)
	p.AddRule([]AtomID{a}, []AtomID{b}, nil)
	p.AddRule([]AtomID{b}, []AtomID{a}, nil)
	wantStable(t, p, 1)
}

func TestStableConstraint(t *testing.T) {
	// a | b.  :- a.  Single stable model {b}.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a, b}, nil, nil)
	p.AddConstraint([]AtomID{a}, nil)
	got := wantStable(t, p, 1)
	want := []bool{false, true}
	if !got[modelKey(want)] {
		t.Fatal("expected model {b}")
	}
}

func TestStableNegationSupport(t *testing.T) {
	// b :- not a. a never derivable => {b} is the unique stable model;
	// {a} is a classical model of the completion-free clause form but has
	// no support, so it must be rejected.
	p := NewGroundProgram()
	p.Atom("a")
	b := p.Atom("b")
	p.AddRule([]AtomID{b}, nil, []AtomID{p.Atom("a")})
	got := wantStable(t, p, 1)
	if !got[modelKey([]bool{false, true})] {
		t.Fatal("expected {b}")
	}
}

func TestStablePositiveLoopUnsupported(t *testing.T) {
	// a :- b.  b :- a.  Unique stable model ∅.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a}, []AtomID{b}, nil)
	p.AddRule([]AtomID{b}, []AtomID{a}, nil)
	got := wantStable(t, p, 1)
	if !got[modelKey([]bool{false, false})] {
		t.Fatal("expected empty model")
	}
}

func TestCautious(t *testing.T) {
	// a | b.  c :- a.  c :- b.  Cautious: c (and not a, not b).
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddRule([]AtomID{a, b}, nil, nil)
	p.AddRule([]AtomID{c}, []AtomID{a}, nil)
	p.AddRule([]AtomID{c}, []AtomID{b}, nil)
	s := NewStableSolver(p)
	kept, hasModel := s.Cautious([]AtomID{a, b, c})
	if !hasModel {
		t.Fatal("hasModel = false")
	}
	if len(kept) != 1 || kept[0] != c {
		t.Fatalf("cautious = %v, want [c]", kept)
	}
}

func TestCautiousNoModels(t *testing.T) {
	p := NewGroundProgram()
	a := p.Atom("a")
	p.AddRule([]AtomID{a}, nil, []AtomID{a})
	s := NewStableSolver(p)
	kept, hasModel := s.Cautious([]AtomID{a})
	if hasModel {
		t.Fatal("hasModel = true for model-free program")
	}
	if len(kept) != 1 {
		t.Fatal("vacuous cautious semantics violated")
	}
}

func TestCautiousAllKept(t *testing.T) {
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddFact(a)
	p.AddRule([]AtomID{b}, []AtomID{a}, nil)
	s := NewStableSolver(p)
	kept, hasModel := s.Cautious([]AtomID{a, b})
	if !hasModel || len(kept) != 2 {
		t.Fatalf("cautious = %v hasModel=%v", kept, hasModel)
	}
}

func TestEnumerateLimit(t *testing.T) {
	// Three independent choices: 8 stable models; stop after 3.
	p := NewGroundProgram()
	for i := 0; i < 3; i++ {
		a := p.AnonAtom()
		b := p.AnonAtom()
		p.AddRule([]AtomID{a, b}, nil, nil)
	}
	s := NewStableSolver(p)
	n := 0
	s.Enumerate(func(m []bool) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("enumerated %d, want 3", n)
	}
	s2 := NewStableSolver(p)
	total := s2.Enumerate(func([]bool) bool { return true })
	if total != 8 {
		t.Fatalf("total models = %d, want 8", total)
	}
}

func TestStableRandomProgramsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nAtoms := 2 + rng.Intn(5) // 2..6
		p := NewGroundProgram()
		atoms := make([]AtomID, nAtoms)
		for i := range atoms {
			atoms[i] = p.AnonAtom()
		}
		nRules := 1 + rng.Intn(6)
		for i := 0; i < nRules; i++ {
			pick := func(max int) []AtomID {
				k := rng.Intn(max + 1)
				out := make([]AtomID, 0, k)
				for j := 0; j < k; j++ {
					out = append(out, atoms[rng.Intn(nAtoms)])
				}
				return out
			}
			head := pick(2)
			pos := pick(2)
			neg := pick(2)
			p.AddRule(head, pos, neg)
		}
		if rng.Intn(2) == 0 {
			p.AddFact(atoms[rng.Intn(nAtoms)])
		}

		want := map[string]bool{}
		for _, m := range bruteStableModels(p) {
			want[modelKey(m)] = true
		}
		got := collectStable(p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: solver %d models, brute %d\nprogram:\n%s", trial, len(got), len(want), p.String())
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing model %s\nprogram:\n%s", trial, k, p.String())
			}
		}
	}
}

// braveLoopProgram pins a normal program on which one-shot Brave once never
// returned: the SAT model {a, b, w} repairs itself to the stable model {w},
// which misses every candidate the progress clause asked for, so without a
// block the search found {a, b, w} again forever.
const braveLoopProgram = `a :- b. b :- a. a :- z. z :- not w. w :- not z. :- z.`

// querier is a query scope: a StableSolver (its root scope) or a Session.
type querier interface {
	Cautious(candidates []AtomID) ([]AtomID, bool)
	Brave(candidates []AtomID) ([]AtomID, bool)
}

// scopeAnswer is one query's result in one scope.
type scopeAnswer struct {
	scope    string
	atoms    []AtomID
	hasModel bool
}

// inScopes answers one query about p in every query scope: the root scope
// of one solver, then two child sessions opened one after the other on a
// second solver, so the second session runs on whatever the first left
// behind. The solvers run under a deadline, so a search that never ends
// fails the test instead of hanging it.
func inScopes(t *testing.T, p *GroundProgram, query func(querier) ([]AtomID, bool)) []scopeAnswer {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	solver := func() *StableSolver {
		s := NewStableSolver(p)
		s.SetContext(ctx)
		return s
	}
	finished := func(s *StableSolver, scope string) {
		if s.Canceled() {
			t.Fatalf("%s: search did not finish before its deadline\nprogram:\n%s", scope, p.String())
		}
	}
	root := solver()
	atoms, hasModel := query(root)
	finished(root, "root")
	out := []scopeAnswer{{"root", atoms, hasModel}}
	shared := solver()
	for _, scope := range []string{"session 1", "session 2"} {
		sess := shared.StartSession(nil)
		atoms, hasModel := query(sess)
		sess.Close()
		finished(shared, scope)
		out = append(out, scopeAnswer{scope, atoms, hasModel})
	}
	return out
}

// queryPrograms returns the programs the brute-force query tests run on:
// the pinned braveLoopProgram, 100 random programs mixing normal and
// disjunctive rules, and 1000 random normal programs with a positive loop.
func queryPrograms(t *testing.T, seed int64) []*GroundProgram {
	t.Helper()
	prog, err := ParseProgram(braveLoopProgram)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := prog.Ground()
	if err != nil {
		t.Fatal(err)
	}
	out := []*GroundProgram{pinned}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 100; trial++ {
		nAtoms := 2 + rng.Intn(5)
		p := NewGroundProgram()
		atoms := make([]AtomID, nAtoms)
		for i := range atoms {
			atoms[i] = p.AnonAtom()
		}
		for i := 0; i < 1+rng.Intn(6); i++ {
			pick := func(max int) []AtomID {
				k := rng.Intn(max + 1)
				out := make([]AtomID, 0, k)
				for j := 0; j < k; j++ {
					out = append(out, atoms[rng.Intn(nAtoms)])
				}
				return out
			}
			p.AddRule(pick(2), pick(2), pick(2))
		}
		out = append(out, p)
	}
	for trial := 0; trial < 1000; trial++ {
		out = append(out, randomLoopProgram(rng))
	}
	return out
}

// randomLoopProgram draws a normal program over 3..6 atoms whose first two
// atoms support each other positively. A SAT model holding such a loop
// with nothing else supporting it repairs itself to a stable model without
// it: the shape on which brave search can stall.
func randomLoopProgram(rng *rand.Rand) *GroundProgram {
	nAtoms := 3 + rng.Intn(4)
	p := NewGroundProgram()
	atoms := make([]AtomID, nAtoms)
	for i := range atoms {
		atoms[i] = p.AnonAtom()
	}
	pick := func(max int) []AtomID {
		out := make([]AtomID, rng.Intn(max+1))
		for j := range out {
			out[j] = atoms[rng.Intn(nAtoms)]
		}
		return out
	}
	p.AddRule(atoms[:1], atoms[1:2], nil)
	p.AddRule(atoms[1:2], atoms[:1], nil)
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		p.AddRule(pick(1), pick(2), pick(2))
	}
	return p
}

func allAtoms(p *GroundProgram) []AtomID {
	atoms := make([]AtomID, p.NumAtoms())
	for i := range atoms {
		atoms[i] = AtomID(i)
	}
	return atoms
}

func TestCautiousAgainstBruteForce(t *testing.T) {
	for trial, p := range queryPrograms(t, 99) {
		atoms := allAtoms(p)
		models := bruteStableModels(p)
		wantCautious := map[AtomID]bool{}
		for _, a := range atoms {
			inAll := true
			for _, m := range models {
				if !m[a] {
					inAll = false
					break
				}
			}
			if inAll {
				wantCautious[a] = true
			}
		}
		for _, got := range inScopes(t, p, func(q querier) ([]AtomID, bool) { return q.Cautious(atoms) }) {
			if got.hasModel != (len(models) > 0) {
				t.Fatalf("trial %d, %s: hasModel=%v, brute models=%d", trial, got.scope, got.hasModel, len(models))
			}
			gotSet := map[AtomID]bool{}
			for _, a := range got.atoms {
				gotSet[a] = true
			}
			if len(models) > 0 {
				for _, a := range atoms {
					if gotSet[a] != wantCautious[a] {
						t.Fatalf("trial %d, %s: atom %d cautious=%v want %v\nprogram:\n%s",
							trial, got.scope, a, gotSet[a], wantCautious[a], p.String())
					}
				}
			}
		}
	}
}

func TestProgramString(t *testing.T) {
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddFact(a)
	p.AddRule([]AtomID{b, c}, []AtomID{a}, []AtomID{c})
	out := p.String()
	wantLines := []string{"a.", "b | c :- a, not c."}
	gotLines := strings.Split(out, "\n")
	sort.Strings(wantLines)
	if len(gotLines) != 2 || gotLines[0] != wantLines[0] || gotLines[1] != wantLines[1] {
		t.Fatalf("program string:\n%s", out)
	}
	if !strings.Contains(p.Stats(), "3 atoms") {
		t.Fatalf("stats: %s", p.Stats())
	}
}

func TestBrave(t *testing.T) {
	// a | b.  c :- a.  c :- b.  Brave: a, b, c all appear in some model.
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddRule([]AtomID{a, b}, nil, nil)
	p.AddRule([]AtomID{c}, []AtomID{a}, nil)
	p.AddRule([]AtomID{c}, []AtomID{b}, nil)
	s := NewStableSolver(p)
	brave, hasModel := s.Brave([]AtomID{a, b, c})
	if !hasModel || len(brave) != 3 {
		t.Fatalf("brave = %v hasModel=%v", brave, hasModel)
	}
}

func TestBraveExcludesImpossible(t *testing.T) {
	// a :- not b.  b :- not a.  :- b.   Only model {a}; b not brave.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a}, nil, []AtomID{b})
	p.AddRule([]AtomID{b}, nil, []AtomID{a})
	p.AddConstraint([]AtomID{b}, nil)
	s := NewStableSolver(p)
	brave, hasModel := s.Brave([]AtomID{a, b})
	if !hasModel || len(brave) != 1 || brave[0] != a {
		t.Fatalf("brave = %v", brave)
	}
}

func TestBraveNoModels(t *testing.T) {
	p := NewGroundProgram()
	a := p.Atom("a")
	p.AddRule([]AtomID{a}, nil, []AtomID{a})
	s := NewStableSolver(p)
	brave, hasModel := s.Brave([]AtomID{a})
	if hasModel || len(brave) != 0 {
		t.Fatalf("brave = %v hasModel=%v", brave, hasModel)
	}
}

func TestBraveAgainstBruteForce(t *testing.T) {
	for trial, p := range queryPrograms(t, 55) {
		atoms := allAtoms(p)
		models := bruteStableModels(p)
		wantBrave := map[AtomID]bool{}
		for _, m := range models {
			for _, a := range atoms {
				if m[a] {
					wantBrave[a] = true
				}
			}
		}
		for _, got := range inScopes(t, p, func(q querier) ([]AtomID, bool) { return q.Brave(atoms) }) {
			if got.hasModel != (len(models) > 0) {
				t.Fatalf("trial %d, %s: hasModel=%v models=%d", trial, got.scope, got.hasModel, len(models))
			}
			gotSet := map[AtomID]bool{}
			for _, a := range got.atoms {
				gotSet[a] = true
			}
			for _, a := range atoms {
				if gotSet[a] != wantBrave[a] {
					t.Fatalf("trial %d, %s: atom %d brave=%v want %v\nprogram:\n%s",
						trial, got.scope, a, gotSet[a], wantBrave[a], p.String())
				}
			}
		}
	}
}

func TestAcceptorOnNormalProgram(t *testing.T) {
	// Choice between a and b; the acceptor rejects models containing a by
	// learning ¬a, leaving exactly the b-model.
	p := NewGroundProgram()
	a, b := p.Atom("a"), p.Atom("b")
	p.AddRule([]AtomID{a}, nil, []AtomID{b})
	p.AddRule([]AtomID{b}, nil, []AtomID{a})
	s := NewStableSolver(p)
	s.Acceptor = func(m []bool) [][]Lit {
		if m[a] {
			return [][]Lit{{s.AtomLit(a, false)}}
		}
		return nil
	}
	n := s.Enumerate(func(m []bool) bool {
		if m[a] || !m[b] {
			t.Fatal("rejected model returned")
		}
		return true
	})
	if n != 1 {
		t.Fatalf("models = %d, want 1", n)
	}
	if s.TheoryRejects == 0 {
		t.Fatal("acceptor never rejected")
	}
}

func TestAcceptorOnDisjunctiveProgram(t *testing.T) {
	// a | b | c. Reject any model containing c.
	p := NewGroundProgram()
	a, b, c := p.Atom("a"), p.Atom("b"), p.Atom("c")
	p.AddRule([]AtomID{a, b, c}, nil, nil)
	s := NewStableSolver(p)
	s.Acceptor = func(m []bool) [][]Lit {
		if m[c] {
			return [][]Lit{{s.AtomLit(c, false)}}
		}
		return nil
	}
	seen := map[AtomID]bool{}
	s.Enumerate(func(m []bool) bool {
		for _, x := range []AtomID{a, b, c} {
			if m[x] {
				seen[x] = true
			}
		}
		return true
	})
	if seen[c] || !seen[a] || !seen[b] {
		t.Fatalf("seen = %v", seen)
	}
}
