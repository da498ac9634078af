package asp

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to ParseProgram: it must either return a
// parse error or a program, never panic or hang. Accepted programs must
// re-parse after a format round trip is not required (there is no
// formatter); instead we require grounding-safety validation to be the
// only later failure mode.
func FuzzParse(f *testing.F) {
	f.Add("a | b. c :- a. c :- b.")
	f.Add("node(v1). edge(v1, v2).")
	f.Add("col(X,r) | col(X,g) :- node(X).")
	f.Add(":- edge(X,Y), col(X,C), col(Y,C).")
	f.Add("reach(Y) :- reach(X), edge(X,Y), not cut(X, Y), X != Y.")
	f.Add("p(_0). q :- p(X), X != a.")
	f.Add("% comment only")
	f.Add("a :- not b. b :- not a.")
	f.Add(".")
	f.Add("p(")
	f.Add("p(X) :- ")
	f.Add("p :- q, .")
	f.Add("Ü(x).")
	f.Add("üpred(X) :- üpred(X).")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1024 {
			return // bound parse cost; long inputs add no new shapes
		}
		prog, err := ParseProgram(text)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatal("nil program without error")
		}
	})
}

// FuzzGround parses and grounds arbitrary programs: Ground must return an
// error (unsafe rule) or a ground program, never panic. The candidate
// space of the grounder's fixpoint is consts^vars per rule, so inputs that
// could explode are skipped rather than ground.
func FuzzGround(f *testing.F) {
	f.Add("a | b. c :- a. c :- b.")
	f.Add("p(a). p(b). q(X) :- p(X).")
	f.Add("e(a,b). e(b,c). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z).")
	f.Add("p(X) :- q(X). % unsafe: q never derivable")
	f.Add("bad(X) :- not gone(X).")
	f.Add("p(a). q(X, Y) :- p(X), p(Y), X != Y.")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 512 {
			return
		}
		prog, err := ParseProgram(text)
		if err != nil {
			return
		}
		if explosive(prog) {
			return
		}
		gp, err := prog.Ground()
		if err != nil {
			return
		}
		if gp == nil {
			t.Fatal("nil ground program without error")
		}
		// A tiny solve smoke on the accepted programs: the solver must not
		// panic either. Bound effort so pathological programs stay cheap.
		if gp.NumAtoms() > 0 && gp.NumAtoms() <= 64 && gp.NumRules() <= 128 {
			s := NewStableSolver(gp)
			s.SetBudget(10_000, 10_000)
			s.NextStable()
		}
	})
}

// explosive estimates the grounder's candidate space: the number of
// constants raised to the per-rule variable count, summed over rules. A
// budget of 1e6 keeps each fuzz execution well under a second.
func explosive(prog *SymProgram) bool {
	consts := map[string]bool{}
	add := func(atoms []SymAtom) {
		for _, a := range atoms {
			for _, t := range a.Args {
				if t.Var == "" {
					consts[t.Const] = true
				}
			}
		}
	}
	add(prog.Facts)
	for _, r := range prog.Rules {
		add(r.Head)
		add(r.Pos)
		add(r.Neg)
	}
	nc := float64(len(consts))
	if nc < 2 {
		nc = 2
	}
	total := 0.0
	for _, r := range prog.Rules {
		vars := map[string]bool{}
		collect := func(atoms []SymAtom) {
			for _, a := range atoms {
				for _, t := range a.Args {
					if t.Var != "" {
						vars[t.Var] = true
					}
				}
			}
		}
		collect(r.Head)
		collect(r.Pos)
		collect(r.Neg)
		space := 1.0
		for range vars {
			space *= nc
			if space > 1e6 {
				return true
			}
		}
		total += space
		if total > 1e6 {
			return true
		}
	}
	return false
}

// TestFuzzCorpusSmoke runs the seed corpus shapes through the fuzz bodies
// once under plain `go test` (the fuzz engine only runs seeds by default,
// but being explicit keeps the guard logic covered even with -run filters).
func TestFuzzCorpusSmoke(t *testing.T) {
	for _, text := range []string{
		"a | b. c :- a. c :- b.",
		"p(a). p(b). q(X) :- p(X).",
		"p(", "Ü(x).", strings.Repeat("p(a). ", 100),
	} {
		prog, err := ParseProgram(text)
		if err != nil {
			continue
		}
		if !explosive(prog) {
			prog.Ground()
		}
	}
}
