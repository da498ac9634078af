package xr

import (
	"slices"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
)

// TestSignatureProgramViolations checks what newSigProgram and the suspect
// closure rely on, for every signature program a certain and a possible
// pass build over the memo scenarios and the genome-read shape:
//
//   - the violations a program is built from, its clusters' violations,
//     are exactly those its variable and safe facts cover, as found by a
//     scan of every violation of the exchange;
//   - the support closure of those violations, followed through covered
//     support sets, holds no safe fact, and its source facts are the
//     program's deletable facts.
func TestSignatureProgramViolations(t *testing.T) {
	var programs, violations int
	check := func(name string, ex *Exchange, queries []*logic.UCQ) {
		for _, brave := range []bool{false, true} {
			for _, q := range queries {
				if _, err := ex.query(q, brave, Options{}); err != nil {
					t.Fatalf("%s %s: %v", name, q.Name, err)
				}
			}
		}
		for key, sp := range cachedEntries[*sigProgram](ex) {
			e := sp.enc
			if want := coveredViolations(ex, e); !slices.Equal(e.violations, want) {
				t.Fatalf("%s {%s}: built from violations %v, covers %v", name, key, e.violations, want)
			}
			var deletable []chase.FactID
			for _, l := range e.deletable {
				deletable = append(deletable, e.vars[l])
			}
			if got := suspectSourcesByScan(t, ex, e); !slices.Equal(got, deletable) {
				t.Fatalf("%s {%s}: suspect closure has sources %v, deletable facts are %v", name, key, got, deletable)
			}
			programs++
			violations += len(e.violations)
		}
	}
	for _, sc := range memoScenarios(t) {
		ex, err := NewExchange(sc.m, sc.src)
		if err != nil {
			t.Fatal(err)
		}
		check(sc.name, ex, sc.queries)
	}
	ex, queries := genomeShape(t, readProfile, Options{})
	check("genome-read", ex, queries)
	t.Logf("%d programs, %d violations", programs, violations)
	if violations == 0 {
		t.Fatal("no program has a violation; the check tests nothing")
	}
}

// outsideWorld reports whether fact f is neither a variable fact of the
// program nor safe.
func outsideWorld(ex *Exchange, e *encoder, f chase.FactID) bool {
	_, variable := slices.BinarySearch(e.vars, f)
	return !variable && !ex.safeDerivable[f]
}

// coveredViolations scans every violation of the exchange and keeps those
// whose body has no fact outside the program's variable and safe facts.
func coveredViolations(ex *Exchange, e *encoder) []int {
	var out []int
	for vi, v := range ex.Prov.Violations {
		if !slices.ContainsFunc(v.Body, func(f chase.FactID) bool { return outsideWorld(ex, e, f) }) {
			out = append(out, vi)
		}
	}
	return out
}

// suspectSourcesByScan computes the support closure of the program's
// violations by FactID, following the support sets whose facts are all
// variable or safe, fails if it meets a safe fact, and returns its source
// facts, ascending.
func suspectSourcesByScan(t *testing.T, ex *Exchange, e *encoder) []chase.FactID {
	t.Helper()
	closure := map[chase.FactID]bool{}
	var stack []chase.FactID
	push := func(set []chase.FactID) {
		for _, f := range set {
			if !closure[f] {
				closure[f] = true
				stack = append(stack, f)
			}
		}
	}
	for _, vi := range e.violations {
		push(ex.Prov.Violations[vi].Body)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range ex.Prov.Supports(f) {
			if !slices.ContainsFunc(set, func(g chase.FactID) bool { return outsideWorld(ex, e, g) }) {
				push(set)
			}
		}
	}
	var sources []chase.FactID
	for f := range closure {
		if ex.safeDerivable[f] {
			t.Fatalf("safe fact %d in the support closure of violations %v", f, e.violations)
		}
		if ex.Prov.IsSource(f) {
			sources = append(sources, f)
		}
	}
	slices.Sort(sources)
	return sources
}
