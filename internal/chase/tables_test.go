package chase

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gavreduce"
	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/testkit"
)

// chaseKeepingLog runs the semi-naive GAV chase of src to the end of its
// fixpoint, copies the support log, and then finishes the provenance.
func chaseKeepingLog(t *testing.T, m *mapping.Mapping, src *instance.Instance) (*Provenance, supportLog) {
	t.Helper()
	p, execs, err := startGAV(m, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.fixpoint(execs, &Stats{}); err != nil {
		t.Fatal(err)
	}
	log := supportLog{fact: slices.Clone(p.log.fact), end: slices.Clone(p.log.end), ids: slices.Clone(p.log.ids)}
	p.finish()
	return p, log
}

// recordedTables replays a support log the direct way: derivation by
// derivation, a set its fact already has is skipped, any other is appended
// to the fact's sets, and each of its members gains a reverse hyperedge.
func recordedTables(n int, log supportLog) ([][][]FactID, [][]SupportRef) {
	supports := make([][][]FactID, n)
	usedIn := make([][]SupportRef, n)
	lo := int32(0)
	for e, f := range log.fact {
		set := log.ids[lo:log.end[e]]
		lo = log.end[e]
		if slices.ContainsFunc(supports[f], func(s []FactID) bool { return slices.Equal(s, set) }) {
			continue
		}
		ref := SupportRef{Fact: f, Set: int32(len(supports[f]))}
		supports[f] = append(supports[f], set)
		for _, g := range set {
			usedIn[g] = append(usedIn[g], ref)
		}
	}
	return supports, usedIn
}

// checkTables asserts that Supports and the reverse hyperedges equal the
// direct replay of the log, in order, and that usedIn is exactly the
// inverse of Supports: every reference names a set holding the fact, once
// per occurrence.
func checkTables(t *testing.T, label string, p *Provenance, log supportLog) {
	t.Helper()
	supports, usedIn := recordedTables(p.NumFacts(), log)
	occurrences := make([]int, p.NumFacts())
	for id := 0; id < p.NumFacts(); id++ {
		f := FactID(id)
		got := p.Supports(f)
		if len(got) != len(supports[f]) {
			t.Fatalf("%s: fact %d has %d support sets, replay %d", label, f, len(got), len(supports[f]))
		}
		for si, set := range got {
			if !slices.Equal(set, supports[f][si]) {
				t.Fatalf("%s: fact %d set %d is %v, replay %v", label, f, si, set, supports[f][si])
			}
			for _, g := range set {
				occurrences[g]++
			}
		}
	}
	for id := 0; id < p.NumFacts(); id++ {
		g := FactID(id)
		refs := p.usedBy(g)
		if !slices.Equal(refs, usedIn[g]) {
			t.Fatalf("%s: usedIn of fact %d is %v, replay %v", label, g, refs, usedIn[g])
		}
		if len(refs) != occurrences[g] {
			t.Fatalf("%s: fact %d occurs %d times in support sets but has %d references", label, g, occurrences[g], len(refs))
		}
		for _, ref := range refs {
			if !slices.Contains(p.Supports(ref.Fact)[ref.Set], g) {
				t.Fatalf("%s: reference %+v of fact %d names a set without it", label, ref, g)
			}
		}
	}
}

// TestUsedInInvertsSupports checks the support tables that finish builds
// against a direct replay of the chase's derivations, on genome S/M chases,
// on random mappings, and on cross products, where each pair of distinct
// source facts derives the head twice (once per order), so finish must
// drop every second derivation of a pair and keep the first.
func TestUsedInInvertsSupports(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		w := newTW()
		r := w.srcRel("R", 1)
		pair := w.tgtRel("Pair", 0)
		w.m.ST = []*logic.TGD{{
			Body: []logic.Atom{logic.NewAtom(w.cat, r, logic.V("x")), logic.NewAtom(w.cat, r, logic.V("y"))},
			Head: []logic.Atom{logic.NewAtom(w.cat, pair)},
		}}
		for i := 0; i < n; i++ {
			w.add(r, fmt.Sprint(i))
		}
		p, log := chaseKeepingLog(t, w.m, w.src)
		checkTables(t, fmt.Sprintf("cross product of %d", n), p, log)
		id, _ := p.FactIDOf(instance.Fact{Rel: pair.ID})
		if got, want := len(p.Supports(id)), n*(n+1)/2; got != want || len(log.fact) != n*n {
			t.Fatalf("cross product of %d: %d sets from %d derivations, want %d from %d", n, got, len(log.fact), want, n*n)
		}
	}

	w, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []genome.Profile{
		{Name: "S20", Transcripts: 35, SuspectRate: 0.20, Seed: 9301},
		{Name: "M9", Transcripts: 360, SuspectRate: 0.09, Seed: 9302},
	} {
		if testing.Short() && prof.Transcripts > 100 {
			continue
		}
		p, log := chaseKeepingLog(t, red.M, genome.Generate(w, prof))
		checkTables(t, prof.Name, p, log)
	}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(5150 + trial)))
		rw := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1 + trial%3, Egds: trial % 2})
		if !rw.M.IsGAV() {
			continue
		}
		src := testkit.RandomInstance(rng, rw, 5+rng.Intn(10), 3)
		p, log := chaseKeepingLog(t, rw.M, src)
		checkTables(t, fmt.Sprintf("random trial %d", trial), p, log)
	}
}
