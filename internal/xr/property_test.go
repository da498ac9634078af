package xr

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/chase"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/testkit"
)

// IsSuspect reports whether a source fact is suspect (Definition 5).
func (ex *Exchange) IsSuspect(f instance.Fact) bool {
	id, ok := ex.Prov.FactIDOf(f)
	return ok && ex.suspect[id]
}

// TestSourceRepairProperties checks Definition 1's invariants on random
// inputs: every repair is a consistent sub-instance, maximal, and the
// repairs are pairwise incomparable; the suspect envelope contains every
// deletion (Proposition 3).
func TestSourceRepairProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 40; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%3 == 0, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 4+rng.Intn(5), 3)
		repairs, err := SourceRepairs(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(repairs) == 0 {
			t.Fatalf("trial %d: no repairs (∅ is always consistent)", trial)
		}
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for ri, rep := range repairs {
			if !rep.SubInstanceOf(src) {
				t.Fatalf("trial %d repair %d: not a sub-instance", trial, ri)
			}
			if !chase.HasSolution(w.M, rep) {
				t.Fatalf("trial %d repair %d: inconsistent", trial, ri)
			}
			// Maximality: adding back any omitted fact breaks consistency.
			for _, f := range src.Facts() {
				if rep.Contains(f.Rel, f.Args) {
					continue
				}
				bigger := rep.Clone()
				bigger.AddFact(f)
				if chase.HasSolution(w.M, bigger) {
					t.Fatalf("trial %d repair %d: not maximal (can re-add %s)",
						trial, ri, f.String(w.Cat, w.U))
				}
				// Envelope soundness: every deleted fact is suspect.
				if !ex.IsSuspect(f) {
					t.Fatalf("trial %d repair %d: deleted fact %s not in I_suspect",
						trial, ri, f.String(w.Cat, w.U))
				}
			}
			// Pairwise incomparability.
			for rj, other := range repairs {
				if ri != rj && rep.SubInstanceOf(other) {
					t.Fatalf("trial %d: repair %d ⊆ repair %d", trial, ri, rj)
				}
			}
		}
		// Consistent instances have exactly one repair: the instance itself.
		if ex.Consistent() {
			if len(repairs) != 1 || !repairs[0].Equal(src) {
				t.Fatalf("trial %d: consistent instance with %d repairs", trial, len(repairs))
			}
		}
	}
}

// TestXRCertainEqualsCertainOnConsistent: on consistent instances,
// XR-Certain coincides with the ordinary certain answers q↓(chase(I)).
func TestXRCertainEqualsCertainOnConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 3+rng.Intn(5), 3)
		if !chase.HasSolution(w.M, src) {
			continue
		}
		checked++
		q := testkit.RandomQuery(rng, w, "q")
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := ex.Answer(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := BruteForce(w.M, src, []*logic.UCQ{q})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Answers.Len() != want[0].Answers.Len() {
			t.Fatalf("trial %d: xr=%d certain=%d", trial, got.Answers.Len(), want[0].Answers.Len())
		}
		// On a consistent instance, no candidate should need the solver.
		if got.Stats.SolverAccepted != 0 || got.Stats.Programs != 0 {
			t.Fatalf("trial %d: solver engaged on consistent instance: %+v", trial, got.Stats)
		}
	}
	if checked < 10 {
		t.Fatalf("too few consistent trials: %d", checked)
	}
}

// TestExchangeClusterInvariants: clusters partition the violations, their
// source envelopes are pairwise disjoint (that is what justifies
// independence, Proposition 5), and every suspect fact belongs to exactly
// the envelopes of its clusters.
func TestExchangeClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 40; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 5+rng.Intn(6), 3)
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := map[int]bool{}
		total := 0
		for ci, c := range ex.Clusters {
			total += len(c.Violations)
			for _, vi := range c.Violations {
				if seen[vi] {
					t.Fatalf("trial %d: violation %d in two clusters", trial, vi)
				}
				seen[vi] = true
			}
			for cj, other := range ex.Clusters {
				if ci >= cj {
					continue
				}
				for f := range c.SourceEnvelope {
					if other.SourceEnvelope[f] {
						t.Fatalf("trial %d: clusters %d and %d share source fact", trial, ci, cj)
					}
				}
			}
			// The envelope is inside the influence.
			for f := range c.SourceEnvelope {
				if !c.Influence[f] {
					t.Fatalf("trial %d: envelope fact outside influence", trial)
				}
			}
		}
		if total != ex.Stats.Violations {
			t.Fatalf("trial %d: clusters cover %d of %d violations", trial, total, ex.Stats.Violations)
		}
	}
}

// TestMonolithicTimeout: an absurdly small timeout must surface ErrTimeout
// without corrupting later queries.
func TestMonolithicTimeout(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	for i := 0; i < 30; i++ {
		w.add(aRel, key(i), "5")
		w.add(bRel, key(i), "6")
	}
	res, err := Monolithic(w.m, w.src, []*logic.UCQ{w.queryT()}, Options{Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", res[0].Err)
	}
}

func key(i int) string { return string(rune('a'+i%26)) + strconv.Itoa(i) }
