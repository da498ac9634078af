package xr

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/logic"
	"repro/internal/testkit"
)

func TestPossibleKeyConflict(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	w.add(aRel, "t1", "5")
	w.add(bRel, "t1", "6")
	w.add(aRel, "t2", "7")

	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	q := w.queryT()

	certain, err := ex.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	possible, err := ex.Possible(q)
	if err != nil {
		t.Fatal(err)
	}
	// Certain: only (t2,7). Possible: both disputed values plus (t2,7).
	if certain.Answers.Len() != 1 {
		t.Fatalf("certain = %v", certain.Answers.Tuples())
	}
	if possible.Answers.Len() != 3 ||
		!possible.Answers.Contains(w.vals("t1", "5")) ||
		!possible.Answers.Contains(w.vals("t1", "6")) ||
		!possible.Answers.Contains(w.vals("t2", "7")) {
		t.Fatalf("possible = %v", possible.Answers.Tuples())
	}
}

func TestPossibleSupersetOfCertain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 3+rng.Intn(5), 3)
		q := testkit.RandomQuery(rng, w, "q")
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		certain, err := ex.Answer(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		possible, err := ex.Possible(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tup := range certain.Answers.Tuples() {
			if !possible.Answers.Contains(tup) {
				t.Fatalf("trial %d: certain answer not possible", trial)
			}
		}
	}
}

func TestPossibleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 40; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 3+rng.Intn(5), 3)
		queries := []*logic.UCQ{testkit.RandomQuery(rng, w, "q")}

		want, err := BruteForcePossible(w.M, src, queries)
		if err != nil {
			t.Fatalf("trial %d: brute: %v", trial, err)
		}
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := ex.Possible(queries[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Answers.Len() != want[0].Answers.Len() {
			t.Fatalf("trial %d: possible=%d brute=%d\nquery: %s\nsource:\n%s",
				trial, got.Answers.Len(), want[0].Answers.Len(),
				queries[0].String(w.Cat, w.U), src.String(w.U))
		}
		for _, tup := range want[0].Answers.Tuples() {
			if !got.Answers.Contains(tup) {
				t.Fatalf("trial %d: missing possible tuple", trial)
			}
		}
	}
}

func TestPossibleOnConsistentEqualsCertain(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	w.add(aRel, "t1", "5")
	w.add(aRel, "t2", "7")
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	q := w.queryT()
	certain, _ := ex.Answer(q)
	possible, err := ex.Possible(q)
	if err != nil {
		t.Fatal(err)
	}
	if possible.Answers.Len() != certain.Answers.Len() {
		t.Fatalf("consistent instance: possible %d != certain %d",
			possible.Answers.Len(), certain.Answers.Len())
	}
}

// TestRepairsMatchBruteForce: the solver-backed repair enumeration returns
// exactly the repairs found by exhaustive search.
func TestRepairsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
	for trial := 0; trial < 30; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 4+rng.Intn(5), 3)
		want, err := SourceRepairs(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := ex.Repairs(0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: solver %d repairs, brute %d", trial, len(got), len(want))
		}
		for _, g := range got {
			found := false
			for _, wnt := range want {
				if g.Equal(wnt) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: solver produced a non-repair", trial)
			}
		}
	}
}

// TestRepairsLimit stops the enumeration early.
func TestRepairsLimit(t *testing.T) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	for i := 0; i < 4; i++ {
		name := "t" + strconv.Itoa(i)
		w.add(aRel, name, "1")
		w.add(bRel, name, "2")
	}
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.Repairs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limited repairs = %d, want 3", len(got))
	}
	all, err := ex.Repairs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 16 {
		t.Fatalf("total repairs = %d, want 2^4 = 16", len(all))
	}
}
