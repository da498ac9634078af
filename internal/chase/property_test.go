package chase

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/instance"
	"repro/internal/symtab"
	"repro/internal/testkit"
)

// TestChaseMonotonicityProperty checks the paper's "monotonicity of the
// chase": for glav+wa-glav mappings without egds, I' ⊆ I implies
// chase(I') ⊆ chase(I).
func TestChaseMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1, Egds: 1})
		w.M.TEgds = nil // monotonicity is stated for tgd-only mappings
		full := testkit.RandomInstance(rng, w, 6+rng.Intn(4), 3)

		// Random sub-instance.
		sub := instance.New(w.Cat)
		for _, f := range full.Facts() {
			if rng.Intn(2) == 0 {
				sub.AddFact(f)
			}
		}
		// Compare via the reduced GAV chase (deterministic, no nulls), which
		// decides derivability of ground target facts.
		jFull, err := Native(w.M, full)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		jSub, err := Native(w.M, sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Null-free facts of chase(sub) must appear in chase(full); facts
		// with nulls must have a homomorphic image (we check the null-free
		// ones, which is the certain-answer-relevant half).
		for _, f := range jSub.Facts() {
			if slices.ContainsFunc(f.Args, symtab.Value.IsNull) {
				continue
			}
			if !jFull.Contains(f.Rel, f.Args) {
				t.Fatalf("trial %d: chase not monotone on %s", trial, f.String(w.Cat, w.U))
			}
		}
	}
}

// TestGAVChaseDeterministic: chasing the same instance twice yields the
// same facts and the same violation count.
func TestGAVChaseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
	src := testkit.RandomInstance(rng, w, 8, 3)
	p1, err := GAV(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GAV(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Instance.Equal(p2.Instance) {
		t.Fatal("GAV chase nondeterministic in facts")
	}
	if len(p1.Violations) != len(p2.Violations) {
		t.Fatal("GAV chase nondeterministic in violations")
	}
}

// TestSupportClosureMonotone: the support closure of a superset of seeds
// contains the closure of the seeds (quick-checked over random seed picks).
func TestSupportClosureMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
	src := testkit.RandomInstance(rng, w, 10, 3)
	prov, err := GAV(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	n := prov.NumFacts()
	if n == 0 {
		t.Skip("empty chase")
	}
	f := func(seedBits, extraBits uint16) bool {
		var small, big []FactID
		for i := 0; i < n && i < 16; i++ {
			if seedBits&(1<<i) != 0 {
				small = append(small, FactID(i))
				big = append(big, FactID(i))
			} else if extraBits&(1<<i) != 0 {
				big = append(big, FactID(i))
			}
		}
		cs := prov.SupportClosure(small)
		cb := prov.SupportClosure(big)
		for g := range cs {
			if !cb[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInfluenceDualToClosure: g ∈ SupportClosure({f}) iff f ∈ Influence({g})
// — influence is the reverse reachability of the closure.
func TestInfluenceDualToClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
	src := testkit.RandomInstance(rng, w, 10, 3)
	prov, err := GAV(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	n := prov.NumFacts()
	for i := 0; i < n; i++ {
		closure := prov.SupportClosure([]FactID{FactID(i)})
		for g := range closure {
			infl := prov.Influence(map[FactID]bool{g: true})
			if !infl[FactID(i)] {
				t.Fatalf("duality violated: %d in closure of %d but %d not influenced by %d", g, i, i, g)
			}
		}
	}
}

// TestSafeDerivableSubsetOfAll: excluding facts can only shrink the
// derivable set, and excluding nothing derives everything.
func TestSafeDerivableSubsetOfAll(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
	src := testkit.RandomInstance(rng, w, 10, 3)
	prov, err := GAV(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	all := prov.SafeDerivable(nil)
	if got := countTrue(all); got != prov.NumFacts() {
		t.Fatalf("derivable-with-nothing-excluded = %d, want all %d", got, prov.NumFacts())
	}
	n := prov.NumFacts()
	f := func(bits uint16) bool {
		excl := make([]bool, n)
		for i := 0; i < n && i < 16; i++ {
			if bits&(1<<i) != 0 {
				excl[i] = true
			}
		}
		d := prov.SafeDerivable(excl)
		for g, ok := range d {
			if ok && (excl[g] || !all[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
