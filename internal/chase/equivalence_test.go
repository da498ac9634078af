package chase

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/gavreduce"
	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/testkit"
)

// The naive reference drivers below run the production rule evaluators as
// the textbook naive fixpoint: before every round each rule's watermark
// and started flag are cleared, so every evaluation enumerates the whole
// instance, and the chase stops after a round that adds nothing.

// naiveNative is the naive reference for NativeWithOptions.
func naiveNative(m *mapping.Mapping, src *instance.Instance) (*instance.Instance, error) {
	st := &Stats{}
	work := src.Clone()
	var tgds []*tgdExec
	for _, d := range m.AllTgds() {
		tgds = append(tgds, compileTGD(d))
	}
	var egds []*egdExec
	for _, d := range m.TEgds {
		egds = append(egds, compileEGD(d))
	}
	for round := 0; round <= maxRounds; round++ {
		changed := false
		for _, te := range tgds {
			te.watermark, te.started = 0, false
			_, added := te.apply(work, m.U, st)
			changed = changed || added
		}
		for _, ee := range egds {
			ee.watermark, ee.started = 0, false
		}
		_, merged, err := applyEGDs(egds, work, st)
		if err != nil {
			return nil, err
		}
		if !changed && !merged {
			return work, nil
		}
	}
	return nil, fmt.Errorf("naive chase did not terminate after %d rounds", maxRounds)
}

// naiveGAV is the naive reference for GAVWithOptions.
func naiveGAV(m *mapping.Mapping, src *instance.Instance, st *Stats) (*Provenance, error) {
	p, execs, err := startGAV(m, src)
	if err != nil {
		return nil, err
	}
	for round := 0; round <= maxRounds; round++ {
		st.Rounds++
		grew := false
		for _, ge := range execs {
			ge.watermark, ge.started = 0, false
			_, added := p.applyGAVTGD(ge, st)
			grew = grew || added
		}
		if !grew {
			p.findViolations()
			return p, nil
		}
	}
	return nil, fmt.Errorf("naive GAV chase did not terminate after %d rounds", maxRounds)
}

// provEqual asserts byte-identical provenance output between the semi-naive
// chase and the naive reference: same facts in the same interning order,
// same source flags, same support sets in the same order, and same
// violations.
func provEqual(t *testing.T, label string, a, b *Provenance) {
	t.Helper()
	if a.NumFacts() != b.NumFacts() {
		t.Fatalf("%s: fact counts differ: %d vs %d", label, a.NumFacts(), b.NumFacts())
	}
	for id := 0; id < a.NumFacts(); id++ {
		f := FactID(id)
		fa, fb := a.Fact(f), b.Fact(f)
		if fa.Rel != fb.Rel || len(fa.Args) != len(fb.Args) {
			t.Fatalf("%s: fact %d differs: %v vs %v", label, id, fa, fb)
		}
		for i := range fa.Args {
			if fa.Args[i] != fb.Args[i] {
				t.Fatalf("%s: fact %d args differ: %v vs %v", label, id, fa, fb)
			}
		}
		if a.IsSource(f) != b.IsSource(f) {
			t.Fatalf("%s: fact %d source flag differs", label, id)
		}
		sa, sb := a.Supports(f), b.Supports(f)
		if len(sa) != len(sb) {
			t.Fatalf("%s: fact %d has %d vs %d support sets", label, id, len(sa), len(sb))
		}
		for si := range sa {
			if !factIDsEqual(sa[si], sb[si]) {
				t.Fatalf("%s: fact %d support %d differs: %v vs %v", label, id, si, sa[si], sb[si])
			}
		}
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("%s: violation counts differ: %d vs %d", label, len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		if va.EgdIndex != vb.EgdIndex || va.L != vb.L || va.R != vb.R || !factIDsEqual(va.Body, vb.Body) {
			t.Fatalf("%s: violation %d differs: %+v vs %+v", label, i, va, vb)
		}
	}
}

// TestGAVStrategyEquivalenceGenome cross-checks the semi-naive GAV chase
// against the naive reference on genome S- and M-sized profiles at
// 0%, 9%, and 20% suspect rates, asserting byte-identical provenance
// (facts, interning order, support hypergraph, violations).
func TestGAVStrategyEquivalenceGenome(t *testing.T) {
	w, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		t.Fatal(err)
	}
	profiles := []genome.Profile{
		{Name: "S0", Transcripts: 35, SuspectRate: 0.00, Seed: 9101},
		{Name: "S9", Transcripts: 35, SuspectRate: 0.09, Seed: 9102},
		{Name: "S20", Transcripts: 35, SuspectRate: 0.20, Seed: 9103},
		{Name: "M0", Transcripts: 360, SuspectRate: 0.00, Seed: 9104},
		{Name: "M9", Transcripts: 360, SuspectRate: 0.09, Seed: 9105},
		{Name: "M20", Transcripts: 360, SuspectRate: 0.20, Seed: 9106},
	}
	for _, p := range profiles {
		if testing.Short() && p.Transcripts > 100 {
			continue
		}
		src := genome.Generate(w, p)
		var stSemi, stNaive Stats
		semi, err := GAVWithOptions(red.M, src, Options{Stats: &stSemi})
		if err != nil {
			t.Fatalf("%s: semi-naive: %v", p.Name, err)
		}
		naive, err := naiveGAV(red.M, src, &stNaive)
		if err != nil {
			t.Fatalf("%s: naive: %v", p.Name, err)
		}
		provEqual(t, p.Name, semi, naive)
		if !semi.Instance.Equal(naive.Instance) {
			t.Fatalf("%s: instances differ", p.Name)
		}
		if stSemi.Triggers > stNaive.Triggers {
			t.Fatalf("%s: semi-naive fired more triggers (%d) than naive (%d)", p.Name, stSemi.Triggers, stNaive.Triggers)
		}
	}
}

// TestNativeStrategyEquivalenceGenome runs the native (GLAV, null-inventing)
// chase and its naive reference on genome profiles and asserts the resulting
// instances are fact-for-fact identical in insertion order — the semi-naive
// driver must preserve the naive trigger order, fresh-null numbering, and
// egd merge outcomes exactly.
func TestNativeStrategyEquivalenceGenome(t *testing.T) {
	// Fresh nulls are numbered by a stateful counter in the universe, so each
	// driver gets its own identically-constructed world: value numbering is
	// then deterministic per world and directly comparable across the two.
	w1, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	profiles := []genome.Profile{
		{Name: "S0", Transcripts: 35, SuspectRate: 0.00, Seed: 9201},
		{Name: "S9", Transcripts: 35, SuspectRate: 0.09, Seed: 9202},
		{Name: "S20", Transcripts: 35, SuspectRate: 0.20, Seed: 9203},
	}
	for _, p := range profiles {
		semi, errS := NativeWithOptions(w1.M, genome.Generate(w1, p), Options{})
		naive, errN := naiveNative(w2.M, genome.Generate(w2, p))
		if (errS == nil) != (errN == nil) {
			t.Fatalf("%s: drivers disagree on error: %v vs %v", p.Name, errS, errN)
		}
		if errS != nil {
			continue
		}
		instancesIdentical(t, p.Name, semi, naive)
	}
}

// instancesIdentical asserts fact-for-fact identity including enumeration
// order (Equal alone would accept permuted insertion orders).
func instancesIdentical(t *testing.T, label string, a, b *instance.Instance) {
	t.Helper()
	fa, fb := a.Facts(), b.Facts()
	if len(fa) != len(fb) {
		t.Fatalf("%s: fact counts differ: %d vs %d", label, len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Rel != fb[i].Rel || len(fa[i].Args) != len(fb[i].Args) {
			t.Fatalf("%s: fact %d differs", label, i)
		}
		for j := range fa[i].Args {
			if fa[i].Args[j] != fb[i].Args[j] {
				t.Fatalf("%s: fact %d arg %d differs", label, i, j)
			}
		}
	}
}

// TestChaseStrategyEquivalenceProperty cross-checks both chase drivers on
// random weakly-acyclic mappings: the native chase (existentials + egds)
// must produce identical instances, and on GAV-shaped mappings the
// provenance output must be byte-identical.
func TestChaseStrategyEquivalenceProperty(t *testing.T) {
	// Each trial builds the same random world twice from identically-seeded
	// generators, one per driver: fresh-null numbering is stateful in the
	// universe, so sharing one world would shift the second run's nulls.
	for trial := 0; trial < 60; trial++ {
		seed := int64(4242 + trial)
		build := func() (*testkit.World, *instance.Instance) {
			rng := rand.New(rand.NewSource(seed))
			w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0, TargetTgds: 1 + trial%2, Egds: 1 + trial%3})
			return w, testkit.RandomInstance(rng, w, 5+rng.Intn(8), 3)
		}
		w1, src1 := build()
		w2, src2 := build()

		semi, errS := NativeWithOptions(w1.M, src1, Options{})
		naive, errN := naiveNative(w2.M, src2)
		if (errS == nil) != (errN == nil) {
			t.Fatalf("trial %d: drivers disagree on error: %v vs %v", trial, errS, errN)
		}
		if errS == nil {
			instancesIdentical(t, "native", semi, naive)
		}

		if !w1.M.IsGAV() {
			continue
		}
		pSemi, errS := GAV(w1.M, src1)
		pNaive, errN := naiveGAV(w2.M, src2, &Stats{})
		if (errS == nil) != (errN == nil) {
			t.Fatalf("trial %d: GAV drivers disagree on error: %v vs %v", trial, errS, errN)
		}
		if errS == nil {
			provEqual(t, "gav", pSemi, pNaive)
		}
	}
}

// BenchmarkGAVFixpoint runs the provenance-recording GAV chase of the
// reduced genome mapping on S3/M3/L3 twice: semi-naive, and as the naive
// reference. Their ratio is the semi-naive speedup. Scale with
// BENCH_SCALE=0.1 for the numbers quoted in the README.
func BenchmarkGAVFixpoint(b *testing.B) {
	scale := 0.01
	if f, err := strconv.ParseFloat(os.Getenv("BENCH_SCALE"), 64); err == nil && f > 0 {
		scale = f
	}
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"S3", "M3", "L3"} {
		p, _ := genome.ProfileByName(name, scale)
		src := genome.Generate(w, p)
		b.Run("semi-naive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GAV(red.M, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("naive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := naiveGAV(red.M, src, &Stats{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
