package genome

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/symtab"
	"repro/internal/xr"
)

func TestMappingParses(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	stats := w.M.Stats()
	if stats.STTgds != 8 || stats.TargetTgds != 2 || stats.TargetEgds != 9 {
		t.Fatalf("mapping stats = %+v", stats)
	}
	if w.M.IsGAV() {
		t.Fatal("benchmark mapping should not be GAV (existential cluster ids)")
	}
	if !w.M.IsWeaklyAcyclic() {
		t.Fatal("mapping not weakly acyclic")
	}
}

func TestQueriesParse(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Queries(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 11 {
		t.Fatalf("queries = %d, want 11", len(qs))
	}
	names := map[string]int{}
	for _, q := range qs {
		names[q.Name] = q.Arity
	}
	for name, arity := range map[string]int{
		"ep1": 0, "ep2": 1, "ep3": 2, "ep15": 1, "ep16": 2,
		"xr1": 0, "xr2": 1, "xr3": 12, "xr4": 0, "xr5": 1, "xr6": 2,
	} {
		if got, ok := names[name]; !ok || got != arity {
			t.Fatalf("query %s: arity %d ok=%v, want %d", name, got, ok, arity)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{Name: "tiny", Transcripts: 20, SuspectRate: 0.2, Seed: 42}
	a := Generate(w, p)
	w2, _ := NewWorld()
	b := Generate(w2, p)
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic sizes: %d vs %d", a.Len(), b.Len())
	}
	// ~10 source tuples per transcript (9 fixed + 0.5 padding + genes/3).
	if a.Len() < 20*8 || a.Len() > 20*12 {
		t.Fatalf("unexpected size %d for 20 transcripts", a.Len())
	}
}

func TestConsistentProfileHasNoViolations(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(w, Profile{Name: "clean", Transcripts: 30, SuspectRate: 0, Seed: 1})
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Consistent() {
		t.Fatalf("clean instance has %d violations", ex.Stats.Violations)
	}
}

func TestSuspectRateDrivesViolations(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(w, Profile{Name: "dirty", Transcripts: 40, SuspectRate: 0.25, Seed: 2})
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	// 10 suspect transcripts: 5 exon conflicts + 5 symbol conflicts.
	if ex.Stats.Violations == 0 {
		t.Fatal("no violations on dirty instance")
	}
	if ex.Stats.Clusters < 5 || ex.Stats.Clusters > 12 {
		t.Fatalf("clusters = %d, expected roughly one per suspect transcript", ex.Stats.Clusters)
	}
	if ex.SuspectSourceFacts() == 0 {
		t.Fatal("no suspect source facts")
	}
}

func TestSegmentaryAnswersGenomeSuite(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(w, Profile{Name: "t", Transcripts: 24, SuspectRate: 0.25, Seed: 3})
	qs, err := Queries(w)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*cq.AnswerSet{}
	for _, q := range qs {
		res, err := ex.Answer(q)
		if err != nil {
			t.Fatalf("query %s: %v", q.Name, err)
		}
		byName[q.Name] = res.Answers
	}
	// xr1 (boolean: any knownGene row certain?) must hold: clean transcripts
	// have undisputed rows.
	if byName["xr1"].Len() != 1 {
		t.Fatal("xr1 should be certainly true")
	}
	// xr2: every clean transcript is a certain answer; suspect exon-conflict
	// transcripts have no certain knownGene row (the exon count is disputed),
	// so the count must be strictly between 0 and 24.
	n := byName["xr2"].Len()
	if n < 18 || n >= 24 {
		t.Fatalf("xr2 answers = %d, want in [18, 24)", n)
	}
	// xr3 is the projection-free version: its count cannot exceed xr2's rows
	// per transcript... it must be at least the number of xr2 transcripts.
	if byName["xr3"].Len() < n {
		t.Fatalf("xr3 = %d < xr2 = %d", byName["xr3"].Len(), n)
	}
	// xr5 ⊆ transcripts, nonempty; xr6 contains the diagonal of xr5.
	if byName["xr5"].Len() == 0 || byName["xr6"].Len() < byName["xr5"].Len() {
		t.Fatalf("xr5 = %d, xr6 = %d", byName["xr5"].Len(), byName["xr6"].Len())
	}
	// ep2/ep3: protein accessions via symbol join.
	if byName["ep2"].Len() == 0 || byName["ep3"].Len() < byName["ep2"].Len() {
		t.Fatalf("ep2 = %d, ep3 = %d", byName["ep2"].Len(), byName["ep3"].Len())
	}
}

func TestMonolithicMatchesSegmentaryOnGenome(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(w, Profile{Name: "t", Transcripts: 12, SuspectRate: 0.25, Seed: 4})
	qs, err := Queries(w)
	if err != nil {
		t.Fatal(err)
	}
	// Compare on a representative subset (monolithic re-chases per query).
	var subset = qs[:0]
	for _, q := range qs {
		switch q.Name {
		case "ep2", "xr2", "xr6":
			subset = append(subset, q)
		}
	}
	mono, err := xr.Monolithic(w.M, src, subset, xr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range subset {
		seg, err := ex.Answer(q)
		if err != nil {
			t.Fatalf("query %s: %v", q.Name, err)
		}
		if seg.Answers.Len() != mono[i].Answers.Len() {
			t.Fatalf("query %s: segmentary %d vs monolithic %d",
				q.Name, seg.Answers.Len(), mono[i].Answers.Len())
		}
		for _, tup := range mono[i].Answers.Tuples() {
			if !seg.Answers.Contains(tup) {
				t.Fatalf("query %s: tuple mismatch", q.Name)
			}
		}
	}
}

func TestClusteringMergesIsoforms(t *testing.T) {
	// Two transcripts of the same gene must land in the same cluster:
	// xr6 contains the off-diagonal pair.
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	// 4 transcripts over 2 genes (t%nGenes with nGenes=2): t0,t2 -> gene 0.
	src := Generate(w, Profile{Name: "t", Transcripts: 4, SuspectRate: 0, Seed: 5})
	qs, err := Queries(w)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		t.Fatal(err)
	}
	var xr6Answers *cq.AnswerSet
	for _, q := range qs {
		if q.Name == "xr6" {
			res, err := ex.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			xr6Answers = res.Answers
		}
	}
	uc0 := w.U.Const("uc000000.1")
	uc1 := w.U.Const("uc000001.1")
	uc2 := w.U.Const("uc000002.1")
	if !xr6Answers.Contains([]symtab.Value{uc0, uc2}) {
		t.Fatal("same-gene transcripts not clustered")
	}
	if xr6Answers.Contains([]symtab.Value{uc0, uc1}) {
		t.Fatal("different-gene transcripts clustered")
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles(1)
	if len(ps) != 7 {
		t.Fatalf("profiles = %d", len(ps))
	}
	byName := map[string]Profile{}
	for _, p := range ps {
		byName[p.Name] = p
	}
	if byName["F3"].Transcripts <= byName["L3"].Transcripts ||
		byName["L3"].Transcripts <= byName["M3"].Transcripts ||
		byName["M3"].Transcripts <= byName["S3"].Transcripts {
		t.Fatal("size ordering wrong")
	}
	if byName["L20"].SuspectRate <= byName["L9"].SuspectRate {
		t.Fatal("suspect ordering wrong")
	}
	// Scaling: 0.1 gives a tenth of the transcripts (floored, min 10).
	small := Profiles(0.1)
	for i, p := range small {
		if p.Transcripts > ps[i].Transcripts/10+1 && p.Transcripts != 10 {
			t.Fatalf("profile %s not scaled: %d vs %d", p.Name, p.Transcripts, ps[i].Transcripts)
		}
	}
	if _, ok := ProfileByName("L3", 1); !ok {
		t.Fatal("ProfileByName miss")
	}
	if _, ok := ProfileByName("nope", 1); ok {
		t.Fatal("ProfileByName invented a profile")
	}
}
