package repro

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xr"
)

var updateGoldenRoot = flag.Bool("update-golden", false, "rewrite golden explanation files")

var triangleEdges = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}

// TestWhyTricolorWitnessConfirmed: Why on the known non-answer of the
// 3-colorable triangle gadget reports a counterexample exchange-repair, and
// the repair it names is independently confirmed by brute-force repair
// enumeration: the source instance minus the dropped facts is exactly one
// of the instance's source repairs.
func TestWhyTricolorWitnessConfirmed(t *testing.T) {
	sys, err := Load(tricolorGadget)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.ParseFacts(tricolorFacts(triangleEdges))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sys.NewExchange(in)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.ParseQueries("inAllRepairs() :- Fsrc(n4, n1).")
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]

	// Public surface: the tuple is rejected with a counterexample.
	pe, err := ex.Why(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Verdict != "rejected" {
		t.Fatalf("verdict = %s, want rejected (the triangle is 3-colorable)", pe.Verdict)
	}
	for _, want := range []string{"counterexample repair drops:", "target facts lost:", "support closure:"} {
		if !strings.Contains(pe.Text, want) {
			t.Fatalf("explanation lacks %q:\n%s", want, pe.Text)
		}
	}

	// Engine surface: extract the witness fact IDs and rebuild the repair.
	xe, err := ex.ex.ExplainTuple(q.q, nil, xr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if xe.Witness == nil {
		t.Fatal("rejected explanation carries no witness")
	}
	kept := in.in.Clone()
	for _, f := range xe.Witness.DroppedSource {
		if fact := ex.ex.Prov.Fact(f); !kept.Remove(fact.Rel, fact.Args) {
			t.Fatalf("witness drops %v, which is not a source fact", ex.ex.Prov.Fact(f))
		}
	}
	repairs, err := xr.SourceRepairs(sys.w.M, in.in)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range repairs {
		if r.Equal(kept) {
			return // the witness is a genuine source repair
		}
	}
	t.Fatalf("the witness repair (%d facts kept of %d) matches none of the %d enumerated source repairs",
		kept.Len(), in.in.Len(), len(repairs))
}

// TestWhyVerdicts covers the remaining Why outcomes: a certain answer on
// the non-3-colorable K4 gadget, an arity error, and foreign constants.
func TestWhyVerdicts(t *testing.T) {
	exK4, qK4 := tricolorSetup(t, k4Edges)
	e, err := exK4.Why(qK4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != "certain" {
		t.Fatalf("K4 verdict = %s, want certain (K4 is not 3-colorable)", e.Verdict)
	}

	sys, in, qs := setup(t)
	ex, err := sys.NewExchange(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Why(qs[0], nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	e, err = ex.Why(qs[0], []string{"no-such-constant", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != "no-support" {
		t.Fatalf("foreign constant verdict = %s, want no-support", e.Verdict)
	}
	if !strings.Contains(e.Text, "no support") {
		t.Fatalf("no-support text missing: %q", e.Text)
	}
}

// TestExplanationsTricolorGolden: the full -explain output of the triangle
// gadget matches the committed golden file byte for byte, at parallelism
// 1, 4, and 8 and on warm and cold signature-cache paths. Regenerate with
// -update-golden (shared with internal/xr).
func TestExplanationsTricolorGolden(t *testing.T) {
	render := func(par int) string {
		ex, q := tricolorSetup(t, triangleEdges)
		var b strings.Builder
		for pass := 0; pass < 2; pass++ { // second pass hits the signature-program cache
			ans, err := ex.Answer(q, WithExplanations(true), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Explanations) == 0 {
				t.Fatal("WithExplanations(true) attached no explanations")
			}
			for _, e := range ans.Explanations {
				b.WriteString(e.Text)
			}
		}
		return b.String()
	}
	got := render(1)
	for _, par := range []int{4, 8} {
		if other := render(par); other != got {
			t.Fatalf("parallelism %d changed explanation output:\n%s\n-- want --\n%s", par, other, got)
		}
	}
	half := got[:len(got)/2]
	if got != half+half {
		t.Fatal("warm signature cache changed explanation output")
	}

	golden := filepath.Join("testdata", "explain_tricolor.golden")
	if *updateGoldenRoot {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(half), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if half != string(want) {
		t.Fatalf("explanation output differs from %s (run with -update-golden to refresh):\n%s", golden, half)
	}
}

// TestWhyMatchesAnswerExplanations: Why's single-tuple text is identical to
// the corresponding entry of a full WithExplanations run.
func TestWhyMatchesAnswerExplanations(t *testing.T) {
	ex, q := tricolorSetup(t, triangleEdges)
	ans, err := ex.Answer(q, WithExplanations(true))
	if err != nil {
		t.Fatal(err)
	}
	why, err := ex.Why(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ans.Explanations {
		if e.Query == q.Name() && len(e.Tuple) == 0 {
			if e.Text != why.Text {
				t.Fatalf("Why text diverges from Answer explanation:\n%s\n-- vs --\n%s", why.Text, e.Text)
			}
			return
		}
	}
	t.Fatal("no explanation for the boolean query tuple")
}
