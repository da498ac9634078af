package explain

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/symtab"
)

func testRenderer(maxFacts int) *Renderer {
	return &Renderer{
		FormatFact:  func(f chase.FactID) string { return "f" + strconv.Itoa(int(f)) },
		FormatValue: func(v symtab.Value) string { return "v" + strconv.Itoa(int(v)) },
		MaxFacts:    maxFacts,
	}
}

func TestRenderVerdictWording(t *testing.T) {
	cases := []struct {
		verdict Verdict
		want    string
	}{
		{Safe, "every support avoids all violation clusters"},
		{Certain, "no counterexample repair exists"},
		{Rejected, "a counterexample exchange-repair exists"},
		{Possible, "a supporting exchange-repair exists"},
		{Impossible, "no exchange-repair satisfies the tuple"},
		{NoSupport, "no support in the quasi-solution"},
	}
	r := testRenderer(0)
	for _, tc := range cases {
		got := r.Render(&Explanation{Query: "q", Verdict: tc.verdict})
		if !strings.Contains(got, string(tc.verdict)) || !strings.Contains(got, tc.want) {
			t.Fatalf("%s rendering lacks %q:\n%s", tc.verdict, tc.want, got)
		}
		if !strings.HasSuffix(got, "\n") {
			t.Fatalf("%s rendering not newline-terminated: %q", tc.verdict, got)
		}
	}
}

func TestRenderUnknownCause(t *testing.T) {
	got := testRenderer(0).Render(&Explanation{
		Query: "q", Verdict: Unknown, Signature: "3", Cause: "budget", Retries: 1,
	})
	for _, want := range []string{"cause: budget", "retries: 1", "[signature {3}]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("unknown rendering lacks %q:\n%s", want, got)
		}
	}
}

func TestRenderRejectedFull(t *testing.T) {
	e := &Explanation{
		Query:     "q",
		Tuple:     []symtab.Value{1, 2},
		Verdict:   Rejected,
		Signature: "0",
		Clusters:  []ClusterInfo{{ID: 0, Violations: 1, EnvelopeSize: 2, InfluenceSize: 4}},
		Support:   []chase.FactID{1, 3},
		Witness: &Witness{
			DroppedSource: []chase.FactID{1},
			KeptSuspect:   []chase.FactID{2},
			MissingTarget: []chase.FactID{3},
		},
		ModelsExamined: 2,
	}
	got := testRenderer(0).Render(e)
	for _, want := range []string{
		"q(v1, v2): rejected",
		"[signature {0}; 2 models examined]",
		"clusters: #0 (1 violation, envelope 2, influence 4)",
		"support closure: f1; f3",
		"counterexample repair drops: f1",
		"keeps (suspect): f2",
		"target facts lost: f3",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, got)
		}
	}
	// A possible-verdict witness is a supporting repair, not a counterexample.
	e.Verdict = Possible
	if got := testRenderer(0).Render(e); !strings.Contains(got, "supporting repair drops: f1") {
		t.Fatalf("possible rendering lacks the supporting-repair label:\n%s", got)
	}
}

func TestRenderFactCap(t *testing.T) {
	ids := make([]chase.FactID, 20)
	for i := range ids {
		ids[i] = chase.FactID(i)
	}
	got := testRenderer(4).Render(&Explanation{Query: "q", Verdict: Safe, Support: ids})
	if !strings.Contains(got, "... (+16 more)") {
		t.Fatalf("capped list lacks the truncation marker:\n%s", got)
	}
	if strings.Contains(got, "f4;") {
		t.Fatalf("capped list leaked facts past the cap:\n%s", got)
	}
	// The default cap is 16.
	got = testRenderer(0).Render(&Explanation{Query: "q", Verdict: Safe, Support: ids})
	if !strings.Contains(got, "... (+4 more)") {
		t.Fatalf("default cap is not 16:\n%s", got)
	}
}

// RenderAll renders a batch in order, separated by nothing (each block is
// newline-terminated already).
func (r *Renderer) RenderAll(es []*Explanation) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(r.Render(e))
	}
	return b.String()
}

func TestRenderAllConcatenates(t *testing.T) {
	r := testRenderer(0)
	a := &Explanation{Query: "q", Verdict: Safe}
	b := &Explanation{Query: "q", Verdict: Certain}
	if got, want := r.RenderAll([]*Explanation{a, b}), r.Render(a)+r.Render(b); got != want {
		t.Fatalf("RenderAll = %q, want %q", got, want)
	}
}
