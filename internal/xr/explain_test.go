package xr

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/explain"
	"repro/internal/faultkit"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden explanation files")

// renderAll renders a result's explanations exactly as the public API does.
func renderAll(cat *schema.Catalog, u *symtab.Universe, ex *Exchange, res *Result) string {
	r := &explain.Renderer{
		FormatFact:  func(f chase.FactID) string { return ex.Prov.Fact(f).String(cat, u) },
		FormatValue: func(v symtab.Value) string { return u.Name(v) },
	}
	var b strings.Builder
	for _, e := range res.Explanations {
		b.WriteString(r.Render(e))
	}
	return b.String()
}

// TestExplainDeterminismConflictFarm: explanation output is byte-identical
// across parallelism levels and across cold and warm signature-cache runs.
func TestExplainDeterminismConflictFarm(t *testing.T) {
	w, q := conflictFarm(6)
	var want string
	for _, par := range []int{1, 4, 8} {
		ex, err := NewExchange(w.m, w.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			res, err := ex.AnswerOpts(q, Options{Parallelism: par, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Explanations) != res.Stats.Candidates {
				t.Fatalf("par %d %s: %d explanations for %d candidates",
					par, pass, len(res.Explanations), res.Stats.Candidates)
			}
			got := renderAll(w.cat, w.u, ex, res)
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("par %d %s cache: explanation output diverged:\n%s\n-- want --\n%s", par, pass, got, want)
			}
		}
	}
	if !strings.Contains(want, string(explain.Rejected)) && !strings.Contains(want, string(explain.Certain)) {
		t.Fatalf("conflict farm produced no solver-decided explanations:\n%s", want)
	}
}

// TestExplainGenomeS3Golden: the rendered explanations of the genome S3
// query suite match the committed golden file, at every parallelism level
// and on both cache paths. Regenerate with -update-golden.
func TestExplainGenomeS3Golden(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := genome.ProfileByName("S3", 0.05)
	if !ok {
		t.Fatal("unknown genome profile S3")
	}
	src := genome.Generate(world, p)

	render := func(par int) string {
		ex, err := NewExchange(world.M, src)
		if err != nil {
			t.Fatal(err)
		}
		var cold, warm strings.Builder
		for _, out := range []*strings.Builder{&cold, &warm} {
			for _, q := range queries {
				res, err := ex.AnswerOpts(q, Options{Parallelism: par, Explain: true})
				if err != nil {
					t.Fatalf("query %s: %v", q.Name, err)
				}
				out.WriteString("== " + q.Name + " ==\n")
				out.WriteString(renderAll(world.Cat, world.U, ex, res))
			}
		}
		if cold.String() != warm.String() {
			t.Fatalf("par %d: warm signature cache changed explanation output", par)
		}
		return cold.String()
	}

	got := render(1)
	for _, par := range []int{4, 8} {
		if other := render(par); other != got {
			t.Fatalf("parallelism %d changed explanation output", par)
		}
	}

	golden := filepath.Join("testdata", "explain_genome_s3.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("explanation output differs from %s (run with -update-golden to refresh)", golden)
	}
}

// TestExplainDegradedCause: a degraded signature's candidate tuples carry
// unknown-verdict explanations with a stable cause token and the retry
// count, for both budget exhaustion and injected panics.
func TestExplainDegradedCause(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		w, q := conflictFarm(3)
		ex, err := NewExchange(w.m, w.src)
		if err != nil {
			t.Fatal(err)
		}
		withoutGreedy(t, ex, q) // the greedy repairs would decide every group within any budget
		res, err := ex.AnswerOpts(q, Options{MaxDecisions: 1, Partial: true, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) == 0 {
			t.Fatal("one-decision budget did not degrade any signature")
		}
		assertUnknownCause(t, res, "budget", 1)
	})
	t.Run("panic", func(t *testing.T) {
		w, q := conflictFarm(3)
		ex, err := NewExchange(w.m, w.src)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultkit.New(7004, faultkit.Fault{Kind: faultkit.SolvePanic, Rate: 1})
		res, err := ex.AnswerOpts(q, Options{FaultHook: inj.Hook(), Partial: true, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if inj.Fired(faultkit.SolvePanic) == 0 {
			t.Fatal("vacuous run: no panic fired")
		}
		if len(res.Degraded) == 0 {
			t.Fatal("injected panics did not degrade any signature")
		}
		assertUnknownCause(t, res, "panic", 0)
	})
}

func assertUnknownCause(t *testing.T, res *Result, cause string, wantRetries int) {
	t.Helper()
	unknown := 0
	for _, e := range res.Explanations {
		if e.Verdict != explain.Unknown {
			continue
		}
		unknown++
		if e.Cause != cause {
			t.Fatalf("unknown explanation for %s carries cause %q, want %q", e.Signature, e.Cause, cause)
		}
		if e.Retries != wantRetries {
			t.Fatalf("unknown explanation for %s reports %d retries, want %d", e.Signature, e.Retries, wantRetries)
		}
		if e.Signature == "" {
			t.Fatal("unknown explanation without a signature key")
		}
	}
	if unknown != res.Stats.UnknownTuples {
		t.Fatalf("%d unknown explanations for %d unknown tuples", unknown, res.Stats.UnknownTuples)
	}
	if unknown == 0 {
		t.Fatal("no unknown explanations on a degraded run")
	}
}

// TestExplainTraceCrossReference: explanations and solver TraceEvents use
// the same signature-key vocabulary, so -explain and -trace output can be
// joined on the key.
func TestExplainTraceCrossReference(t *testing.T) {
	w, q := conflictFarm(4)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	traced := map[string]bool{}
	res, err := ex.AnswerOpts(q, Options{
		Explain: true,
		Trace:   func(ev TraceEvent) { traced[ev.SignatureKey] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	solved := 0
	for _, e := range res.Explanations {
		if e.Verdict == explain.Safe || e.Verdict == explain.NoSupport || e.Signature == "" {
			continue
		}
		solved++
		if !traced[e.Signature] {
			t.Fatalf("explanation signature %q has no matching TraceEvent (traced: %v)", e.Signature, traced)
		}
	}
	if solved == 0 {
		t.Fatal("no solver-backed explanations to cross-reference")
	}
}

// TestExplainTracerSpans: a query run under a Tracer nests one signature
// span (and, with Explain, one explain span) under the query-phase span.
func TestExplainTracerSpans(t *testing.T) {
	w, q := conflictFarm(4)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer()
	if _, err := ex.AnswerOpts(q, Options{Explain: true, Tracer: tr, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var queryID telemetry.SpanID
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "query ") {
			queryID = s.ID
		}
	}
	if queryID == telemetry.NoSpan {
		t.Fatal("no query-phase span recorded")
	}
	sig, expl := 0, 0
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "signature {"):
			sig++
		case strings.HasPrefix(s.Name, "explain {"):
			expl++
		default:
			continue
		}
		if s.Parent != queryID {
			t.Fatalf("span %q parented to %d, want query span %d", s.Name, s.Parent, queryID)
		}
	}
	if sig == 0 || expl == 0 {
		t.Fatalf("expected signature and explain child spans, got %d/%d", sig, expl)
	}
}

// TestMonolithicTracerSpans: the monolithic engine records one span per
// query program.
func TestMonolithicTracerSpans(t *testing.T) {
	w, q := conflictFarm(2)
	tr := telemetry.NewTracer()
	if _, err := Monolithic(w.m, w.src, []*logic.UCQ{q}, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Name, "query ") && strings.HasSuffix(s.Name, "[monolithic]") {
			found = true
		}
	}
	if !found {
		t.Fatal("no monolithic query span recorded")
	}
}

// TestExplainTupleNotACandidate: ExplainTuple on a tuple with no support
// yields the no-support verdict instead of an error.
func TestExplainTupleNotACandidate(t *testing.T) {
	w, q := conflictFarm(2)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ex.ExplainTuple(q, w.vals("nope", "0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != explain.NoSupport {
		t.Fatalf("verdict = %s, want %s", e.Verdict, explain.NoSupport)
	}
}

// TestExplainCanceled: a dead context fails the explanation pass with the
// cancellation sentinel instead of fabricating verdicts.
func TestExplainCanceled(t *testing.T) {
	w, q := conflictFarm(2)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.AnswerOpts(q, Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Explanations {
		if e.Verdict == explain.Unknown {
			t.Fatalf("unbudgeted run produced an unknown verdict: %+v", e)
		}
	}
}

// BenchmarkExplainOverhead measures the query phase with explanations off
// (the default) and on; the off case must show no measurable overhead over
// the pre-explanation engine.
func BenchmarkExplainOverhead(b *testing.B) {
	world, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("S3", 0.05)
	src := genome.Generate(world, p)
	for _, mode := range []struct {
		name    string
		explain bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ex, err := NewExchange(world.M, src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := ex.AnswerOpts(q, Options{Explain: mode.explain}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
