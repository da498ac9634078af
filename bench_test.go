package repro

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks for the substrates. The macro-benchmarks run the same
// code paths as cmd/xrbench at a small scale (override with the BENCH_SCALE
// environment variable, e.g. BENCH_SCALE=0.1); absolute numbers are not
// comparable to the paper's clingo/MySQL testbed, but the shapes are — see
// EXPERIMENTS.md.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/benchkit"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/gavreduce"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/xr"
)

func benchScale() float64 {
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.01
}

func newBenchRunner(b *testing.B) *benchkit.Runner {
	b.Helper()
	r, err := benchkit.NewRunner(benchScale(), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func runTable(b *testing.B, f func() (*benchkit.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1SourceInstances regenerates the Table 1 source statistics.
func BenchmarkTable1SourceInstances(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Table1)
}

// BenchmarkTable2Profiles regenerates the Table 2 instance grid (the first
// iteration pays the exchange phases; later iterations are cached reads, so
// use -benchtime=1x for the honest cost).
func BenchmarkTable2Profiles(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Table2)
}

// BenchmarkTable3QueryCounts regenerates the Table 3 answer counts on L3.
func BenchmarkTable3QueryCounts(b *testing.B) {
	r := newBenchRunner(b)
	if _, err := r.Table2(); err != nil { // warm the exchanges
		b.Fatal(err)
	}
	b.ResetTimer()
	runTable(b, r.Table3)
}

// BenchmarkTable4ExchangePhase measures one exchange phase on a fresh L3
// instance per iteration (the Table 4 row).
func BenchmarkTable4ExchangePhase(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("L3", benchScale())
	src := genome.Generate(w, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xr.NewExchange(w.M, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SuspectRate regenerates Figure 3 (left): the monolithic
// query grid over L0/L3/L9/L20. Use -benchtime=1x; this is a macro-run.
func BenchmarkFig3SuspectRate(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Figure3Suspect)
}

// BenchmarkFig3InstanceSize regenerates Figure 3 (right): monolithic over
// S3/M3/L3/F3.
func BenchmarkFig3InstanceSize(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Figure3Size)
}

// BenchmarkFig4SuspectRate regenerates Figure 4 (left): the segmentary
// query grid over L0/L3/L9/L20.
func BenchmarkFig4SuspectRate(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Figure4Suspect)
}

// BenchmarkFig4InstanceSize regenerates Figure 4 (right): segmentary over
// S3/M3/L3/F3.
func BenchmarkFig4InstanceSize(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, r.Figure4Size)
}

// BenchmarkReductionBlowup measures the GLAV→GAV compilation of the genome
// mapping (paper §5.2: 18.7s for 33 tgds + 26 egds → 339 tgds + 67 egds).
func BenchmarkReductionBlowup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := genome.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gavreduce.Reduce(w.M); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedupHeadline runs the headline monolithic-vs-segmentary
// comparison on S3 and M3 (use cmd/xrbench -experiment speedup for the
// full size axis).
func BenchmarkSpeedupHeadline(b *testing.B) {
	r := newBenchRunner(b)
	runTable(b, func() (*benchkit.Table, error) {
		return r.Speedup([]string{"S3", "M3"})
	})
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkChase measures both chase drivers across the S/M/L genome size
// axis: the provenance-recording GAV chase of the reduced mapping and the
// native GLAV chase. The semi-naive speedup over the naive fixpoint is
// measured by BenchmarkGAVFixpoint in internal/chase. Scale with
// BENCH_SCALE=0.1 for the numbers quoted in the README.
func BenchmarkChase(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"S3", "M3", "L3"} {
		p, _ := genome.ProfileByName(name, benchScale())
		src := genome.Generate(w, p)
		b.Run("provenance/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.GAV(red.M, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("native/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.Native(w.M, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioLoad measures one tenant load as xrserved performs it
// (Load, ParseFacts, then NewExchange with a metrics registry and
// profiling on) on the two genome shapes of the xrperf benchmark: churn is
// a genome-churn tenant (360 transcripts, 9% suspect) and read the
// genome-read tenant (1,600 transcripts, 20% suspect). It reports B/op
// and allocs/op: what one load allocates, whatever it keeps.
func BenchmarkScenarioLoad(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []genome.Profile{
		{Name: "churn", Transcripts: 360, SuspectRate: 0.09, Seed: 1000},
		{Name: "read", Transcripts: 1600, SuspectRate: 0.20, Seed: 7004},
	} {
		facts := parser.FormatFacts(genome.Generate(w, p), w.Cat, w.U)
		reg := NewMetrics()
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := Load(genome.MappingText)
				if err != nil {
					b.Fatal(err)
				}
				in, err := sys.ParseFacts(facts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.NewExchange(in, WithMetrics(reg), WithProfiling(true)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGAVChaseProvenance measures the provenance-recording GAV chase
// of the reduced genome mapping on an M3-sized instance.
func BenchmarkGAVChaseProvenance(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("M3", benchScale())
	src := genome.Generate(w, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.GAV(red.M, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeChase measures the standard GLAV chase (with nulls and egd
// unification) on a small consistent instance.
func BenchmarkNativeChase(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	src := genome.Generate(w, genome.Profile{Name: "bench", Transcripts: 30, SuspectRate: 0, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Native(w.M, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentaryQuery measures one segmentary query (ep2) against a
// warm exchange.
func BenchmarkSegmentaryQuery(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("L3", benchScale())
	src := genome.Generate(w, p)
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	var ep2 = qs[1]
	if ep2.Name != "ep2" {
		b.Fatal("query order changed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Answer(ep2); err != nil {
			b.Fatal(err)
		}
	}
}

// warmGenomeQuery builds a warm exchange for the given profile and returns
// it with one named query (cache warmed, so iterations measure solving).
func warmGenomeQuery(b *testing.B, profile, query string) (*xr.Exchange, *logic.UCQ) {
	b.Helper()
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, ok := genome.ProfileByName(profile, benchScale())
	if !ok {
		b.Fatalf("unknown profile %s", profile)
	}
	src := genome.Generate(w, p)
	ex, err := xr.NewExchange(w.M, src)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range qs {
		if q.Name == query {
			if _, err := ex.Answer(q); err != nil { // warm the program cache
				b.Fatal(err)
			}
			return ex, q
		}
	}
	b.Fatalf("unknown query %s", query)
	return nil, nil
}

// BenchmarkSegmentaryParallelism compares the sequential query phase with a
// saturated worker pool on L20/ep2 (the most cluster-rich profile: at the
// default scale each call solves ~64 per-signature programs, one per
// violation cluster). Both sub-benchmarks share a warm exchange, so the
// comparison isolates solving from grounding.
func BenchmarkSegmentaryParallelism(b *testing.B) {
	ex, ep2 := warmGenomeQuery(b, "L20", "ep2")
	for _, p := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ex.AnswerOpts(ep2, xr.Options{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignatureCache compares a query against a cold exchange (every
// signature program ground from scratch) with the same query against a warm
// one (every program served from the cache and cloned).
func BenchmarkSignatureCache(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("L20", benchScale())
	src := genome.Generate(w, p)
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	ep2 := qs[1]
	if ep2.Name != "ep2" {
		b.Fatal("query order changed")
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ex, err := xr.NewExchange(w.M, src)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ex.Answer(ep2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex, err := xr.NewExchange(w.M, src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Answer(ep2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Answer(ep2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTelemetryOverhead measures the warm-cache query path with
// telemetry disabled (nil registry: every meter update is a nil-receiver
// no-op) against the same path with a live registry. The disabled variant is
// the baseline the rest of the suite runs under; it must stay within noise
// of pre-telemetry performance, and the enabled variant bounds the cost of
// turning metrics on.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("L20", benchScale())
	src := genome.Generate(w, p)
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	ep2 := qs[1]
	run := func(b *testing.B, reg *telemetry.Registry) {
		ex, err := xr.NewExchangeOpts(w.M, src, xr.Options{Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Answer(ep2); err != nil { // warm the program cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Answer(ep2); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkStableSolver3Coloring measures stable-model enumeration on a
// disjunctive 3-coloring program (generic disjunctive path).
func BenchmarkStableSolver3Coloring(b *testing.B) {
	sp := &asp.SymProgram{}
	// A ring of 12 nodes.
	const n = 12
	for i := 0; i < n; i++ {
		sp.AddFact("node", nodeName(i))
		sp.AddFact("edge", nodeName(i), nodeName((i+1)%n))
	}
	sp.AddRule(asp.SymRule{
		Head: []asp.SymAtom{
			asp.SA("col", asp.SV("X"), asp.SC("r")),
			asp.SA("col", asp.SV("X"), asp.SC("g")),
			asp.SA("col", asp.SV("X"), asp.SC("b")),
		},
		Pos: []asp.SymAtom{asp.SA("node", asp.SV("X"))},
	})
	sp.AddRule(asp.SymRule{
		Pos: []asp.SymAtom{
			asp.SA("edge", asp.SV("X"), asp.SV("Y")),
			asp.SA("col", asp.SV("X"), asp.SV("C")),
			asp.SA("col", asp.SV("Y"), asp.SV("C")),
		},
	})
	gp, err := sp.Ground()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := asp.NewStableSolver(gp)
		if s.NextStable() == nil {
			b.Fatal("ring is 3-colorable")
		}
	}
}

func nodeName(i int) string { return "v" + strconv.Itoa(i) }

// BenchmarkCQJoin measures the conjunctive-query evaluator on the ep3 join
// over a chased M3 instance.
func BenchmarkCQJoin(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	red, err := gavreduce.Reduce(w.M)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := genome.ProfileByName("M3", benchScale())
	src := genome.Generate(w, p)
	prov, err := chase.GAV(red.M, src)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	rq, err := red.RewriteQuery(qs[2]) // ep3
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.EvalUCQ(rq, prov.Instance)
	}
}

// BenchmarkBruteForceRepairs measures exhaustive repair enumeration on a
// 12-fact conflicting instance (the validation oracle).
func BenchmarkBruteForceRepairs(b *testing.B) {
	sys, err := Load(`
source A(x, v).
source B(x, v).
target T(x, v).
tgd A(x, v) -> T(x, v).
tgd B(x, v) -> T(x, v).
egd T(x, v) & T(x, w) -> v = w.
`)
	if err != nil {
		b.Fatal(err)
	}
	in, err := sys.ParseFacts(`
A(t1, 1). B(t1, 2).
A(t2, 3). B(t2, 4).
A(t3, 5). B(t3, 6).
A(t4, 7). B(t4, 7).
A(t5, 8). B(t5, 9).
A(t6, 1). B(t6, 1).
`)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := sys.ParseQueries(`q(x, v) :- T(x, v).`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.BruteForceAnswers(in, qs); err != nil {
			b.Fatal(err)
		}
	}
}
