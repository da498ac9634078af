package xr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/symtab"
	"repro/internal/telemetry"
	"repro/internal/testkit"
)

// referenceCandidates is the reference for collectCandidates, written the
// direct way: each support fact is found by a string key built from the
// body atom's arguments, and each support set is deduplicated by a linear
// scan over the candidate's sets before the canonical sort.
func referenceCandidates(rq *logic.UCQ, prov *chase.Provenance) []*candidate {
	factKey := func(f instance.Fact) string {
		return instance.EncodeTuple(append([]symtab.Value{symtab.Value(f.Rel)}, f.Args...))
	}
	ids := make(map[string]chase.FactID, prov.NumFacts())
	for id := 0; id < prov.NumFacts(); id++ {
		ids[factKey(prov.Fact(chase.FactID(id)))] = chase.FactID(id)
	}
	byKey := make(map[string]*candidate)
	var order []string
	for ci := range rq.Clauses {
		c := &rq.Clauses[ci]
		plan := cq.Compile(c.Body)
		value := func(t logic.Term, env []symtab.Value) symtab.Value {
			if t.IsVar() {
				return env[plan.VarSlot[t.Var]]
			}
			return t.Val
		}
		plan.ForEach(prov.Instance, func(env []symtab.Value) bool {
			tuple := make([]symtab.Value, len(c.Head))
			for i, t := range c.Head {
				tuple[i] = value(t, env)
			}
			support := make([]chase.FactID, len(c.Body))
			for i, a := range c.Body {
				args := make([]symtab.Value, len(a.Terms))
				for j, t := range a.Terms {
					args[j] = value(t, env)
				}
				id, ok := ids[factKey(instance.Fact{Rel: a.Rel, Args: args})]
				if !ok {
					panic("reference: support fact not in provenance")
				}
				support[i] = id
			}
			sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
			k := instance.EncodeTuple(tuple)
			cand, ok := byKey[k]
			if !ok {
				cand = &candidate{tuple: tuple}
				byKey[k] = cand
				order = append(order, k)
			}
			for _, prev := range cand.supports {
				if slices.Equal(prev, support) {
					return true
				}
			}
			cand.supports = append(cand.supports, support)
			return true
		})
	}
	sort.Strings(order)
	out := make([]*candidate, len(order))
	for i, k := range order {
		sets := byKey[k].supports
		sort.Slice(sets, func(x, y int) bool {
			a, b := sets[x], sets[y]
			for n := 0; n < len(a) && n < len(b); n++ {
				if a[n] != b[n] {
					return a[n] < b[n]
				}
			}
			return len(a) < len(b)
		})
		byKey[k].rank = i
		out[i] = byKey[k]
	}
	return out
}

// requireReferenceCandidates rewrites q on ex and requires collectCandidates
// to return exactly what the reference collector returns: the same
// candidates with the same support sets, both in the same order. It returns
// the candidates.
func requireReferenceCandidates(t *testing.T, label string, ex *Exchange, q *logic.UCQ) []*candidate {
	t.Helper()
	rq, err := ex.Red.RewriteQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, want := collectCandidates(rq, ex.Prov), referenceCandidates(rq, ex.Prov)
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
			i++
		}
		t.Fatalf("%s: %d candidates, reference %d; first difference at candidate %d:\n got %s\nwant %s",
			label, len(got), len(want), i, candidateAt(got, i), candidateAt(want, i))
	}
	return got
}

func candidateAt(cs []*candidate, i int) string {
	if i >= len(cs) {
		return "none"
	}
	return fmt.Sprintf("%v %v", cs[i].tuple, cs[i].supports)
}

// TestCollectCandidatesMatchesReference pins collectCandidates to the
// string-key, linear-dedup reference on the genome suite, on random
// mappings, and on hand-built UCQs whose support sets repeat: a self-join
// matched both ways round (the xr4 shape), a repeated clause, and a body
// constant.
func TestCollectCandidatesMatchesReference(t *testing.T) {
	t.Run("genome", func(t *testing.T) {
		w, err := genome.NewWorld()
		if err != nil {
			t.Fatal(err)
		}
		queries, err := genome.Queries(w)
		if err != nil {
			t.Fatal(err)
		}
		s3, _ := genome.ProfileByName("S3", 0.1)
		m3, _ := genome.ProfileByName("M3", 0.1)
		suspect20 := genome.Profile{Name: "suspect20", Transcripts: 300, SuspectRate: 0.20, Seed: 7004}
		for _, p := range []genome.Profile{s3, m3, suspect20} {
			ex, err := NewExchange(w.M, genome.Generate(w, p))
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.Clusters) == 0 {
				t.Fatalf("%s: no violation clusters", p.Name)
			}
			for _, q := range queries {
				requireReferenceCandidates(t, p.Name+"/"+q.Name, ex, q)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1414))
		cands, sets := 0, 0
		for trial := 0; trial < 60; trial++ {
			w := testkit.RandomMapping(rng, testkit.Options{Existentials: trial%2 == 0})
			src := testkit.RandomInstance(rng, w, 10+rng.Intn(20), 4)
			ex, err := NewExchange(w.M, src)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for qi := 0; qi < 3; qi++ {
				q := testkit.RandomQuery(rng, w, fmt.Sprintf("q%d_%d", trial, qi))
				for _, c := range requireReferenceCandidates(t, q.Name, ex, q) {
					cands++
					sets += len(c.supports)
				}
			}
		}
		if sets <= cands {
			t.Fatalf("no random candidate has two support sets (%d candidates, %d sets)", cands, sets)
		}
	})
	t.Run("handbuilt", func(t *testing.T) {
		w, err := parser.ParseMapping(`
source A(x, v).
source B(x, v).
target T(x, v).
tgd A(x, v) -> T(x, v).
tgd B(x, v) -> T(x, v).
egd T(x, v) & T(x, w) -> v = w.
`)
		if err != nil {
			t.Fatal(err)
		}
		src, err := parser.ParseFacts(`
A(t1, a). B(t1, b). A(t1, c).
A(t2, a). B(t2, a).
A(t3, c).
`, w)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := parser.ParseQueries(`
selfjoin() :- T(x, v), T(x, w).
repeated(x) :- T(x, v).
repeated(x) :- T(x, v).
constant(x) :- T(x, 'a'), T(x, v).
`, w)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExchange(w.M, src)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct support sets per candidate, counted by hand: the
		// self-join pairs each T fact with every T fact of its key,
		// unordered (t1: 3 facts, 6 sets; t2, t3: one each); the repeated
		// clause adds nothing to its first copy; the constant pairs T(x, a)
		// with each T fact of its key (t1: 3 sets; t2: 1).
		wantSets := map[string][]int{
			"selfjoin": {8},
			"repeated": {3, 1, 1},
			"constant": {3, 1},
		}
		for _, q := range queries {
			cands := requireReferenceCandidates(t, q.Name, ex, q)
			var sets []int
			for _, c := range cands {
				sets = append(sets, len(c.supports))
			}
			if !slices.Equal(sets, wantSets[q.Name]) {
				t.Fatalf("%s: support sets per candidate = %v, want %v", q.Name, sets, wantSets[q.Name])
			}
		}
	})
}

// collectSink keeps BenchmarkCollectCandidates' result live.
var collectSink []*candidate

// readShape builds the exchange of the genome-read shape of the xrperf
// benchmark (1,600 transcripts, 20% suspect) with opts and returns it with
// the genome query suite.
func readShape(b testing.TB, opts Options) (*Exchange, []*logic.UCQ) {
	b.Helper()
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	queries, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	src := genome.Generate(w, genome.Profile{Name: "read", Transcripts: 1600, SuspectRate: 0.20, Seed: 7004})
	ex, err := NewExchangeOpts(w.M, src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ex, queries
}

// BenchmarkCollectCandidates measures candidate collection, one
// sub-benchmark per query of the genome suite, on the genome-read shape.
// The exchange is built once; each iteration collects the candidates of
// one rewritten query.
func BenchmarkCollectCandidates(b *testing.B) {
	ex, queries := readShape(b, Options{})
	for _, q := range queries {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				collectSink = collectCandidates(rq, ex.Prov)
			}
		})
	}
}

// BenchmarkWarmSuite measures one sequential pass over the genome suite
// on a warmed exchange of the genome-read shape: every query's plan is
// cached and every verdict memoized, so an iteration is the warm query
// path with no solver search. It asks in two ways:
//
//   - bare: Answer with no options;
//   - served: AnswerOpts with what xrserved passes: a profiling exchange,
//     a metrics registry, a fresh Tracer per ask, a solver-trace hook, a
//     2-lane pool in the context, Parallelism 2 and Partial.
func BenchmarkWarmSuite(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		ex, queries := readShape(b, Options{})
		benchWarmPasses(b, queries, func(q *logic.UCQ) error {
			_, err := ex.Answer(q)
			return err
		})
	})
	b.Run("served", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		ex, queries := readShape(b, Options{Metrics: reg, Profiling: true})
		ask := servedAsk(reg)
		benchWarmPasses(b, queries, func(q *logic.UCQ) error { return ask(ex, q) })
	})
}

// servedAsk returns an Answer call with what xrserved passes: a metrics
// registry, a fresh Tracer per ask, a solver-trace hook, a 2-lane pool in
// the context, Parallelism 2 and Partial.
func servedAsk(reg *telemetry.Registry) func(*Exchange, *logic.UCQ) error {
	var laneWait, sigs, decisions atomic.Int64
	ctx := ContextWithLanes(context.Background(), NewLanePool(2, reg), func(d time.Duration) { laneWait.Add(int64(d)) })
	return func(ex *Exchange, q *logic.UCQ) error {
		_, err := ex.AnswerOpts(q, Options{
			Ctx:         ctx,
			Parallelism: 2,
			Partial:     true,
			Metrics:     reg,
			Tracer:      telemetry.NewTracer(),
			Trace: func(ev TraceEvent) {
				sigs.Add(1)
				decisions.Add(ev.Decisions)
			},
		})
		return err
	}
}

// BenchmarkColdSuite measures one sequential pass over the genome suite
// on a fresh exchange of the genome-churn shape of the xrperf benchmark
// (360 transcripts, 9% suspect), asked with what xrserved passes
// (servedAsk): every signature program is grounded with its greedy
// repairs within the pass, and a persistent solver is built only for a
// signature whose groups the repairs leave open. The exchange is built
// outside the timer. It reports the persistent solvers built, the solver
// sessions (each built solver's first session plus the sessions on
// reused ones) and decisions per pass.
func BenchmarkColdSuite(b *testing.B) {
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	queries, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	src := genome.Generate(w, genome.Profile{Name: "churn", Transcripts: 360, SuspectRate: 0.09, Seed: 1000})
	reg := telemetry.NewRegistry()
	ask := servedAsk(reg)
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	sessions := func() int64 {
		return counter("xr_solver_reuse_sessions_total") + counter("xr_solver_reuse_builds_total")
	}
	b0, s0, d0 := counter("xr_solver_reuse_builds_total"), sessions(), counter("xr_solver_decisions_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex, err := NewExchangeOpts(w.M, src, Options{Metrics: reg, Profiling: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range queries {
			if err := ask(ex, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(counter("xr_solver_reuse_builds_total")-b0)/float64(b.N), "solvers/op")
	b.ReportMetric(float64(sessions()-s0)/float64(b.N), "sessions/op")
	b.ReportMetric(float64(counter("xr_solver_decisions_total")-d0)/float64(b.N), "decisions/op")
}

// benchWarmPasses asks every query once to warm the exchange, then times
// b.N further passes.
func benchWarmPasses(b *testing.B, queries []*logic.UCQ, ask func(*logic.UCQ) error) {
	pass := func() {
		for _, q := range queries {
			if err := ask(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
