package xr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// conflictFarm builds a world with n independent key-conflict clusters
// (each transcript ti has two disputed values) plus n clean transcripts,
// yielding many signature groups for the worker pool to fan out over.
func conflictFarm(n int) (*tw, *logic.UCQ) {
	w := keyConflictWorld()
	aRel, _ := w.cat.ByName("A")
	bRel, _ := w.cat.ByName("B")
	for i := 0; i < n; i++ {
		w.add(aRel, fmt.Sprintf("t%d", i), fmt.Sprintf("%d", 10+i))
		w.add(bRel, fmt.Sprintf("t%d", i), fmt.Sprintf("%d", 100+i))
		w.add(aRel, fmt.Sprintf("clean%d", i), fmt.Sprintf("%d", i))
	}
	return w, w.queryT()
}

// tupleStrings renders an answer set for order-insensitive comparison
// (Tuples already iterates in sorted key order).
func tupleStrings(res *Result) []string {
	rows := res.Answers.Tuples()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = instance.EncodeTuple(r)
	}
	return out
}

// statsEqual compares per-query stats ignoring wall-clock duration.
func statsEqual(a, b QueryStats) bool {
	a.Duration, b.Duration = 0, 0
	return a == b
}

func requireSameResult(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	sT, pT := tupleStrings(seq), tupleStrings(par)
	if len(sT) != len(pT) {
		t.Fatalf("%s: sequential %d answers, parallel %d", label, len(sT), len(pT))
	}
	for i := range sT {
		if sT[i] != pT[i] {
			t.Fatalf("%s: answer %d differs: %q vs %q", label, i, sT[i], pT[i])
		}
	}
	if !statsEqual(seq.Stats, par.Stats) {
		t.Fatalf("%s: stats differ:\nseq: %+v\npar: %+v", label, seq.Stats, par.Stats)
	}
}

// TestParallelMatchesSequentialFarm checks byte-identical answers and stats
// between the sequential path and a saturated worker pool on a many-cluster
// instance, for both certain and possible answers.
func TestParallelMatchesSequentialFarm(t *testing.T) {
	w, q := conflictFarm(24)
	exSeq, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	exPar, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	par := Options{Parallelism: runtime.NumCPU()}

	seqA, err := exSeq.AnswerOpts(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parA, err := exPar.AnswerOpts(q, par)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "answer", seqA, parA)
	if seqA.Stats.Programs < 2 {
		t.Fatalf("want multiple signature programs, got %d", seqA.Stats.Programs)
	}

	seqP, err := exSeq.PossibleOpts(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parP, err := exPar.PossibleOpts(q, par)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "possible", seqP, parP)
	if seqP.Answers.Len() <= seqA.Answers.Len() {
		t.Fatalf("possible (%d) should exceed certain (%d) on disputed facts",
			seqP.Answers.Len(), seqA.Answers.Len())
	}
}

// TestParallelMatchesSequentialGenome runs the full genome query suite on
// two suspect-rate profiles, comparing a sequential exchange against a
// parallel one query by query (same query order on both sides, so cache
// stats must agree too). Both sides aggregate into telemetry registries,
// whose counter totals must come out byte-identical: every counter is a
// sum of per-program contributions fixed by the query, so only the order
// of the atomic adds — never the total — depends on the parallelism.
func TestParallelMatchesSequentialGenome(t *testing.T) {
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	regSeq, regPar := telemetry.NewRegistry(), telemetry.NewRegistry()
	for _, name := range []string{"L3", "L9"} {
		p, ok := genome.ProfileByName(name, 0.004)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		src := genome.Generate(world, p)
		exSeq, err := NewExchangeOpts(world.M, src, Options{Metrics: regSeq})
		if err != nil {
			t.Fatal(err)
		}
		exPar, err := NewExchangeOpts(world.M, src, Options{Metrics: regPar})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			seq, err := exSeq.AnswerOpts(q, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, q.Name, err)
			}
			par, err := exPar.AnswerOpts(q, Options{Parallelism: 8})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", name, q.Name, err)
			}
			requireSameResult(t, name+"/"+q.Name, seq, par)
		}
	}
	seqC, parC := countersJSON(t, regSeq), countersJSON(t, regPar)
	if seqC != parC {
		t.Fatalf("telemetry counters diverge between Parallelism=1 and 8:\nseq: %s\npar: %s", seqC, parC)
	}
	if regSeq.Counter("xr_programs_total").Value() == 0 {
		t.Fatal("genome suite recorded no programs")
	}
}

// TestSecondAnswerHitsCache verifies that repeating a query on the same
// Exchange serves every signature program from the cache, observably via
// both stats and trace events.
func TestSecondAnswerHitsCache(t *testing.T) {
	w, q := conflictFarm(8)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ex.AnswerOpts(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Programs == 0 {
		t.Fatal("expected solver programs on the conflict farm")
	}
	if first.Stats.CacheHits != 0 {
		t.Fatalf("first run cache hits = %d, want 0", first.Stats.CacheHits)
	}

	var events []TraceEvent
	second, err := ex.AnswerOpts(q, Options{
		Parallelism: 4,
		Trace:       func(ev TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	requireCacheRun := second.Stats
	if requireCacheRun.CacheHits != requireCacheRun.Programs || requireCacheRun.CacheHits == 0 {
		t.Fatalf("second run: cache hits %d of %d programs, want all",
			requireCacheRun.CacheHits, requireCacheRun.Programs)
	}
	if len(events) != second.Stats.Programs {
		t.Fatalf("trace events = %d, programs = %d", len(events), second.Stats.Programs)
	}
	for _, ev := range events {
		if !ev.CacheHit {
			t.Fatalf("trace event not a cache hit: %+v", ev)
		}
		if ev.Engine != "segmentary" || ev.Query != q.Name {
			t.Fatalf("unexpected trace metadata: %+v", ev)
		}
	}

	// Brave reasoning clones the same cached base programs.
	poss, err := ex.PossibleOpts(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if poss.Stats.CacheHits != poss.Stats.Programs {
		t.Fatalf("possible: cache hits %d of %d programs", poss.Stats.CacheHits, poss.Stats.Programs)
	}

	// The cached runs still agree with a fresh exchange.
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := fresh.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	sT, cT := tupleStrings(base), tupleStrings(second)
	if len(sT) != len(cT) {
		t.Fatalf("cached answers diverge: %d vs %d", len(sT), len(cT))
	}
	for i := range sT {
		if sT[i] != cT[i] {
			t.Fatalf("cached answer %d differs: %q vs %q", i, sT[i], cT[i])
		}
	}
}

// TestConcurrentQueriesShareCache hammers one cold Exchange from many
// goroutines — certain, possible and explain asks of two queries mixed,
// each asked twice in a row — to exercise the query state under the race
// detector: greedy decisions are published on plan groups while other
// asks read them in place, and persistent solvers read their frozen base
// programs under incMu while explain passes read the same bases without
// it. The greedy repairs decide every group of the key-conflict query q;
// the certain groups of its projection onto the key only sessions decide.
// Every ask must agree with a sequential baseline on a separate Exchange,
// the mix must hold asks that read greedy decisions in place and asks that
// ran sessions, and afterwards every cached base must equal a fresh build
// of its key.
func TestConcurrentQueriesShareCache(t *testing.T) {
	w, q := conflictFarm(12)
	tt, _ := w.cat.ByName("T")
	keys := &logic.UCQ{Name: "keys", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("x")},
		Body: []logic.Atom{newAtom(w.cat, tt, logic.V("x"), logic.V("v"))},
	}}}
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	type kind struct {
		q              *logic.UCQ
		brave, explain bool
	}
	var kinds []kind
	for _, uq := range []*logic.UCQ{q, keys} {
		for _, k := range []kind{{uq, false, false}, {uq, true, false}, {uq, false, true}, {uq, true, true}} {
			kinds = append(kinds, k)
		}
	}
	render := func(e *Exchange, k kind, res *Result) string {
		if k.explain {
			return renderAll(w.cat, w.u, e, res)
		}
		return strings.Join(tupleStrings(res), "\n")
	}
	want := map[kind]string{}
	for _, k := range kinds {
		res, err := ref.query(k.q, k.brave, Options{Explain: k.explain})
		if err != nil {
			t.Fatal(err)
		}
		if k.explain && len(res.Explanations) != res.Stats.Candidates {
			t.Fatalf("%d explanations for %d candidates", len(res.Explanations), res.Stats.Candidates)
		}
		want[k] = render(ref, k, res)
	}

	var inPlace, sessions atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 16; g++ {
		k := kinds[g%len(kinds)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				tr := telemetry.NewTracer()
				searched := false
				res, err := ex.query(k.q, k.brave, Options{Parallelism: 3, Explain: k.explain, Tracer: tr, Trace: func(ev TraceEvent) {
					searched = searched || ev.AssumptionSolves > 0
				}})
				if err != nil {
					errCh <- err
					return
				}
				if got := render(ex, k, res); got != want[k] {
					errCh <- fmt.Errorf("concurrent ask (%s, possible %v, explain %v) diverges:\n%s\n-- want --\n%s", k.q.Name, k.brave, k.explain, got, want[k])
				}
				if searched {
					sessions.Add(1)
				}
				// Every group of q has a greedy decision, so one decided
				// in place, without a signature span, read it.
				jobs := 0
				for _, s := range tr.Spans() {
					if strings.HasPrefix(s.Name, "signature {") {
						jobs++
					}
				}
				if k.q == q && jobs < res.Stats.Programs {
					inPlace.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if inPlace.Load() == 0 || sessions.Load() == 0 {
		t.Fatalf("%d asks read greedy decisions in place and %d ran sessions; the mix needs both", inPlace.Load(), sessions.Load())
	}

	programs := cachedEntries[*sigProgram](ex)
	if len(programs) == 0 {
		t.Fatal("no signature program cached")
	}
	for key, sp := range programs {
		var sig []int
		for _, id := range strings.Split(key, ",") {
			ci, err := strconv.Atoi(id)
			if err != nil {
				t.Fatal(err)
			}
			sig = append(sig, ci)
		}
		if got, fresh := programDigest(sp.enc.gp), programDigest(ex.newSigProgram(sig).enc.gp); got != fresh {
			t.Fatalf("program {%s} after the mix: %s, fresh build %s", key, got, fresh)
		}
	}
}

// TestAnswerCanceledAndTimedOut checks that a dead context surfaces the
// matching sentinel from every segmentary entry point.
func TestAnswerCanceledAndTimedOut(t *testing.T) {
	w, q := conflictFarm(6)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.AnswerOpts(q, Options{Ctx: canceled}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Answer: err = %v, want ErrCanceled", err)
	}
	if _, err := ex.PossibleOpts(q, Options{Ctx: canceled, Parallelism: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Possible: err = %v, want ErrCanceled", err)
	}
	if _, err := ex.RepairsOpts(0, Options{Ctx: canceled}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Repairs: err = %v, want ErrCanceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	if _, err := ex.AnswerOpts(q, Options{Ctx: expired, Parallelism: 2}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired Answer: err = %v, want ErrTimeout", err)
	}
	if _, err := ex.AnswerOpts(q, Options{Timeout: time.Nanosecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("1ns-timeout Answer: err = %v, want ErrTimeout", err)
	}

	// The exchange remains fully usable after cancellations.
	if _, err := ex.Answer(q); err != nil {
		t.Fatalf("post-cancel Answer: %v", err)
	}
}

// TestMonolithicCanceled checks whole-call cancellation: per-query results
// carry the sentinel, the call-level error stays nil.
func TestMonolithicCanceled(t *testing.T) {
	w, q := conflictFarm(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Monolithic(w.m, w.src, []*logic.UCQ{q, q}, Options{Ctx: ctx, Parallelism: 2})
	if err != nil {
		t.Fatalf("call error = %v, want nil (sentinels live in per-query results)", err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("result %d: err = %v, want ErrCanceled", i, r.Err)
		}
		if r.Answers == nil {
			t.Fatalf("result %d: nil answer set", i)
		}
	}
}

// TestForEachSemantics pins down the worker-pool contract: deterministic
// lowest-index error, sentinel on a dead parent context, no work after n.
func TestForEachSemantics(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := forEachWorker(context.Background(), workers, 8, func(_ context.Context, _, i int) error {
			if i >= 3 {
				return fmt.Errorf("job %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}

		dead, cancel := context.WithCancel(context.Background())
		cancel()
		ran := 0
		err = forEachWorker(dead, workers, 8, func(context.Context, int, int) error { ran++; return nil })
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d dead ctx: err = %v, want ErrCanceled", workers, err)
		}
		if workers == 1 && ran != 0 {
			t.Fatalf("sequential pool ran %d jobs under a dead context", ran)
		}

		if err := forEachWorker(context.Background(), workers, 0, func(context.Context, int, int) error {
			t.Fatal("fn called for n=0")
			return nil
		}); err != nil {
			t.Fatalf("workers=%d n=0: err = %v", workers, err)
		}
	}
}

// TestNoGoroutineLeak runs parallel and canceled queries and verifies the
// worker pools drain completely.
func TestNoGoroutineLeak(t *testing.T) {
	w, q := conflictFarm(16)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := ex.AnswerOpts(q, Options{Parallelism: 8}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ex.AnswerOpts(q, Options{Ctx: ctx, Parallelism: 8}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	}
	var after int
	for i := 0; i < 50; i++ { // allow runtime bookkeeping goroutines to settle
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, after)
}
