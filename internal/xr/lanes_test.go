package xr

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/genome"
	"repro/internal/logic"
)

// TestLanePoolBoundsSolverJobs runs certain, possible and explain queries
// from several goroutines at Parallelism 4 over two exchanges that share
// one 2-lane pool. A solve-site hook holds every job for a moment and
// counts the jobs inside at once: the peak must be exactly the pool size.
// Every result must match a sequential call without a pool. The verdict
// memos are emptied first, so the groups search. A group that a sibling
// call's session has decided by the time it is reached is decided in
// place, without a lane (TestInPlaceTakesNoLane): the hook does not count
// it.
func TestLanePoolBoundsSolverJobs(t *testing.T) {
	type fixture struct {
		shared, ref *Exchange
		queries     []*logic.UCQ
	}
	farm, farmQ := conflictFarm(12)
	world, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	genomeQs, err := genome.Queries(world)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := genome.ProfileByName("L3", 0.004)
	if !ok {
		t.Fatal("unknown profile L3")
	}
	genomeSrc := genome.Generate(world, p)
	var fixtures []fixture
	for _, f := range []struct {
		build   func() (*Exchange, error)
		queries []*logic.UCQ
	}{
		{func() (*Exchange, error) { return NewExchange(farm.m, farm.src) }, []*logic.UCQ{farmQ}},
		{func() (*Exchange, error) { return NewExchange(world.M, genomeSrc) }, genomeQs},
	} {
		shared, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{shared: shared, ref: ref, queries: f.queries})
	}

	type call struct {
		ex, ref *Exchange
		q       *logic.UCQ
		brave   bool
		explain bool
	}
	run := func(c call, ex *Exchange, opts Options) (*Result, error) {
		opts.Explain = c.explain
		if c.brave {
			return ex.PossibleOpts(c.q, opts)
		}
		return ex.AnswerOpts(c.q, opts)
	}
	var calls []call
	for _, f := range fixtures {
		for _, q := range f.queries {
			for _, brave := range []bool{false, true} {
				calls = append(calls, call{ex: f.shared, ref: f.ref, q: q, brave: brave})
			}
		}
	}
	calls = append(calls, call{ex: fixtures[0].shared, ref: fixtures[0].ref, q: farmQ, explain: true})

	// Warm both exchanges alike, so cache hits agree; the reference result
	// is then a sequential call without a pool.
	want := make([]*Result, len(calls))
	for i, c := range calls {
		for _, ex := range []*Exchange{c.ex, c.ref} {
			if _, err := run(c, ex, Options{}); err != nil {
				t.Fatalf("warm-up %s: %v", c.q.Name, err)
			}
		}
		if want[i], err = run(c, c.ref, Options{}); err != nil {
			t.Fatalf("reference %s: %v", c.q.Name, err)
		}
	}

	for _, f := range fixtures {
		forgetVerdicts(f.shared)
	}
	pool := NewLanePool(2, nil)
	var inside, peak atomic.Int64
	inPlace := runtime.FuncForPC(reflect.ValueOf((*Exchange).decideInPlace).Pointer()).Name()
	hook := func(site, _ string) error {
		if site != faultSiteSolve || onStack(inPlace) {
			return nil
		}
		n := inside.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inside.Add(-1)
		return nil
	}
	ctx := ContextWithLanes(context.Background(), pool, nil)
	got := make([]*Result, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c call) {
			defer wg.Done()
			got[i], errs[i] = run(c, c.ex, Options{Ctx: ctx, Parallelism: 4, FaultHook: hook})
		}(i, c)
	}
	wg.Wait()
	for i, c := range calls {
		if errs[i] != nil {
			t.Fatalf("%s (brave=%v): %v", c.q.Name, c.brave, errs[i])
		}
		requireSameResult(t, c.q.Name, want[i], got[i])
		if c.explain {
			wantE := renderAll(farm.cat, farm.u, c.ref, want[i])
			if gotE := renderAll(farm.cat, farm.u, c.ex, got[i]); gotE != wantE {
				t.Fatalf("explanations differ under the pool:\n%s\n-- want --\n%s", gotE, wantE)
			}
		}
	}
	if n := peak.Load(); n != 2 {
		t.Fatalf("peak concurrent solve jobs = %d, want the pool size 2", n)
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d lane(s) still held after every call returned", n)
	}
}

// onStack reports whether the named function is on the calling
// goroutine's stack.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if f.Function == fn {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestLaneWait holds the only lane of a pool. A query whose candidates are
// all safe needs no lane and completes; a query with signature groups
// waits, and fails with the sentinel of whatever ends the wait. Nothing is
// left behind: no lane, no goroutine, no job that ran.
func TestLaneWait(t *testing.T) {
	w, q := conflictFarm(4)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := w.cat.ByName("T")
	safeQ := &logic.UCQ{Name: "safe", Arity: 1, Clauses: []logic.CQ{{
		Head: []logic.Term{logic.V("v")},
		Body: []logic.Atom{newAtom(w.cat, tt, logic.C(w.u.Const("clean0")), logic.V("v"))},
	}}}

	pool := NewLanePool(1, nil)
	var waited atomic.Int64
	ctx := ContextWithLanes(context.Background(), pool, func(d time.Duration) { waited.Add(int64(d)) })
	var solves atomic.Int64
	hook := func(site, _ string) error {
		if site == faultSiteSolve {
			solves.Add(1)
		}
		return nil
	}
	before := runtime.NumGoroutine()
	if _, err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	res, err := ex.AnswerOpts(safeQ, Options{Ctx: ctx, Parallelism: 4})
	if err != nil {
		t.Fatalf("all-safe query under a held lane: %v", err)
	}
	if res.Answers.Len() != 1 || res.Stats.SafeAccepted != 1 || res.Stats.Programs != 0 {
		t.Fatalf("all-safe query: %d answers, stats %+v", res.Answers.Len(), res.Stats)
	}

	const hold = 20 * time.Millisecond
	for _, par := range []int{1, 4} {
		cctx, cancel := context.WithCancel(ctx)
		start := time.Now()
		stop := time.AfterFunc(hold, cancel)
		_, err := ex.AnswerOpts(q, Options{Ctx: cctx, Parallelism: par, FaultHook: hook})
		elapsed := time.Since(start)
		stop.Stop()
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("par %d: canceled lane wait: err = %v, want ErrCanceled", par, err)
		}
		if elapsed < hold {
			t.Fatalf("par %d: returned after %v, before the cancel at %v", par, elapsed, hold)
		}

		start = time.Now()
		_, err = ex.PossibleOpts(q, Options{Ctx: ctx, Timeout: hold, Parallelism: par, FaultHook: hook})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("par %d: lane wait past the deadline: err = %v, want ErrTimeout", par, err)
		}
		if elapsed := time.Since(start); elapsed < hold {
			t.Fatalf("par %d: returned after %v, before the %v deadline", par, elapsed, hold)
		}
	}
	if n := solves.Load(); n != 0 {
		t.Fatalf("%d job(s) reached the solver without a lane", n)
	}
	if d := time.Duration(waited.Load()); d < hold {
		t.Fatalf("wait callback summed %v, want at least %v", d, hold)
	}
	pool.Release()
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d lane(s) held after the waits ended", n)
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines: before=%d after=%d", before, after)
	}

	// With the lane free the same query solves.
	res, err = ex.AnswerOpts(q, Options{Ctx: ctx, Parallelism: 4, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Programs == 0 || solves.Load() == 0 {
		t.Fatalf("query after release solved nothing: stats %+v", res.Stats)
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d lane(s) held after the query returned", n)
	}
}

// TestLanesInterleaveQueries holds one lane between two queries. A
// one-group query asked while a 24-group query is solving gets the lane
// between two of the long query's jobs, so it returns first: a worker
// gives its lane back after every job instead of keeping it for the
// rest of its query.
func TestLanesInterleaveQueries(t *testing.T) {
	long, longQ := conflictFarm(24)
	short, shortQ := conflictFarm(1)
	exLong, err := NewExchange(long.m, long.src)
	if err != nil {
		t.Fatal(err)
	}
	exShort, err := NewExchange(short.m, short.src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithLanes(context.Background(), NewLanePool(1, nil), nil)
	started := make(chan struct{})
	var once sync.Once
	hook := func(site, _ string) error {
		if site == faultSiteSolve {
			once.Do(func() { close(started) })
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}
	longDone := make(chan error, 1)
	go func() {
		_, err := exLong.AnswerOpts(longQ, Options{Ctx: ctx, Parallelism: 2, FaultHook: hook})
		longDone <- err
	}()
	<-started
	res, err := exShort.AnswerOpts(shortQ, Options{Ctx: ctx, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Programs != 1 {
		t.Fatalf("short query solved %d programs, want 1", res.Stats.Programs)
	}
	select {
	case err := <-longDone:
		t.Fatalf("the one-group query waited for the whole 24-group query (err %v)", err)
	default:
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}
}
