package xr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultkit"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// This file pins the in-place decision of memo-complete signature groups
// (DESIGN.md §9.2): a warm ask whose groups the verdict memo decides runs
// no job — it takes no lane and records no per-signature span — yet its
// caller sees exactly what the job path would show: answers, Unknown
// sets, stats and one TraceEvent per group.

// unpublishWirings drops the published wiring and greedy decisions of
// every cached plan group, so the next ask of each group runs it as a job,
// which decides and wires it again.
func unpublishWirings(ex *Exchange) {
	for _, p := range cachedEntries[*queryPlan](ex) {
		for _, g := range p.groups {
			g.wired.Store(nil)
			g.decided(false).Store(nil)
			g.decided(true).Store(nil)
		}
	}
}

// greedyDecided reports whether the greedy repairs decide the group
// entirely under the semantics.
func greedyDecided(g *sigGroup, brave bool) bool {
	d := g.decided(brave).Load()
	return d != nil && d.complete
}

// decidedInPlace reports whether a warm ask decides the group in place:
// the greedy repairs decide it, or a job asked them and it wires some
// atom.
func decidedInPlace(g *sigGroup, brave bool) bool {
	w := g.wired.Load()
	return greedyDecided(g, brave) || g.decided(brave).Load() != nil && w != nil && len(w.atoms) > 0
}

// planOf returns the cached plan of q on ex.
func planOf(t *testing.T, ex *Exchange, q *logic.UCQ) *queryPlan {
	t.Helper()
	rq, err := ex.Red.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return ex.planFor(rq, nil)
}

// tracedAsk is one ask with its solver-trace events and the count of its
// per-signature and memo spans.
type tracedAsk struct {
	res        *Result
	evs        []TraceEvent
	sigs, memo int
}

func askTraced(ex *Exchange, q *logic.UCQ, brave bool, opts Options) (tracedAsk, error) {
	var a tracedAsk
	tr := telemetry.NewTracer()
	opts.Tracer = tr
	opts.Trace = func(ev TraceEvent) { a.evs = append(a.evs, ev) }
	res, err := ex.query(q, brave, opts)
	a.res = res
	for _, s := range tr.Spans() {
		switch {
		case strings.HasPrefix(s.Name, "signature {"):
			a.sigs++
		case s.Name == "memo":
			a.memo++
		}
	}
	return a, err
}

// requireSameEvents compares two asks' trace events, one per group, but
// for their wall times.
func requireSameEvents(t *testing.T, label string, want, got []TraceEvent) {
	t.Helper()
	norm := func(evs []TraceEvent) []TraceEvent {
		out := slices.Clone(evs)
		for i := range out {
			out[i].Duration = 0
		}
		slices.SortFunc(out, func(a, b TraceEvent) int { return cmp.Compare(a.SignatureKey, b.SignatureKey) })
		return out
	}
	if w, g := norm(want), norm(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: trace events differ from the job path's:\n got %+v\nwant %+v", label, g, w)
	}
}

// TestInPlaceTakesNoLane answers every query of genome M3 and of random
// weakly-acyclic scenarios cold, in both semantics, and then warm while a
// test holds the only lane of a 1-lane pool, in both semantics at
// Parallelism 1, 4 and 8. Every ask whose groups all have a greedy
// decision or wire some atom is decided in place: it returns without the
// lane, the pool times no lane wait, and its answers, Unknown set, stats
// and per-group trace events equal those of the job path, forced on a twin
// exchange with the same history. A done context still fails it. After
// every solver is poisoned, or a cache fault evicts a group's program, a
// group without a greedy decision needs a job again. It runs each scenario
// twice: with the greedy repairs forgotten, so that every group is decided
// on a persistent solver and the verdict memo decides it in place, and
// with them, so that greedy decisions are read in place too.
func TestInPlaceTakesNoLane(t *testing.T) {
	decided := map[bool]int{}
	for _, sc := range memoScenarios(t) {
		if sc.name == "genome-S3" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			for _, greedy := range []bool{false, true} {
				t.Run(fmt.Sprintf("greedy=%v", greedy), func(t *testing.T) {
					decided[greedy] += runInPlace(t, sc, greedy)
				})
			}
		})
	}
	for _, greedy := range []bool{false, true} {
		if decided[greedy] == 0 {
			t.Fatalf("greedy=%v: no ask was decided in place", greedy)
		}
	}
}

// runInPlace drives one scenario and returns the number of warm asks it
// saw decided in place. Unless greedy, the greedy repairs of both
// exchanges are forgotten before the first ask.
func runInPlace(t *testing.T, sc memoScenario, greedy bool) (decided int) {
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(sc.m, sc.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewExchange(sc.m, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	if !greedy {
		withoutGreedy(t, ex, sc.queries...)
		withoutGreedy(t, twin, sc.queries...)
	}
	for _, q := range sc.queries {
		for _, brave := range []bool{false, true} {
			for _, e := range []*Exchange{ex, twin} {
				if _, err := e.query(q, brave, Options{}); err != nil {
					t.Fatalf("cold %s: %v", q.Name, err)
				}
			}
		}
	}

	pool := NewLanePool(1, reg)
	waits := reg.Histogram("xr_lane_wait_seconds")
	if _, err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	lanes := ContextWithLanes(context.Background(), pool, nil)
	held := waits.Count()
	for _, q := range sc.queries {
		groups := planOf(t, ex, q).groups
		for _, brave := range []bool{false, true} {
			if slices.ContainsFunc(groups, func(g *sigGroup) bool { return !decidedInPlace(g, brave) }) {
				continue // a group with no greedy decision and no wired atom runs a session
			}
			for _, par := range []int{1, 4, 8} {
				label := fmt.Sprintf("%s brave=%v par=%d", q.Name, brave, par)
				ctx, cancel := context.WithTimeout(lanes, 10*time.Second)
				got, err := askTraced(ex, q, brave, Options{Ctx: ctx, Parallelism: par})
				cancel()
				if err != nil {
					t.Fatalf("%s: %v (did a decided ask wait for the lane?)", label, err)
				}
				unpublishWirings(twin)
				want, err := askTraced(twin, q, brave, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s on the job path: %v", label, err)
				}
				if want.sigs != len(groups) || want.memo != 0 {
					t.Fatalf("%s: the twin ran %d jobs and %d memo spans for %d groups", label, want.sigs, want.memo, len(groups))
				}
				requireCrossModeResult(t, label, want.res, got.res)
				requireSameUnknown(t, label, want.res, got.res)
				requireSameEvents(t, label, want.evs, got.evs)
				if got.sigs != 0 || got.memo != min(len(groups), 1) {
					t.Fatalf("%s: %d signature and %d memo spans for %d groups decided in place", label, got.sigs, got.memo, len(groups))
				}
				decided++
			}
			if len(groups) == 0 {
				continue
			}
			// A done context fails the ask, before or at a group's solve site.
			ctx, cancel := context.WithCancel(lanes)
			cancel()
			if _, err := ex.query(q, brave, Options{Ctx: ctx}); !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s brave=%v on a done context: %v", q.Name, brave, err)
			}
			ctx, cancel = context.WithCancel(lanes)
			_, err := ex.query(q, brave, Options{Ctx: ctx, Parallelism: 4, FaultHook: func(site, _ string) error {
				if site == faultSiteSolve {
					cancel()
				}
				return nil
			}})
			cancel()
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s brave=%v canceled at its solve site: %v", q.Name, brave, err)
			}
		}
	}
	if got := waits.Count(); got != held {
		t.Fatalf("asks decided in place timed %d lane waits", got-held)
	}
	if pool.InUse() != 1 {
		t.Fatalf("%d lanes in use, want only the test's", pool.InUse())
	}

	// After a poison no wiring belongs to a live solver: with the lane
	// held, an ask with a group not decided by the greedy repairs waits
	// for it. A greedy decision outlives the solver.
	eachSigProgram(ex, (*sigProgram).poison)
	for _, q := range sc.queries {
		groups := planOf(t, ex, q).groups
		if len(groups) == 0 {
			continue
		}
		ctx, cancel := context.WithTimeout(lanes, 20*time.Millisecond)
		_, err := ex.query(q, false, Options{Ctx: ctx})
		cancel()
		switch waits := slices.ContainsFunc(groups, func(g *sigGroup) bool { return !greedyDecided(g, false) }); {
		case waits && !errors.Is(err, ErrTimeout):
			t.Fatalf("%s after a poison with the lane held: %v, want a lane wait cut short", q.Name, err)
		case !waits && err != nil:
			t.Fatalf("%s after a poison, every group decided by greedy repairs: %v", q.Name, err)
		}
	}
	pool.Release()
	// Asked in reverse order, the rebuilt solvers wire their atoms in
	// another order than the poisoned ones did: a wiring checked against
	// the signature's live solver by anything less than its id would name
	// another query's atoms.
	asked := map[*queryPlan]bool{}
	for i := len(sc.queries) - 1; i >= 0; i-- {
		q := sc.queries[i]
		plan := planOf(t, ex, q)
		jobs := 0
		for _, g := range plan.groups {
			if !greedyDecided(g, false) {
				jobs++
			}
		}
		got, err := askTraced(ex, q, false, Options{Ctx: lanes, Parallelism: 4})
		if err != nil {
			t.Fatalf("%s after a poison: %v", q.Name, err)
		}
		requireSameExceptCacheHits(t, q.Name+" after a poison", freshResult(t, fresh, q, false, 1), got.res)
		if !asked[plan] && (got.sigs != jobs || got.memo != min(len(plan.groups)-jobs, 1)) {
			t.Fatalf("%s after a poison: %d jobs and %d memo spans for %d groups, want every group without a greedy decision a job", q.Name, got.sigs, got.memo, len(plan.groups))
		}
		asked[plan] = true
	}

	// A cache fault at a decided group's cache site evicts its program:
	// that group becomes a job, on a fresh solver, the others stay in
	// place, and every group passes its three fault sites once, in order.
	// That holds also when something fetches the evicted signature's
	// program again before the job does, as a concurrent ask may: the job
	// then finds it cached but does not fire its cache site again. Once
	// rewired the group is decided in place again.
	for _, q := range sc.queries {
		for _, brave := range []bool{false, true} {
			if _, err := ex.query(q, brave, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range sc.queries {
		groups := planOf(t, ex, q).groups
		if len(groups) < 2 || slices.ContainsFunc(groups[:2], func(g *sigGroup) bool { return !decidedInPlace(g, false) }) {
			continue
		}
		key := groups[0].key
		for _, refetched := range []bool{false, true} {
			label := fmt.Sprintf("%s, cache fault on {%s}, refetched=%v", q.Name, key, refetched)
			var mu sync.Mutex
			sites := map[string][]string{}
			hook := func(site, k string) error {
				mu.Lock()
				defer mu.Unlock()
				sites[k] = append(sites[k], site)
				switch {
				case site == faultSiteCache && k == key && len(sites[k]) == 1:
					return faultkit.ErrInjected
				case site == faultSiteCache && k == groups[1].key && refetched:
					// groups[1] is decided in place after groups[0] was
					// evicted and before its job runs.
					ex.sigProgramFor(key, groups[0].sig, nil)
				}
				return nil
			}
			got, err := askTraced(ex, q, false, Options{Ctx: lanes, Parallelism: 4, FaultHook: hook})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.sigs != 1 {
				t.Fatalf("%s: %d jobs, want one", label, got.sigs)
			}
			for _, g := range groups {
				if want := []string{faultSiteCache, faultSiteGround, faultSiteSolve}; !slices.Equal(sites[g.key], want) {
					t.Fatalf("%s: {%s} passed fault sites %v, want %v", label, g.key, sites[g.key], want)
				}
			}
			for _, ev := range got.evs {
				if want := ev.SignatureKey != key || refetched; ev.CacheHit != want {
					t.Fatalf("%s: {%s} traced with cache hit %v", label, ev.SignatureKey, ev.CacheHit)
				}
			}
			requireSameExceptCacheHits(t, label, freshResult(t, fresh, q, false, 1), got.res)
			again, err := askTraced(ex, q, false, Options{Ctx: lanes, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if again.sigs != 0 {
				t.Fatalf("%s: %d jobs on the ask after the rewire, want none", label, again.sigs)
			}
		}
		break
	}
	return decided
}
