package xr

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/telemetry"
)

// degradeWorld returns a conflict farm with n conflicted signatures plus a
// fresh exchange over it.
func degradeExchange(t *testing.T, n int) (*tw, *Exchange, []string) {
	t.Helper()
	w, _ := conflictFarm(n)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	q := w.queryT()
	full, err := ex.AnswerOpts(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w, ex, tupleStrings(full)
}

func join(ss []string) string { return strings.Join(ss, "|") }

// TestSignatureTimeoutStrict: an expired per-signature timeout without
// Partial fails the query with ErrTimeout; the sibling-cancelling
// WithTimeout behavior is unchanged.
func TestSignatureTimeoutStrict(t *testing.T) {
	w, _ := conflictFarm(3)
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	sleepy := func(site, key string) error {
		if site == faultSiteSolve {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	_, err = ex.AnswerOpts(w.queryT(), Options{
		SignatureTimeout: time.Millisecond,
		FaultHook:        sleepy,
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("strict signature timeout returned %v, want ErrTimeout", err)
	}
}

// TestSignatureTimeoutPartial: with Partial on, timed-out signatures
// degrade to unknown and the rest of the query completes; the partial
// answers are a subset of the full ones and nothing is lost outside
// Unknown.
func TestSignatureTimeoutPartial(t *testing.T) {
	w, ex, full := degradeExchange(t, 3)
	sleepy := func(site, key string) error {
		if site == faultSiteSolve {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	res, err := ex.AnswerOpts(w.queryT(), Options{
		SignatureTimeout: time.Millisecond,
		FaultHook:        sleepy,
		Partial:          true,
	})
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("no signature degraded under a 1ms timeout with a 30ms solve delay")
	}
	for _, d := range res.Degraded {
		if !errors.Is(d.Err, ErrTimeout) {
			t.Fatalf("degraded {%s} with %v, want ErrTimeout", d.Signature, d.Err)
		}
		if d.Tuples == 0 {
			t.Fatalf("degraded {%s} reports zero tuples", d.Signature)
		}
	}
	if res.Stats.DegradedSignatures != len(res.Degraded) {
		t.Fatalf("stats report %d degraded, Degraded has %d", res.Stats.DegradedSignatures, len(res.Degraded))
	}
	if res.Unknown.Len() != res.Stats.UnknownTuples {
		t.Fatalf("stats report %d unknown, Unknown has %d", res.Stats.UnknownTuples, res.Unknown.Len())
	}
	assertSoundPartial(t, full, res)
}

// assertSoundPartial checks the two containments of DESIGN.md §11 against
// a complete reference run: partial ⊆ full (sound: no fabricated answers)
// and full ⊆ partial ∪ unknown (complete modulo Unknown: nothing silently
// lost).
func assertSoundPartial(t *testing.T, full []string, partial *Result) {
	t.Helper()
	fullSet := make(map[string]bool, len(full))
	for _, s := range full {
		fullSet[s] = true
	}
	partialSet := make(map[string]bool)
	for _, s := range tupleStrings(partial) {
		if !fullSet[s] {
			t.Fatalf("partial answer %q is not a certain answer (unsound)", s)
		}
		partialSet[s] = true
	}
	unknown := make(map[string]bool)
	if partial.Unknown != nil {
		for _, row := range partial.Unknown.Tuples() {
			key := instance.EncodeTuple(row)
			unknown[key] = true
			if partialSet[key] {
				t.Fatalf("tuple %q is both answered and unknown", key)
			}
		}
	}
	for s := range fullSet {
		if !partialSet[s] && !unknown[s] {
			t.Fatalf("certain answer %q silently lost (not in partial answers or unknown)", s)
		}
	}
}

// TestBudgetDegradePartial: a 1-decision budget exhausts every conflicted
// signature; in strict mode the query fails with ErrBudget, in partial
// mode it degrades soundly and counts one retry per degraded signature.
func TestBudgetDegradePartial(t *testing.T) {
	w, _, full := degradeExchange(t, 4)
	q := w.queryT()
	// A fresh exchange: the persistent solvers of the full run keep their
	// learned clauses and verdict memos, which would let them finish by
	// propagation alone or without a session, and a budget counted in
	// decisions would never exhaust. Its greedy repairs would decide the
	// groups without a session too.
	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	withoutGreedy(t, ex, q)

	_, err = ex.AnswerOpts(q, Options{MaxDecisions: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("strict budget exhaustion returned %v, want ErrBudget", err)
	}

	reg := telemetry.NewRegistry()
	res, err := ex.AnswerOpts(q, Options{MaxDecisions: 1, Partial: true, Metrics: reg})
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("1-decision budget degraded nothing")
	}
	for _, d := range res.Degraded {
		if !errors.Is(d.Err, ErrBudget) {
			t.Fatalf("degraded {%s} with %v, want ErrBudget", d.Signature, d.Err)
		}
		if d.Retries != 1 {
			t.Fatalf("degraded {%s} after %d retries, want exactly 1", d.Signature, d.Retries)
		}
	}
	assertSoundPartial(t, full, res)

	snap := reg.Snapshot()
	if got := snap.Counters["xr_signatures_degraded_total"]; got != int64(len(res.Degraded)) {
		t.Fatalf("xr_signatures_degraded_total = %d, want %d", got, len(res.Degraded))
	}
	if got := snap.Counters["xr_partial_queries_total"]; got != 1 {
		t.Fatalf("xr_partial_queries_total = %d, want 1", got)
	}
	if got := snap.Counters["xr_signature_retries_total"]; got != int64(res.Stats.Retries) {
		t.Fatalf("xr_signature_retries_total = %d, want %d", got, res.Stats.Retries)
	}
}

// TestBudgetRetrySucceeds: with the budget set to the exact decision count
// of a clean run, the first attempt exhausts (the loop's budget check
// fires after the final decision) and the doubled-budget retry completes —
// the query returns the full answers with Retries counted and nothing
// degraded.
func TestBudgetRetrySucceeds(t *testing.T) {
	w, _ := conflictFarm(1)
	q := w.queryT()

	// Measure the clean per-signature decision count on a throwaway
	// exchange (the budget run below uses a fresh one so no learned clauses
	// carry over). Both forget their greedy repairs, which would otherwise
	// decide the group without a session and so without decisions.
	exClean, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	withoutGreedy(t, exClean, q)
	var dmax int64
	fullRes, err := exClean.AnswerOpts(q, Options{Trace: func(ev TraceEvent) {
		if ev.Decisions > dmax {
			dmax = ev.Decisions
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if dmax == 0 {
		t.Skip("conflicted signature solved without decisions; cannot stage a retry")
	}

	ex, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	withoutGreedy(t, ex, q)
	res, err := ex.AnswerOpts(q, Options{MaxDecisions: dmax, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("retry at 2x budget still degraded: %+v", res.Degraded)
	}
	if res.Stats.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (first attempt must exhaust at exactly dmax=%d)", res.Stats.Retries, dmax)
	}
	want, got := tupleStrings(fullRes), tupleStrings(res)
	if len(want) != len(got) {
		t.Fatalf("retry run found %d answers, clean run %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("answer %d differs after retry: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestPanicContainmentParallel: a panic injected into one signature at
// Parallelism 8 fails only that signature. In partial mode the panic is
// recorded as a degraded signature whose error matches ErrInternal and
// carries the stack; sibling signatures are answered normally. In strict
// mode the query fails with an error matching ErrInternal — but the
// process never crashes either way.
func TestPanicContainmentParallel(t *testing.T) {
	w, ex, full := degradeExchange(t, 8)
	q := w.queryT()
	// Pick a real signature key deterministically: keys are cluster-index
	// lists; with 8 conflicts there are 8 singleton clusters, so "0" exists.
	panicKey := "0"
	hook := func(site, key string) error {
		if site == faultSiteSolve && key == panicKey {
			panic("injected: corrupted signature program")
		}
		return nil
	}

	// Strict mode: contained, reported, not crashed.
	_, err := ex.AnswerOpts(q, Options{Parallelism: 8, FaultHook: hook})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("strict panic returned %v, want ErrInternal", err)
	}

	// Partial mode: only the poisoned signature degrades.
	res, err := ex.AnswerOpts(q, Options{Parallelism: 8, FaultHook: hook, Partial: true})
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if len(res.Degraded) != 1 {
		t.Fatalf("%d signatures degraded, want exactly the poisoned one", len(res.Degraded))
	}
	d := res.Degraded[0]
	if d.Signature != panicKey {
		t.Fatalf("degraded {%s}, want {%s}", d.Signature, panicKey)
	}
	if !errors.Is(d.Err, ErrInternal) {
		t.Fatalf("degraded error %v does not match ErrInternal", d.Err)
	}
	var ie *InternalError
	if !errors.As(d.Err, &ie) {
		t.Fatalf("degraded error %v is not an *InternalError", d.Err)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("InternalError carries no stack")
	}
	if d.Retries != 0 {
		t.Fatalf("panic was retried %d times; panics are not retryable", d.Retries)
	}
	assertSoundPartial(t, full, res)
	// Siblings unchanged: every certain answer outside the poisoned
	// signature's unknown set must still be answered. (Unknown holds the
	// poisoned signature's candidates, most of which are not certain
	// answers, so answers+unknown can legitimately exceed full.)
	unknown := make(map[string]bool)
	for _, row := range res.Unknown.Tuples() {
		unknown[instance.EncodeTuple(row)] = true
	}
	got := make(map[string]bool)
	for _, s := range tupleStrings(res) {
		got[s] = true
	}
	for _, s := range full {
		if !unknown[s] && !got[s] {
			t.Fatalf("sibling answer %q lost", s)
		}
	}
}

// TestPoisonedSolverPanicRebuilds drives the poison path: a panic inside
// one signature's session on its persistent solver fails a strict query
// with ErrInternal and degrades the signature with cause "panic" under
// Partial. Either way the solver is discarded with its verdict memo, and
// the next query rebuilds exactly that one, decides its group by a
// session, and answers like a fresh Exchange.
func TestPoisonedSolverPanicRebuilds(t *testing.T) {
	w, _ := conflictFarm(8)
	q := w.queryT()
	reg := telemetry.NewRegistry()
	ex, err := NewExchangeOpts(w.m, w.src, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewExchange(w.m, w.src)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 8, Partial: true}
	want, err := fresh.AnswerOpts(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	withoutGreedy(t, ex, q)
	if _, err := ex.AnswerOpts(q, opts); err != nil { // build every solver
		t.Fatal(err)
	}
	const key = "0"
	sabotage := func() {
		sp := ex.state.program(key)
		sp.incMu.Lock()
		sp.inc.solver = nil // the next session on this signature panics
		sp.inc.forget()     // and the memo cannot spare the query that session
		sp.incMu.Unlock()
	}
	builds := reg.Counter("xr_solver_reuse_builds_total")
	requireRebuilt := func(label string) {
		t.Helper()
		before := builds.Value()
		var rebuilt TraceEvent
		traced := opts
		traced.Trace = func(ev TraceEvent) {
			if ev.SignatureKey == key {
				rebuilt = ev
			}
		}
		res, err := ex.AnswerOpts(q, traced)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := builds.Value() - before; got != 1 {
			t.Fatalf("%s: rebuilt %d solvers, want 1", label, got)
		}
		// The rebuilt solver starts with an empty memo: its first query
		// runs a session instead of reading old verdicts.
		if rebuilt.SolverReused || rebuilt.AssumptionSolves == 0 {
			t.Fatalf("%s: rebuilt solver answered {%s} without a session: %+v", label, key, rebuilt)
		}
		if len(res.Degraded) != 0 || join(tupleStrings(res)) != join(tupleStrings(want)) {
			t.Fatalf("%s: answers %v (degraded %v), want %v", label, tupleStrings(res), res.Degraded, tupleStrings(want))
		}
		requireSameUnknown(t, label, want, res)
	}

	sabotage()
	if _, err := ex.AnswerOpts(q, Options{Parallelism: 8}); !errors.Is(err, ErrInternal) {
		t.Fatalf("strict query after a session panic returned %v, want ErrInternal", err)
	}
	requireRebuilt("after strict")

	sabotage()
	res, err := ex.AnswerOpts(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Signature != key || res.Degraded[0].Cause() != "panic" {
		t.Fatalf("degraded = %+v, want signature {%s} with cause panic", res.Degraded, key)
	}
	requireRebuilt("after partial")
}

// TestMonolithicPanicContainment: the monolithic engine converts a
// per-query panic to an ErrInternal recorded against that query alone;
// sibling queries at Parallelism 8 are unaffected.
func TestMonolithicPanicContainment(t *testing.T) {
	w, _ := conflictFarm(2)
	q1, q2 := w.queryT(), w.queryT()
	q2.Name = "q2"
	hook := func(site, key string) error {
		if key == "q2" {
			panic("injected: monolithic worker panic")
		}
		return nil
	}
	res, err := Monolithic(w.m, w.src, []*logic.UCQ{q1, q2}, Options{
		Parallelism: 8,
		FaultHook:   hook,
	})
	if err != nil {
		t.Fatalf("call-level error %v; a per-query panic must be contained", err)
	}
	if res[0].Err != nil {
		t.Fatalf("healthy query carries error %v", res[0].Err)
	}
	if len(tupleStrings(res[0])) == 0 {
		t.Fatal("healthy query lost its answers")
	}
	if !errors.Is(res[1].Err, ErrInternal) {
		t.Fatalf("poisoned query error %v, want ErrInternal", res[1].Err)
	}
	var ie *InternalError
	if !errors.As(res[1].Err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("poisoned query error %v lacks a captured stack", res[1].Err)
	}
}

// TestDegradationDeterministic: budget-driven degradation is reproducible —
// answers, unknown tuples, and degraded signatures are identical across
// runs and parallelism settings. The greedy repairs decide every group of
// the farm's query, so each exchange forgets them and the budgeted ask
// reaches the sessions.
func TestDegradationDeterministic(t *testing.T) {
	w, _ := conflictFarm(6)
	q := w.queryT()
	run := func(par int) (string, string, string) {
		ex, err := NewExchange(w.m, w.src)
		if err != nil {
			t.Fatal(err)
		}
		withoutGreedy(t, ex, q)
		res, err := ex.AnswerOpts(q, Options{MaxDecisions: 1, Partial: true, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var degraded []string
		for _, d := range res.Degraded {
			degraded = append(degraded, d.Signature)
		}
		var unknown []string
		for _, row := range res.Unknown.Tuples() {
			unknown = append(unknown, instance.EncodeTuple(row))
		}
		return join(tupleStrings(res)), join(unknown), join(degraded)
	}
	a1, u1, d1 := run(1)
	if d1 == "" {
		t.Fatal("no signature degraded under a one-decision budget; the test would compare nothing")
	}
	a2, u2, d2 := run(8)
	if a1 != a2 || u1 != u2 || d1 != d2 {
		t.Fatalf("degradation diverges across parallelism:\nanswers %q vs %q\nunknown %q vs %q\ndegraded %q vs %q",
			a1, a2, u1, u2, d1, d2)
	}
	a3, u3, d3 := run(1)
	if a1 != a3 || u1 != u3 || d1 != d3 {
		t.Fatal("degradation diverges run to run at parallelism 1")
	}
}
