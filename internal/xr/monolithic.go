package xr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/telemetry"
)

// Monolithic computes the XR-Certain answers of the queries using the
// paper's Section 4/5.2 approach: per query, reduce the mapping to
// gav+(gav, egd) (Theorem 1), build one disjunctive logic program whose
// stable models are the canonical XR-solutions (Theorem 2), and compute
// cautious answers (Corollary 1).
//
// As in the paper, the cost of the exchange (the chase) is embedded in
// every individual query: the quasi-solution and grounding are recomputed
// per query. A per-query timeout or a canceled call context is recorded in
// that query's Result.Err (matching ErrTimeout / ErrCanceled under
// errors.Is); only genuine failures surface as the call error.
//
// Of the options it honours Ctx, Timeout (per query), Parallelism (queries
// solved concurrently), Trace, Metrics, Tracer (one span per query
// program) and FaultHook (the "solve" site, keyed by query name).
func Monolithic(m *mapping.Mapping, src *instance.Instance, queries []*logic.UCQ, opts Options) ([]*Result, error) {
	red, rqs, err := prepare(m, queries)
	if err != nil {
		return nil, err
	}
	o := opts.serialized()
	o.Timeout = 0 // applied per query below, not to the whole call
	mt := newMeters(o.Metrics)
	ctx, cancel := o.begin()
	defer cancel()

	results := make([]*Result, len(queries))
	ferr := forEachWorker(ctx, o.workers(), len(queries), func(ctx context.Context, worker, i int) error {
		start := time.Now()
		span := o.Tracer.StartSpan(telemetry.NoSpan, "query "+queries[i].Name+" [monolithic]")
		span.SetLane(worker)
		defer span.End()
		qctx := ctx
		if opts.Timeout > 0 {
			var qcancel context.CancelFunc
			qctx, qcancel = context.WithTimeout(ctx, opts.Timeout)
			defer qcancel()
		}
		res, err := monolithicGuarded(qctx, red.M, src, rqs[i], o.Trace, mt, queries[i].Name, o.FaultHook)
		if err != nil && !isSentinel(err) && !errors.Is(err, ErrInternal) {
			return fmt.Errorf("xr: query %s: %w", queries[i].Name, err)
		}
		if res == nil {
			// A panic converted to ErrInternal left no result; contain the
			// failure to this query like a per-query timeout.
			res = &Result{Answers: cq.NewAnswerSet()}
		}
		if cerr := ctxErr(ctx); cerr != nil {
			return cerr // the whole call is canceled, not just this query
		}
		res.Query = queries[i]
		res.Err = err
		res.Stats.Duration = time.Since(start)
		mt.recordQuery("monolithic", res.Stats)
		results[i] = res
		return nil
	})
	if ferr != nil && !isSentinel(ferr) {
		return nil, ferr
	}
	for i := range results {
		if results[i] == nil { // skipped because the call was canceled
			results[i] = &Result{Query: queries[i], Answers: cq.NewAnswerSet(), Err: ferr}
		}
	}
	return results, nil
}

// monolithicGuarded runs one query's pipeline with panic containment: a
// panic anywhere in the chase/ground/solve path becomes an *InternalError
// recorded against this query alone, so a corrupted program fails one
// query, not the whole call (or the process).
func monolithicGuarded(ctx context.Context, gm *mapping.Mapping, src *instance.Instance, rq *logic.UCQ, trace func(TraceEvent), mt *meters, qname string, hook func(site, key string) error) (res *Result, err error) {
	defer recoverInternal("monolithic query "+qname, &err)
	if hook != nil {
		if herr := hook(faultSiteSolve, qname); herr != nil {
			return nil, fmt.Errorf("solving query program: %w", herr)
		}
	}
	return monolithicOne(ctx, gm, src, rq, trace, mt, qname)
}

func monolithicOne(ctx context.Context, gm *mapping.Mapping, src *instance.Instance, rq *logic.UCQ, trace func(TraceEvent), mt *meters, qname string) (*Result, error) {
	res := &Result{Answers: cq.NewAnswerSet()}
	if len(rq.Clauses) == 0 {
		return res, nil
	}
	// Exchange embedded in the query: chase now.
	prov, err := chase.GAV(gm, src)
	if err != nil {
		return nil, err
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return res, cerr
	}
	return solveProgram(ctx, prov, rq, res, trace, mt, qname)
}

// solveProgram grounds the program of the whole exchange, adds the query
// candidates, and runs cautious reasoning under ctx.
func solveProgram(ctx context.Context, prov *chase.Provenance, rq *logic.UCQ, res *Result, trace func(TraceEvent), mt *meters, qname string) (*Result, error) {
	start := time.Now()
	cands := collectCandidates(rq, prov)
	res.Stats.Candidates += len(cands)
	if len(cands) == 0 {
		return res, nil
	}
	enc := wholeEncoder(prov, nil)
	atoms := make([]asp.AtomID, 0, len(cands))
	live := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		qa, any := enc.addCandidate(c)
		if !any {
			continue
		}
		atoms = append(atoms, qa)
		live = append(live, c)
	}
	res.Stats.Programs++

	solver := asp.NewStableSolver(enc.gp)
	solver.SetContext(ctx)
	solver.Acceptor = enc.maximalityAcceptor(solver)
	kept, hasModel := solver.Cautious(atoms)
	if trace != nil || mt != nil {
		ev := TraceEvent{
			Engine:     "monolithic",
			Query:      qname,
			RequestID:  telemetry.RequestIDFromContext(ctx),
			Candidates: len(atoms),
			Atoms:      enc.gp.NumAtoms(),
			Rules:      enc.gp.NumRules(),
			Stats:      solver.Stats(),
			Duration:   time.Since(start),
		}
		mt.recordProgram(ev)
		if trace != nil {
			trace(ev)
		}
	}
	if solver.Canceled() {
		// The search was cut short: Cautious's partial narrowing must not
		// be trusted (it over-approximates). Report the sentinel; Answers
		// hold only what was decided before solving began.
		if cerr := ctxErr(ctx); cerr != nil {
			return res, cerr
		}
		return res, ErrCanceled
	}
	if !hasModel {
		return nil, fmt.Errorf("xr: internal error: program has no stable model (repairs always exist)")
	}
	keptSet := make(map[asp.AtomID]bool, len(kept))
	for _, a := range kept {
		keptSet[a] = true
	}
	for i, c := range live {
		if keptSet[atoms[i]] {
			res.Answers.Add(c.tuple)
			res.Stats.SolverAccepted++
		}
	}
	return res, nil
}
