package xr

import (
	"context"
	"errors"
	"slices"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/explain"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/symtab"
)

// This file computes per-tuple explanations (Options.Explain): why each
// candidate of a segmentary query was accepted, rejected, or left unknown.
//
// The core idea (DESIGN.md §13): a candidate tuple t with query atom qa is
// XR-certain iff qa holds in every stable model of its signature program,
// iff the program has no stable model under the assumption ¬qa. So one
// witness solve per candidate decides it and, on rejection, the stable
// model found IS a counterexample exchange-repair of the signature's
// sub-world — the deleted "suspect" source facts and the derived facts that
// disappear with them. For brave (possible) queries the assumption is qa
// itself and a model is a supporting repair.
//
// Determinism: the pass builds ONE fresh solver per signature group — a
// fresh specialization of the frozen base program with every group
// candidate wired in — and decides the candidates in order, each as an
// incremental session under its own qa assumption (DESIGN.md §17). It
// never uses the signature's persistent solver: the clauses that solver
// learned depend on the exchange's query history and steer the SAT
// search, which would change *which* witness model is found first.
// Starting every group from the identical clause database, with candidate
// order fixed by collection order, makes the witnesses — and with them the
// rendered output — byte-identical at any Parallelism and whatever the
// exchange answered before. Within a group, knowledge the solver
// accumulates (loop formulas, maximality clauses, CDCL learnt clauses)
// legally carries from one candidate's session to the next, which is what
// makes the pass cheap enough to serve routinely.

// explainGroup explains every candidate of one signature group. A degraded
// group (out.degraded != nil) yields Unknown explanations without solving;
// otherwise the group's candidates share one fresh solver and each gets
// its own witness session.
func (ex *Exchange) explainGroup(ctx context.Context, key string, g *sigGroup, out *groupOutcome, brave bool, qname string) (es []*explain.Explanation, err error) {
	es = make([]*explain.Explanation, 0, len(g.cands))
	if out.degraded != nil {
		cause := classifyCause(out.degraded.Err)
		for _, c := range g.cands {
			es = append(es, &explain.Explanation{
				Query:     qname,
				Tuple:     c.tuple,
				Verdict:   explain.Unknown,
				Signature: key,
				Clusters:  ex.clusterInfos(g.sig),
				Support:   ex.supportClosure(c),
				Cause:     cause,
				Retries:   out.degraded.Retries,
			})
		}
		return es, nil
	}
	defer recoverInternal("explain signature {"+key+"}", &err)
	sp, _ := ex.sigProgramFor(key)
	sp.ensure(ex, g.sig)

	spec := sp.enc.specialize()
	qas := make([]asp.AtomID, len(g.cands))
	wired := make([]bool, len(g.cands))
	for i, c := range g.cands {
		qas[i], wired[i] = spec.addCandidate(c)
	}
	solver := asp.NewStableSolver(spec.gp)
	solver.SetContext(ctx)
	solver.Acceptor = spec.acceptorWithIndex(sp.idx, solver, nil)
	for i, c := range g.cands {
		e, cerr := ex.explainCandidate(ctx, solver, spec, key, g.sig, c, qas[i], wired[i], brave, qname)
		if cerr != nil {
			return nil, cerr
		}
		es = append(es, e)
	}
	return es, nil
}

// explainCandidate runs one witness session for a non-safe candidate on
// the group's shared solver.
func (ex *Exchange) explainCandidate(ctx context.Context, solver *asp.StableSolver, spec *encoder, key string, sig []int, c *candidate, qa asp.AtomID, wired, brave bool, qname string) (*explain.Explanation, error) {
	e := &explain.Explanation{
		Query:     qname,
		Tuple:     c.tuple,
		Signature: key,
		Clusters:  ex.clusterInfos(sig),
		Support:   ex.supportClosure(c),
	}
	if !wired {
		e.Verdict = explain.NoSupport
		return e, nil
	}
	// Certain path: assume qa false — a stable model is a repair whose
	// solution misses the tuple (the reduct fixpoint blocks models that
	// merely *assign* qa false while it is derivable, so satisfying models
	// are genuine counterexamples). Brave path: assume qa true — a stable
	// model is a repair whose solution contains the tuple.
	before := solver.CandidatesTested
	sess := solver.StartSession([]asp.AtomAssumption{{Atom: qa, True: brave}})
	m := sess.NextStable()
	sess.Close()
	if solver.Canceled() {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, ErrCanceled
	}
	e.ModelsExamined = solver.CandidatesTested - before
	if m == nil {
		if brave {
			e.Verdict = explain.Impossible
		} else {
			e.Verdict = explain.Certain
		}
		return e, nil
	}
	if brave {
		e.Verdict = explain.Possible
	} else {
		e.Verdict = explain.Rejected
	}
	e.Witness = spec.witnessFromModel(m)
	return e, nil
}

// safeExplanation explains a candidate accepted without solving: some
// support lies entirely in the safe part, so every repair derives it.
func (ex *Exchange) safeExplanation(c *candidate, qname string) *explain.Explanation {
	return &explain.Explanation{
		Query:   qname,
		Tuple:   c.tuple,
		Verdict: explain.Safe,
		Support: ex.supportClosure(c),
	}
}

// supportClosure returns every fact (source and derived) transitively
// grounding the candidate's supports in the quasi-solution, sorted.
func (ex *Exchange) supportClosure(c *candidate) []chase.FactID {
	seed := make([]chase.FactID, 0, 8)
	for _, set := range c.supports {
		seed = append(seed, set...)
	}
	closure := ex.Prov.SupportClosure(seed)
	out := make([]chase.FactID, 0, len(closure))
	for f := range closure {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// clusterInfos summarizes the clusters of a signature for an explanation.
func (ex *Exchange) clusterInfos(sig []int) []explain.ClusterInfo {
	out := make([]explain.ClusterInfo, 0, len(sig))
	for _, ci := range sig {
		cl := ex.Clusters[ci]
		out = append(out, explain.ClusterInfo{
			ID:            ci,
			Violations:    len(cl.Violations),
			EnvelopeSize:  len(cl.SourceEnvelope),
			InfluenceSize: len(cl.Influence),
		})
	}
	return out
}

// witnessFromModel extracts the exchange-repair a stable model describes:
// dropped vs kept suspect sources, and the derived facts of the sub-world
// absent from the repair's solution. Iteration is over sorted FactIDs so
// the witness is a pure function of the model.
func (e *encoder) witnessFromModel(m []bool) *explain.Witness {
	w := &explain.Witness{}
	del := append([]chase.FactID(nil), e.deletable...)
	slices.Sort(del)
	for _, f := range del {
		if m[e.d[f]] {
			w.DroppedSource = append(w.DroppedSource, f)
		} else {
			w.KeptSuspect = append(w.KeptSuspect, f)
		}
	}
	derived := make([]chase.FactID, 0, len(e.r))
	for f := range e.r {
		if !e.prov.IsSource(f) {
			derived = append(derived, f)
		}
	}
	slices.Sort(derived)
	for _, f := range derived {
		if !m[e.r[f]] {
			w.MissingTarget = append(w.MissingTarget, f)
		}
	}
	return w
}

// classifyCause maps a degradation error to a stable token for
// Explanation.Cause (raw error text carries nondeterministic panic stacks).
func classifyCause(err error) string {
	switch {
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrInternal):
		return "panic"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// ExplainTuple explains one specific tuple of q under XR-Certain semantics
// (the -why path): the query runs with explanations on and the matching
// explanation is returned. A tuple with no support in the quasi-solution —
// including one that is not an answer to q at all — yields a NoSupport
// explanation: such a tuple is trivially not XR-certain.
func (ex *Exchange) ExplainTuple(q *logic.UCQ, tuple []symtab.Value, opts Options) (*explain.Explanation, error) {
	opts.Explain = true
	res, err := ex.AnswerOpts(q, opts)
	if err != nil {
		return nil, err
	}
	want := instance.EncodeTuple(tuple)
	for _, e := range res.Explanations {
		if instance.EncodeTuple(e.Tuple) == want {
			return e, nil
		}
	}
	return &explain.Explanation{Query: q.Name, Tuple: tuple, Verdict: explain.NoSupport}, nil
}
