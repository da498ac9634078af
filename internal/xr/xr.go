// Package xr implements the paper's primary contribution: XR-Certain query
// answering for data exchange under inconsistency-tolerant semantics.
//
// It provides:
//
//   - the Figure 1 / Theorem 2 encoding of the XR-solutions of a source
//     instance as the stable models of a disjunctive logic program,
//     partially evaluated against the canonical quasi-solution;
//   - the monolithic pipeline (Section 5.2): one DLP per (query, instance);
//   - the segmentary pipeline (Section 6): a query-independent exchange
//     phase computing repair envelopes, violation clusters and influences,
//     and a query phase solving one small DLP per fact signature;
//   - a brute-force reference implementation that enumerates source repairs
//     explicitly (exponential; for validation on small instances).
package xr

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/explain"
	"repro/internal/gavreduce"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/symtab"
)

// Result holds the XR-Certain answers of one query.
type Result struct {
	Query   *logic.UCQ
	Answers *cq.AnswerSet
	// Unknown holds the candidate tuples of degraded signature groups when
	// the query ran with Options.Partial (segmentary engines only; nil
	// otherwise, and empty on an undegraded partial query). Answers and
	// Unknown are disjoint; Answers under-approximates the exact certain
	// answers and Answers ∪ Unknown over-approximates them, so both bounds
	// are sound (DESIGN.md §11).
	Unknown *cq.AnswerSet
	// Degraded reports each undecided signature group of a Partial query,
	// in canonical signature-key order (deterministic at any Parallelism
	// when degradation is driven by MaxDecisions/MaxConflicts).
	Degraded []SignatureError
	// Explanations holds one entry per candidate tuple, in candidate
	// collection order, when the query ran with Options.Explain (segmentary
	// engines only; nil otherwise). See internal/explain.
	Explanations []*explain.Explanation
	Stats        QueryStats
	// Err is ErrTimeout when the query exceeded its solving budget; the
	// Answers are then a lower bound (possibly empty).
	Err error
}

// QueryStats records per-query execution measurements. Per-program
// grounding sizes are not summed here: they live on TraceEvent and in the
// xr_program_ground_* counters.
//
// QueryStats is part of the JSON wire format: the root Answers and the
// server's NDJSON stats frame embed it, so its snake_case field names and
// their order are a compatibility contract (DESIGN.md §14); the duration
// travels as integer nanoseconds.
type QueryStats struct {
	Candidates     int `json:"candidates"`      // candidate answers (Definition 2 upper bound)
	SafeAccepted   int `json:"safe_accepted"`   // candidates accepted without solving
	SolverAccepted int `json:"solver_accepted"` // candidates accepted by cautious reasoning
	Programs       int `json:"programs"`        // DLP programs solved
	CacheHits      int `json:"cache_hits"`      // programs served from the signature-program cache

	DegradedSignatures int `json:"degraded_signatures"` // signature groups left undecided (Partial mode)
	UnknownTuples      int `json:"unknown_tuples"`      // candidate tuples moved to Unknown
	Retries            int `json:"retries"`             // signature retries with a doubled budget

	Duration time.Duration `json:"duration_ns"`
}

// candidate is one candidate answer tuple with its support sets (ground
// clause-body matches in the canonical quasi-solution).
type candidate struct {
	tuple    []symtab.Value
	supports [][]chase.FactID
	rank     int // position in collection order, which is key order
}

// collectCandidates evaluates the (rewritten) UCQ over the quasi-solution
// and returns each distinct answer tuple with all of its support sets.
func collectCandidates(rq *logic.UCQ, prov *chase.Provenance) []*candidate {
	byKey := make(map[string]*candidate)
	var order []string
	for ci := range rq.Clauses {
		c := &rq.Clauses[ci]
		plan := cq.Compile(c.Body)
		plan.ForEachDelta(prov.Instance, 0, func(env []symtab.Value, rank []uint64, _ []int) bool {
			tuple := make([]symtab.Value, len(c.Head))
			for i, t := range c.Head {
				if t.IsVar() {
					tuple[i] = env[plan.VarSlot[t.Var]]
				} else {
					tuple[i] = t.Val
				}
			}
			// rank holds the generation of the tuple matched at each body
			// atom, which names its fact without re-encoding the arguments.
			support := make([]chase.FactID, len(rank))
			for i, g := range rank {
				id, ok := prov.FactIDOfGen(g)
				if !ok {
					panic("xr: candidate support fact not in provenance")
				}
				support[i] = id
			}
			slices.Sort(support)
			k := instance.EncodeTuple(tuple)
			cand, ok := byKey[k]
			if !ok {
				cand = &candidate{tuple: tuple}
				byKey[k] = cand
				order = append(order, k)
			}
			cand.supports = append(cand.supports, support)
			return true
		})
	}
	// Canonical order: plan iteration follows the instance's indexes, whose
	// order is not stable run to run. Downstream the candidate order steers
	// solver assumption testing and the Explanations slice, and the support
	// order steers candidate rule wiring (and through clause watches, the
	// effort counters the profiler records), so sort both: supports
	// lexicographically (each set is sorted by fact id), which brings equal
	// sets together (a repeated clause, or a self-join matched both ways) so
	// one compaction pass dedups them.
	sort.Strings(order)
	out := make([]*candidate, len(order))
	for i, k := range order {
		c := byKey[k]
		slices.SortFunc(c.supports, slices.Compare)
		c.supports = slices.CompactFunc(c.supports, slices.Equal)
		c.rank = i
		out[i] = c
	}
	return out
}

// prepare reduces the mapping and rewrites the queries; shared by both
// pipelines.
func prepare(m *mapping.Mapping, queries []*logic.UCQ) (*gavreduce.Reduction, []*logic.UCQ, error) {
	red, err := gavreduce.Reduce(m)
	if err != nil {
		return nil, nil, err
	}
	rqs := make([]*logic.UCQ, len(queries))
	for i, q := range queries {
		rq, err := red.RewriteQuery(q)
		if err != nil {
			return nil, nil, fmt.Errorf("xr: rewriting query %s: %w", q.Name, err)
		}
		rqs[i] = rq
	}
	return red, rqs, nil
}
