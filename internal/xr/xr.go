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
	rank     int // position of the tuple in its collection's key order
}

// collector gathers the distinct answer tuples of a rewritten UCQ over the
// quasi-solution, each with its support sets (DESIGN.md §9.3). Given the
// safe-derivable facts, it marks each tuple that has a support set lying
// entirely in the safe part: proven, it appears in every XR-solution, and
// unless keepAll is set its support sets are dropped and its later matches
// cost one probe of the tuple set.
type collector struct {
	prov    *chase.Provenance
	safe    []bool // safe-derivable facts by FactID; nil proves no tuple
	keepAll bool   // keep the support sets of proven tuples too

	tuples instance.TupleSet // the distinct tuples, numbered in first-match order
	proven []bool            // per tuple: some support set lies in the safe part
	last   []int32           // per tuple: its latest kept support set, -1 for none
	// facts holds the kept support sets back to back, each sorted by fact
	// id; set i ends at sets[i].end and starts where set i-1 ends.
	facts []chase.FactID
	sets  []supportSet
	order []int32 // the tuples in key order, once collect has run
}

// supportSet is one kept support set in a collector's log.
type supportSet struct {
	end  int32 // end of the set in facts
	prev int32 // the tuple's previous kept set, -1 for none
}

// collect evaluates the (rewritten) UCQ over the quasi-solution and sorts
// its distinct answer tuples into key order (cq.CompareTuples). safe and
// keepAll are as in collector: a query plan passes the Exchange's
// safe-derivable facts and keeps only the sets of unproven tuples; an
// explain ask keeps every set as well, and the monolithic pipeline, with no
// safe part, passes nil.
func collect(rq *logic.UCQ, prov *chase.Provenance, safe []bool, keepAll bool) *collector {
	cl := &collector{prov: prov, safe: safe, keepAll: keepAll}
	for ci := range rq.Clauses {
		cl.clause(&rq.Clauses[ci])
	}
	// Index buckets and relation scans follow insertion order, so the
	// enumeration is deterministic, but it follows the order of the
	// clauses and of their atoms, and a plan is shared by every query that
	// differs from this one only in those, in variable names or in
	// repeated clauses (planKey). So the tuples are sorted into a canonical
	// order; downstream it steers solver assumption testing and the
	// Explanations slice.
	cl.order = make([]int32, cl.tuples.Len())
	for i := range cl.order {
		cl.order[i] = int32(i)
	}
	slices.SortFunc(cl.order, func(a, b int32) int {
		return cq.CompareTuples(cl.tuples.Tuple(int(a)), cl.tuples.Tuple(int(b)))
	})
	return cl
}

// clause adds the matches of one clause. Each match's head tuple is looked
// up in the tuple set through one buffer, and its support facts are named
// by chase generation (the rank of the match) and checked against the safe
// part as they are resolved.
func (cl *collector) clause(c *logic.CQ) {
	plan := cq.Compile(c.Body)
	head := make([]symtab.Value, len(c.Head))
	slots := make([]int, len(c.Head)) // env slot of each head variable, -1 for a constant
	for i, t := range c.Head {
		slots[i] = -1
		if t.IsVar() {
			slots[i] = plan.VarSlot[t.Var]
		} else {
			head[i] = t.Val
		}
	}
	plan.ForEachDelta(cl.prov.Instance, 0, func(env []symtab.Value, rank []uint64, _ []int) bool {
		for i, s := range slots {
			if s >= 0 {
				head[i] = env[s]
			}
		}
		pos, added := cl.tuples.Add(head)
		if added {
			cl.proven = append(cl.proven, false)
			cl.last = append(cl.last, -1)
		}
		if cl.proven[pos] && !cl.keepAll {
			return true
		}
		start := len(cl.facts)
		allSafe := cl.safe != nil
		for _, g := range rank {
			id, ok := cl.prov.FactIDOfGen(g)
			if !ok {
				panic("xr: candidate support fact not in provenance")
			}
			cl.facts = append(cl.facts, id)
			allSafe = allSafe && cl.safe[id]
		}
		if allSafe {
			cl.proven[pos] = true
			if !cl.keepAll {
				cl.facts = cl.facts[:start]
				cl.last[pos] = -1
				return true
			}
		}
		slices.Sort(cl.facts[start:])
		cl.sets = append(cl.sets, supportSet{end: int32(len(cl.facts)), prev: cl.last[pos]})
		cl.last[pos] = int32(len(cl.sets) - 1)
		return true
	})
}

// set returns kept support set i.
func (cl *collector) set(i int32) []chase.FactID {
	start := int32(0)
	if i > 0 {
		start = cl.sets[i-1].end
	}
	return cl.facts[start:cl.sets[i].end]
}

// candidates returns, in key order, the candidate of every tuple whose
// support sets were kept: every tuple with keepAll, else the unproven
// ones. The support order steers candidate rule wiring (and through clause
// watches, the effort counters the profiler records), so each candidate's
// sets are sorted lexicographically (each set is sorted by fact id), which
// brings equal sets together — a repeated clause, or a self-join matched
// both ways — so one compaction pass dedups them. The candidates, their
// tuples, their set lists and their sets share four backing arrays, sliced
// with full slice expressions.
func (cl *collector) candidates() []*candidate {
	keep := func(t int32) bool { return cl.keepAll || !cl.proven[t] }
	// First each candidate's distinct sets, as positions in the log, and
	// the sizes of the backing arrays.
	var ids []int32 // the candidates' distinct sets, candidate after candidate
	var ends []int  // per candidate: the end of its sets in ids
	values, facts := 0, 0
	for _, t := range cl.order {
		if !keep(t) {
			continue
		}
		from := len(ids)
		for s := cl.last[t]; s >= 0; s = cl.sets[s].prev {
			ids = append(ids, s)
		}
		own := ids[from:]
		slices.SortFunc(own, func(a, b int32) int { return slices.Compare(cl.set(a), cl.set(b)) })
		own = slices.CompactFunc(own, func(a, b int32) bool { return slices.Equal(cl.set(a), cl.set(b)) })
		ids = ids[:from+len(own)]
		for _, s := range own {
			facts += len(cl.set(s))
		}
		values += len(cl.tuples.Tuple(int(t)))
		ends = append(ends, len(ids))
	}
	slab := make([]candidate, len(ends))
	out := make([]*candidate, 0, len(ends))
	tuples := make([]symtab.Value, 0, values)
	lists := make([][]chase.FactID, len(ids))
	sets := make([]chase.FactID, 0, facts)
	from := 0
	for rank, t := range cl.order {
		if !keep(t) {
			continue
		}
		c := &slab[len(out)]
		end := ends[len(out)]
		k := len(tuples)
		tuples = append(tuples, cl.tuples.Tuple(int(t))...)
		c.tuple = tuples[k:len(tuples):len(tuples)]
		c.supports = lists[from:end:end]
		for j, s := range ids[from:end] {
			k := len(sets)
			sets = append(sets, cl.set(s)...)
			c.supports[j] = sets[k:len(sets):len(sets)]
		}
		c.rank = rank
		from = end
		out = append(out, c)
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
