package xr

import (
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
)

// maxBruteForceFacts bounds the exponential repair enumeration.
const maxBruteForceFacts = 22

// SourceRepairs enumerates every source repair of src w.r.t. m
// (Definition 1): the maximal sub-instances that have a solution. It is
// exponential in |src| and intended as a reference implementation for small
// instances; it refuses instances larger than 22 facts.
func SourceRepairs(m *mapping.Mapping, src *instance.Instance) (repairs []*instance.Instance, err error) {
	defer recoverInternal("source repairs", &err)
	facts := src.Facts()
	n := len(facts)
	if n > maxBruteForceFacts {
		return nil, fmt.Errorf("xr: brute force limited to %d source facts, got %d: %w", maxBruteForceFacts, n, ErrTooLarge)
	}
	// Consistency is downward closed, so the repairs are the maximal
	// consistent subsets.
	consistent := make(map[uint32]bool)
	isConsistent := func(bits uint32) bool {
		if v, ok := consistent[bits]; ok {
			return v
		}
		sub := instance.New(src.Catalog())
		for i := 0; i < n; i++ {
			if bits&(1<<i) != 0 {
				sub.AddFact(facts[i])
			}
		}
		v := chase.HasSolution(m, sub)
		consistent[bits] = v
		return v
	}
	for bits := uint32(0); bits < 1<<n; bits++ {
		if !isConsistent(bits) {
			continue
		}
		maximal := true
		for i := 0; i < n; i++ {
			if bits&(1<<i) == 0 && isConsistent(bits|1<<i) {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		sub := instance.New(src.Catalog())
		for i := 0; i < n; i++ {
			if bits&(1<<i) != 0 {
				sub.AddFact(facts[i])
			}
		}
		repairs = append(repairs, sub)
	}
	return repairs, nil
}

// BruteForceOpts computes XR-Certain answers by explicit repair
// enumeration:
//
//	XR-Certain(q, I, M) = ⋂ { q↓(chase(I', M)) : I' a source repair of I }.
//
// It uses the native GLAV chase and no reduction or solver, making it an
// independent oracle for validating the monolithic and segmentary
// pipelines on small instances. Only Metrics is consulted (the
// enumeration has no solver to cancel); each query is counted under the
// engine name "bruteforce" and enumerated repairs feed
// xr_repairs_enumerated_total.
func BruteForceOpts(m *mapping.Mapping, src *instance.Instance, queries []*logic.UCQ, opts Options) (results []*Result, err error) {
	defer recoverInternal("bruteforce", &err)
	return bruteForceEval(m, src, queries, opts, func(acc, a *cq.AnswerSet) { acc.Intersect(a) })
}

// bruteForceEval enumerates the source repairs of src, chases each one
// natively, and evaluates every query over every repair's solution,
// folding the per-repair answers into the first with combine.
func bruteForceEval(m *mapping.Mapping, src *instance.Instance, queries []*logic.UCQ, opts Options, combine func(acc, a *cq.AnswerSet)) ([]*Result, error) {
	mt := newMeters(opts.Metrics)
	repairs, err := SourceRepairs(m, src)
	if err != nil {
		return nil, err
	}
	if len(repairs) == 0 {
		return nil, fmt.Errorf("xr: internal error: no source repairs (the empty instance is always consistent)")
	}
	mt.recordRepairs(len(repairs))
	solutions := make([]*instance.Instance, len(repairs))
	for i, rep := range repairs {
		j, err := chase.Native(m, rep)
		if err != nil {
			return nil, fmt.Errorf("xr: repair has no solution: %w", err)
		}
		solutions[i] = j
	}
	results := make([]*Result, len(queries))
	for qi, q := range queries {
		start := time.Now()
		var ans *cq.AnswerSet
		for _, j := range solutions {
			a := cq.EvalUCQ(q, j).WithoutNulls()
			if ans == nil {
				ans = a
			} else {
				combine(ans, a)
			}
		}
		results[qi] = &Result{Query: q, Answers: ans}
		results[qi].Stats.Duration = time.Since(start)
		mt.recordQuery("bruteforce", results[qi].Stats)
	}
	return results, nil
}
