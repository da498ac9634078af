package xr

import (
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
)

// BruteForce is BruteForceOpts without options: the XR-Certain oracle
// the package's tests check the monolithic and segmentary pipelines
// against.
func BruteForce(m *mapping.Mapping, src *instance.Instance, queries []*logic.UCQ) ([]*Result, error) {
	return BruteForceOpts(m, src, queries, Options{})
}

// BruteForcePossible computes XR-Possible answers by explicit repair
// enumeration:
//
//	XR-Possible(q, I, M) = ⋃ { q↓(chase(I', M)) : I' a source repair of I }.
//
// Like BruteForce, it serves as an independent oracle for the brave
// reasoning path of the segmentary pipeline.
func BruteForcePossible(m *mapping.Mapping, src *instance.Instance, queries []*logic.UCQ) (results []*Result, err error) {
	defer recoverInternal("bruteforce-possible", &err)
	return bruteForceEval(m, src, queries, Options{}, func(acc, a *cq.AnswerSet) {
		for _, t := range a.Tuples() {
			acc.Add(t)
		}
	})
}
