package xr

import (
	"context"
	"testing"

	"repro/internal/cq"
	"repro/internal/genome"
)

// benchGroups prepares the solve stage of the multi-candidate genome join
// ep3: an exchange with every signature program ground and cached, plus the
// query's signature groups in canonical order. Candidate collection and
// grounding run once, so iterating the returned closure measures only the
// per-signature solve stage (the subject of DESIGN.md §17).
func benchGroups(b *testing.B, profile string) (*Exchange, []string, []*sigGroup) {
	b.Helper()
	w, err := genome.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	p, ok := genome.ProfileByName(profile, 0.1)
	if !ok {
		b.Fatalf("unknown profile %s", profile)
	}
	src := genome.Generate(w, p)
	ex, err := NewExchange(w.M, src)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := genome.Queries(w)
	if err != nil {
		b.Fatal(err)
	}
	ep3 := qs[2]
	if ep3.Name != "ep3" {
		b.Fatal("query order changed")
	}
	rq, err := ex.Red.RewriteQuery(ep3)
	if err != nil {
		b.Fatal(err)
	}
	keys, groups := ex.partition(collectCandidates(rq, ex.Prov), &Result{Answers: cq.NewAnswerSet()})
	ordered := make([]*sigGroup, len(keys))
	for i, k := range keys {
		sp, _ := ex.sigProgramFor(k)
		sp.ensure(ex, groups[k].sig)
		ordered[i] = groups[k]
	}
	if len(ordered) == 0 {
		b.Fatalf("profile %s produced no solver groups for ep3", profile)
	}
	return ex, keys, ordered
}

// BenchmarkIncrementalSolve measures the per-signature solve stage of the
// genome multi-candidate join ep3 across the size axis, in two variants:
//
//   - cold: a throwaway solver per signature (freshSolve, the test
//     reference; the first-ever query on the signature);
//   - persistent: one persistent solver per signature answering via an
//     assumption session, clause database held in place.
//
// Grounding and candidate collection are excluded from both variants; see
// BenchmarkSignatureCache (root) for the end-to-end query cost.
func BenchmarkIncrementalSolve(b *testing.B) {
	ctx := context.Background()
	for _, profile := range []string{"S3", "M3", "L3"} {
		b.Run("cold/"+profile, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ex, keys, gs := benchGroups(b, profile)
				b.StartTimer()
				for j, g := range gs {
					freshSolve(b, ex, keys[j], g, false)
				}
			}
		})
		b.Run("persistent/"+profile, func(b *testing.B) {
			opts := (Options{}).serialized()
			ex, keys, gs := benchGroups(b, profile)
			solveAll := func() {
				for j, g := range gs {
					sp, _ := ex.sigProgramFor(keys[j])
					if sv := ex.solveSigReuse(ctx, sp, g, false, &opts, nil, 1); !sv.hasModel {
						b.Fatal("signature program has no stable model")
					}
				}
			}
			solveAll() // build the persistent solvers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveAll()
			}
		})
	}
}
