package xr

import (
	"context"
	"testing"

	"repro/internal/genome"
)

// benchGroups prepares the solve stage of the multi-candidate genome join
// ep3: an exchange with every signature program ground and cached, plus the
// query's signature groups in canonical order. Candidate collection and
// grounding run once, so iterating the returned closure measures only the
// per-signature solve stage (the subject of DESIGN.md §17).
func benchGroups(b *testing.B, profile string) (*Exchange, []*sigGroup) {
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
	groups := ex.buildPlan(rq).groups
	for _, g := range groups {
		ex.sigProgramFor(g.key, g.sig, nil)
	}
	if len(groups) == 0 {
		b.Fatalf("profile %s produced no solver groups for ep3", profile)
	}
	return ex, groups
}

// BenchmarkIncrementalSolve measures the per-signature solve stage of the
// genome multi-candidate join ep3 across the size axis, in four variants:
//
//   - cold: a throwaway solver per signature (freshSolve, the test
//     reference; the first-ever query on the signature);
//   - greedy: every group's certain decision evaluated on its program's
//     greedy repairs, with no solver (the published decisions are dropped
//     before each iteration; it reports the groups left open);
//   - persistent: one persistent solver per signature answering via an
//     assumption session, clause database held in place (the greedy
//     repairs are forgotten, and the verdict memo is emptied before each
//     iteration, so every group opens a session);
//   - memo: the same solvers answering a repeat from their verdict memos,
//     with no session.
//
// Grounding and candidate collection are excluded from every variant; see
// BenchmarkSignatureCache (root) for the end-to-end query cost.
func BenchmarkIncrementalSolve(b *testing.B) {
	ctx := context.Background()
	opts := (Options{}).serialized()
	for _, profile := range []string{"S3", "M3", "L3"} {
		b.Run("cold/"+profile, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ex, gs := benchGroups(b, profile)
				b.StartTimer()
				for _, g := range gs {
					freshSolve(b, ex, g, false)
				}
			}
		})
		b.Run("greedy/"+profile, func(b *testing.B) {
			ex, gs := benchGroups(b, profile)
			sps := make([]*sigProgram, len(gs))
			for j, g := range gs {
				sps[j], _ = ex.sigProgramFor(g.key, g.sig, nil)
			}
			open := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, g := range gs {
					g.decided(false).Store(nil)
					if d, _ := sps[j].greedyDecision(context.Background(), g, false); !d.complete {
						open++
					}
				}
			}
			b.ReportMetric(float64(open)/float64(b.N), "open/op")
		})
		// warm returns a closure solving every group on its persistent
		// solver, and one emptying every verdict memo;
		// the greedy repairs are forgotten, and the solvers are built and
		// have answered once.
		warm := func(b *testing.B) (solveAll, forget func()) {
			ex, gs := benchGroups(b, profile)
			sps := make([]*sigProgram, len(gs))
			for j, g := range gs {
				sps[j], _ = ex.sigProgramFor(g.key, g.sig, nil)
				sps[j].repairs = nil
			}
			solveAll = func() {
				for j, g := range gs {
					if sv := ex.solveSigReuse(ctx, sps[j], g, false, &opts, nil, 1); !sv.hasModel {
						b.Fatal("signature program has no stable model")
					}
				}
			}
			forget = func() {
				for _, sp := range sps {
					sp.inc.forget()
				}
			}
			solveAll()
			return solveAll, forget
		}
		b.Run("persistent/"+profile, func(b *testing.B) {
			solveAll, forget := warm(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				forget()
				b.StartTimer()
				solveAll()
			}
		})
		b.Run("memo/"+profile, func(b *testing.B) {
			solveAll, _ := warm(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveAll()
			}
		})
	}
}
