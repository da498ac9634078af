package repro

import (
	"reflect"
	"testing"
)

// K3 (a triangle, 3-colorable: the query is not certain) with out-degree
// ≥ 1 everywhere, alongside the K4 orientation from options_test.go.
var k3Edges = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}

// TestWithSolverReuseTricolorEquivalence checks the persistent per-signature
// solvers on the Theorem 3 hardness gadget: a long-lived exchange must
// return the same answers and stats on K3 and K4, for certain and possible
// semantics, cold and warm, at parallelism, as a reference that decides
// every signature on a throwaway solver. The public API has no such path,
// so the reference answers each semantics once, sequentially, on a fresh
// Exchange whose solvers serve that one call and are dropped with it
// (answers and stats do not depend on parallelism, which the parallelism
// suites pin).
func TestWithSolverReuseTricolorEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		edges   [][2]string
		certain bool
	}{
		{"K3-3-colorable", k3Edges, false},
		{"K4-not-3-colorable", k4Edges, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exFresh, q := tricolorSetup(t, tc.edges)
			f, err := exFresh.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			exFresh, _ = tricolorSetup(t, tc.edges)
			fp, err := exFresh.Possible(q)
			if err != nil {
				t.Fatal(err)
			}
			exReuse, _ := tricolorSetup(t, tc.edges)
			for pass := 0; pass < 2; pass++ { // second pass: warm cache + warm solver sessions
				for _, par := range []int{1, 4} {
					r, err := exReuse.Answer(q, WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					if (len(r.Tuples) == 1) != tc.certain {
						t.Fatalf("reuse certainty = %v, want %v", len(r.Tuples) == 1, tc.certain)
					}
					if !reflect.DeepEqual(r.Tuples, f.Tuples) || !reflect.DeepEqual(r.Unknown, f.Unknown) {
						t.Fatalf("pass %d par %d: answers diverge:\nreuse: %+v\nfresh: %+v", pass, par, r, f)
					}
					// Only the long-lived exchange serves programs from its
					// signature cache, on every call after its first.
					wantHits := r.Programs
					if pass == 0 && par == 1 {
						wantHits = 0
					}
					if r.CacheHits != wantHits {
						t.Fatalf("pass %d par %d: cache hits = %d, want %d", pass, par, r.CacheHits, wantHits)
					}
					rS, fS := *r, *f
					rS.Duration, fS.Duration = 0, 0
					rS.CacheHits = 0
					if !reflect.DeepEqual(rS, fS) {
						t.Fatalf("pass %d par %d: stats diverge:\nreuse: %+v\nfresh: %+v", pass, par, rS, fS)
					}

					rp, err := exReuse.Possible(q, WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rp.Tuples, fp.Tuples) {
						t.Fatalf("pass %d par %d: possible answers diverge", pass, par)
					}
					if len(rp.Tuples) != 1 {
						t.Fatalf("query should always be possible, got %d tuples", len(rp.Tuples))
					}
				}
			}
		})
	}
}
