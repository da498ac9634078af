package xr

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/genome"
	"repro/internal/telemetry"
)

// TestBytesPerRuleCalibration checks that the query state's estimate
// tracks the heap the state holds. On a fresh exchange of the genome-churn
// shape (360 transcripts, 9% suspect, seed 1000), QueryStateBytes must lie
// within 0.75–1.33× of the heap that emptying the owner frees, in two
// cases: after one served certain pass of the genome suite, which the
// greedy repairs decide without building a persistent solver
// (bytesPerBaseRule), and after a certain and then a possible pass, whose
// open groups build solvers (bytesPerRule). A change to what a signature
// program, its greedy repairs or its solver keep per rule that leaves the
// rates alone fails here.
func TestBytesPerRuleCalibration(t *testing.T) {
	w, err := genome.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genome.Queries(w)
	if err != nil {
		t.Fatal(err)
	}
	src := genome.Generate(w, genome.Profile{Name: "churn", Transcripts: 360, SuspectRate: 0.09, Seed: 1000})
	for _, possible := range []bool{false, true} {
		t.Run(fmt.Sprintf("possible=%v", possible), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			ex, err := NewExchangeOpts(w.M, src, Options{Metrics: reg, Profiling: true})
			if err != nil {
				t.Fatal(err)
			}
			ask := servedAsk(reg)
			for _, q := range queries {
				if err := ask(ex, q); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				if !possible {
					break
				}
				if _, err := ex.Possible(q); err != nil {
					t.Fatal(err)
				}
			}
			if builds := reg.Counter("xr_solver_reuse_builds_total").Value(); (builds > 0) != possible {
				t.Fatalf("the pass built %d persistent solvers", builds)
			}
			estimate := ex.QueryStateBytes()
			before := liveHeap()
			evictAll(ex)
			freed := before - liveHeap()
			runtime.KeepAlive(ex)
			if estimate <= 0 || freed <= 0 {
				t.Fatalf("estimate %d B, freed %d B: the pass left no query state", estimate, freed)
			}
			ratio := float64(estimate) / float64(freed)
			t.Logf("estimate %.2f MB, freed %.2f MB, ratio %.2f", float64(estimate)/(1<<20), float64(freed)/(1<<20), ratio)
			if ratio < 0.75 || ratio > 1.33 {
				t.Fatalf("QueryStateBytes %d B is %.2f× the %d B that emptying the state frees; recalibrate bytesPerRule and bytesPerBaseRule", estimate, ratio, freed)
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
