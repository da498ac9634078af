package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/parser"
	"repro/internal/symtab"
	"repro/internal/xr"
)

// libraryDigests answers every preloaded query of one instance with the
// public library API, in process, and returns each answer's digest.
func libraryDigests(in instanceInput) (map[string]tupleDigest, error) {
	sys, err := repro.Load(in.Mapping)
	if err != nil {
		return nil, err
	}
	facts, err := sys.ParseFacts(in.Facts)
	if err != nil {
		return nil, err
	}
	ex, err := sys.NewExchange(facts)
	if err != nil {
		return nil, err
	}
	qs, err := sys.ParseQueries(in.Queries)
	if err != nil {
		return nil, err
	}
	out := make(map[string]tupleDigest, len(qs))
	for _, q := range qs {
		a, err := ex.Answer(q)
		if err != nil {
			return nil, fmt.Errorf("library answer of %s: %w", q.Name(), err)
		}
		if a.Partial() {
			return nil, fmt.Errorf("library answer of %s is partial", q.Name())
		}
		out[q.Name()] = digestOf(a.Tuples)
	}
	return out, nil
}

// libraryOracle computes the library's answers for every genome instance,
// before any daemon runs. Tricolor expectations come from the graph alone
// and need no oracle (nil result).
func libraryOracle(p *plan) ([]map[string]tupleDigest, error) {
	if p.workload == wlTricolorSolve {
		return nil, nil
	}
	digests := make([]map[string]tupleDigest, len(p.instances))
	for i, in := range p.instances {
		d, err := libraryDigests(in)
		if err != nil {
			return nil, fmt.Errorf("oracle for instance %d: %w", i, err)
		}
		digests[i] = d
	}
	// Hand the oracle's memory back before the daemon boots.
	debug.FreeOSMemory()
	return digests, nil
}

// attachDigests pins the oracle's answers on the plan's query
// expectations.
func attachDigests(p *plan, digests []map[string]tupleDigest) {
	if digests == nil {
		return
	}
	p.each(func(o *op) {
		if o.kind == opQuery {
			d := digests[o.instance][o.query]
			o.want.digest = &d
		}
	})
}

// replay holds the in-process measurements of public layer calls on the
// run's own inputs (the traced run's "replay" rows).
type replay struct {
	// parseMS is repro.Load plus ParseFacts on each instance's body text.
	parseMS map[int]float64
	// cqMS and cqMatches are, per query name, cq.Compile plus ForEach of
	// every rewritten clause over the chased instance, one sample per
	// replayed instance.
	cqMS      map[string][]float64
	cqMatches map[string][]float64
	// exchangeHeapMB and warmHeapMB are live-heap deltas after GC across
	// NewExchangeOpts and across one pass over the instance's queries.
	exchangeHeapMB, warmHeapMB float64
}

// replayReps is how often each timed replay call repeats (median kept).
const replayReps = 3

func timeMedian(reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runReplay measures the layer calls on the plan's instances. Tricolor
// instances are small and numerous; the cq and heap rows use the first
// instance of each family.
func runReplay(p *plan) (*replay, error) {
	rp := &replay{parseMS: map[int]float64{}, cqMS: map[string][]float64{}, cqMatches: map[string][]float64{}}
	families := map[string]bool{}
	for i, in := range p.instances {
		ms, err := timeMedian(replayReps, func() error {
			sys, err := repro.Load(in.Mapping)
			if err != nil {
				return err
			}
			_, err = sys.ParseFacts(in.Facts)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replaying parse of instance %d: %w", i, err)
		}
		rp.parseMS[i] = ms
		if g := in.graph; g != nil {
			if families[g.Family] {
				continue
			}
			families[g.Family] = true
		}
		if err := rp.layers(in, i == 0); err != nil {
			return nil, fmt.Errorf("replaying instance %d: %w", i, err)
		}
	}
	debug.FreeOSMemory()
	return rp, nil
}

// layers replays candidate evaluation and, when heap is set, the two heap
// deltas on one instance.
func (rp *replay) layers(in instanceInput, heap bool) error {
	w, err := parser.ParseMapping(in.Mapping)
	if err != nil {
		return err
	}
	src, err := parser.ParseFacts(in.Facts, w)
	if err != nil {
		return err
	}
	qs, err := parser.ParseQueries(in.Queries, w)
	if err != nil {
		return err
	}
	before := liveHeap()
	ex, err := xr.NewExchangeOpts(w.M, src, xr.Options{Profiling: true})
	if err != nil {
		return err
	}
	afterExchange := liveHeap()
	for _, q := range qs {
		rq, err := ex.Red.RewriteQuery(q)
		if err != nil {
			return err
		}
		matches := 0
		ms, err := timeMedian(replayReps, func() error {
			matches = 0
			for ci := range rq.Clauses {
				cq.Compile(rq.Clauses[ci].Body).ForEach(ex.Prov.Instance, func([]symtab.Value) bool {
					matches++
					return true
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
		rp.cqMS[q.Name] = append(rp.cqMS[q.Name], ms)
		rp.cqMatches[q.Name] = append(rp.cqMatches[q.Name], float64(matches))
	}
	if !heap {
		return nil
	}
	for _, q := range qs {
		if _, err := ex.AnswerOpts(q, xr.Options{Parallelism: runtime.GOMAXPROCS(0)}); err != nil {
			return err
		}
	}
	afterWarm := liveHeap()
	runtime.KeepAlive(ex)
	rp.exchangeHeapMB = (float64(afterExchange) - float64(before)) / 1e6
	rp.warmHeapMB = (float64(afterWarm) - float64(afterExchange)) / 1e6
	return nil
}
