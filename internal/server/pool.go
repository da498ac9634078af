package server

import (
	"context"
	"sync"
)

// lanePool is the process-wide bound on solver parallelism, shared by
// every tenant. This settles the ROADMAP's per-process-vs-per-exchange
// question in favor of per-process: each Exchange already shares its
// signature-program cache, but letting every concurrent query spin up
// GOMAXPROCS workers of its own would oversubscribe the machine as soon
// as two tenants are busy. Instead, a query leases lanes from this pool —
// blocking for the first lane so admitted work always progresses, then
// taking any immediately free extras up to its per-query cap — and passes
// the leased count to WithParallelism. Total solver goroutines across all
// tenants therefore never exceed the pool size.
type lanePool struct {
	sem chan struct{}
}

// newLanePool sizes the pool; total < 1 is clamped to 1.
func newLanePool(total int) *lanePool {
	if total < 1 {
		total = 1
	}
	return &lanePool{sem: make(chan struct{}, total)}
}

// lease acquires between 1 and max lanes: it blocks (cancellably) for the
// first lane, then opportunistically takes immediately available extras.
// On success it returns the lane count and a release function that is
// safe to call more than once; when ctx expires first it returns 0 and a
// nil release.
func (p *lanePool) lease(ctx context.Context, max int) (int, func()) {
	if max < 1 {
		max = 1
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, nil
	}
	n := 1
	for n < max {
		select {
		case p.sem <- struct{}{}:
			n++
		default:
			// No lane free right now: run with what we have rather than
			// holding up the query (the engine is deterministic at any
			// parallelism, so the answer does not depend on n).
			return n, p.releaser(n)
		}
	}
	return n, p.releaser(n)
}

// releaser returns the idempotent release of n leased lanes.
func (p *lanePool) releaser(n int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				<-p.sem
			}
		})
	}
}

// inUse reports the number of currently leased lanes (for health output).
func (p *lanePool) inUse() int { return len(p.sem) }

// capacity reports the pool size.
func (p *lanePool) capacity() int { return cap(p.sem) }

// drainGroup tracks in-flight requests and coordinates graceful drain
// without the Add-during-Wait race of a bare sync.WaitGroup: Enter
// atomically refuses new work once draining has begun, so Drain's wait
// condition can only go down.
type drainGroup struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{} // closed when draining && n == 0
}

func newDrainGroup() *drainGroup {
	return &drainGroup{idle: make(chan struct{})}
}

// Enter registers one in-flight request; it returns false (and registers
// nothing) once draining has begun.
func (g *drainGroup) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

// Leave unregisters one in-flight request.
func (g *drainGroup) Leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 {
		close(g.idle)
	}
}

// Inflight returns the current in-flight count.
func (g *drainGroup) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Draining reports whether Drain has been called.
func (g *drainGroup) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drain stops admitting new requests and waits until every in-flight
// request has left, or ctx expires (returning its error). Drain is
// idempotent; concurrent calls all wait for the same quiescence.
func (g *drainGroup) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		if g.n == 0 {
			close(g.idle)
		}
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
