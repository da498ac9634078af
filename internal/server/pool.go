package server

import (
	"context"
	"sync"
)

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
