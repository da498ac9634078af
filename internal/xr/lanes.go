package xr

import (
	"context"
	"time"

	"repro/internal/telemetry"
)

// LanePool is a process-wide bound on solver parallelism: every query whose
// call context carries the pool (ContextWithLanes) holds one lane per job
// it runs — one signature group that may search, with its explain pass, or
// one monolithic query — and returns it when the job ends. Candidate
// collection, the safe split, the groups the verdict memo decides in place
// and the merge run without a lane, so concurrent queries overlap those
// single-threaded phases, while goroutines doing solver work across all of
// them never outnumber the lanes.
//
// A job takes its lane before it touches the query state (state.go) or a
// persistent solver (incMu), so the lock order is always lane first, and
// no job waits for a lane while it holds either lock.
type LanePool struct {
	sem  chan struct{}
	busy *telemetry.Gauge     // xr_lanes_in_use
	wait *telemetry.Histogram // xr_lane_wait_seconds
}

// NewLanePool returns a pool of total lanes (clamped to at least 1) that
// keeps xr_lanes_in_use current and times every acquire into
// xr_lane_wait_seconds on reg (nil records nothing).
func NewLanePool(total int, reg *telemetry.Registry) *LanePool {
	if total < 1 {
		total = 1
	}
	return &LanePool{
		sem:  make(chan struct{}, total),
		busy: reg.Gauge("xr_lanes_in_use"),
		wait: reg.Histogram("xr_lane_wait_seconds"),
	}
}

// Acquire takes a lane, blocking until one is free or ctx is done, and
// returns how long it waited. A done ctx yields ErrCanceled or ErrTimeout
// and no lane. A lane that is free at once costs no clock read and counts
// as a zero wait.
func (p *LanePool) Acquire(ctx context.Context) (time.Duration, error) {
	var waited time.Duration
	select {
	case p.sem <- struct{}{}:
	default:
		start := time.Now()
		select {
		case p.sem <- struct{}{}:
			waited = time.Since(start)
		case <-ctx.Done():
			waited = time.Since(start)
			p.wait.Observe(waited)
			return waited, ctxErr(ctx)
		}
	}
	p.busy.Add(1)
	p.wait.Observe(waited)
	return waited, nil
}

// Release returns a lane taken by Acquire.
func (p *LanePool) Release() {
	p.busy.Add(-1)
	<-p.sem
}

// InUse reports the number of lanes currently held.
func (p *LanePool) InUse() int { return len(p.sem) }

// Cap reports the pool size.
func (p *LanePool) Cap() int { return cap(p.sem) }

type lanesKey struct{}

// laneScope is what ContextWithLanes attaches: the pool and the caller's
// wait callback.
type laneScope struct {
	pool   *LanePool
	onWait func(time.Duration)
}

// ContextWithLanes returns a context under which the query-phase engines
// take a lane from pool for every job (see LanePool). onWait, when
// non-nil, receives the wait of every acquire, failed ones included, so a
// caller can sum the lane wait of one request; it may be called from
// several goroutines at once. Without a pool in the context the engines
// solve exactly as before, at their Options.Parallelism.
func ContextWithLanes(ctx context.Context, pool *LanePool, onWait func(time.Duration)) context.Context {
	return context.WithValue(ctx, lanesKey{}, &laneScope{pool: pool, onWait: onWait})
}

// withLanes wraps fn so every call holds a lane from the pool ctx carries;
// without one it returns fn unchanged. The lane is released in a defer, so
// a job that panics still returns it.
func withLanes(ctx context.Context, fn func(context.Context, int, int) error) func(context.Context, int, int) error {
	sc, _ := ctx.Value(lanesKey{}).(*laneScope)
	if sc == nil {
		return fn
	}
	return func(ctx context.Context, worker, i int) error {
		waited, err := sc.pool.Acquire(ctx)
		if sc.onWait != nil {
			sc.onWait(waited)
		}
		if err != nil {
			return err
		}
		defer sc.pool.Release()
		return fn(ctx, worker, i)
	}
}
