package xr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asp"
	"repro/internal/telemetry"
)

// Sentinel errors shared by every engine. They are wrapped with query
// context when returned, so match with errors.Is.
var (
	// ErrTimeout reports that a query exceeded its solving budget (an
	// Options.Timeout or a context deadline).
	ErrTimeout = errors.New("xr: query timed out")
	// ErrCanceled reports that the caller's context was canceled.
	ErrCanceled = errors.New("xr: query canceled")
	// ErrNoSolution reports that an instance admits no solution where one
	// is required (e.g. materializing an inconsistent instance).
	ErrNoSolution = errors.New("xr: instance has no solution")
	// ErrTooLarge reports that an instance exceeds the brute-force engine's
	// exhaustive-enumeration bound.
	ErrTooLarge = errors.New("xr: instance too large for brute force")
	// ErrBudget reports that a signature program exhausted its
	// Options.MaxDecisions / MaxConflicts solving budget.
	ErrBudget = errors.New("xr: solve budget exhausted")
	// ErrInternal reports a panic inside an engine worker, converted to an
	// error instead of crashing the process; the concrete error is an
	// *InternalError carrying the recovered value and stack.
	ErrInternal = errors.New("xr: internal engine error")
)

// InternalError is a panic captured at an engine entry point or inside a
// pool worker and converted to an error, so a corrupted program fails one
// signature (or one call), not the process. It matches ErrInternal under
// errors.Is.
type InternalError struct {
	Op    string // where the panic was caught ("segmentary signature {3}", ...)
	Panic any    // the recovered value
	Stack []byte // debug.Stack() captured at the recovery point
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("xr: internal error in %s: %v", e.Op, e.Panic)
}

// Unwrap makes errors.Is(err, ErrInternal) hold.
func (e *InternalError) Unwrap() error { return ErrInternal }

// recoverInternal converts an in-flight panic into an *InternalError
// assigned to *err. Use as `defer recoverInternal(op, &err)` at engine
// entry points and around pool-worker bodies.
func recoverInternal(op string, err *error) {
	if r := recover(); r != nil {
		*err = &InternalError{Op: op, Panic: r, Stack: debug.Stack()}
	}
}

// SignatureError reports one signature group left undecided by a
// partial-results query (Options.Partial): its canonical key, the number of
// candidate tuples moved to Result.Unknown, the retries spent, and the
// final cause (ErrTimeout, ErrBudget, or an *InternalError under errors.Is).
type SignatureError struct {
	Signature string // canonical signature key, e.g. "3" or "2,7"
	Tuples    int    // candidate tuples of the group, now in Unknown
	Retries   int    // bounded retries attempted before giving up
	Err       error  // why the signature could not be decided
}

func (e *SignatureError) Error() string {
	return fmt.Sprintf("xr: signature {%s} undecided (%d tuples unknown): %v", e.Signature, e.Tuples, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *SignatureError) Unwrap() error { return e.Err }

// Cause classifies Err into the wire vocabulary shared with
// Explanation.Cause: "budget", "timeout", "panic", "canceled", or "error".
func (e *SignatureError) Cause() string { return classifyCause(e.Err) }

// signatureErrorJSON is the wire form of a SignatureError. The Err field
// crosses the process boundary as a (cause, message) pair; the cause is the
// compatibility contract, the message is advisory.
type signatureErrorJSON struct {
	Signature string `json:"signature"`
	Tuples    int    `json:"tuples"`
	Retries   int    `json:"retries"`
	Cause     string `json:"cause"`
	Error     string `json:"error,omitempty"`
}

// MarshalJSON renders the wire form with stable snake_case field names.
func (e SignatureError) MarshalJSON() ([]byte, error) {
	j := signatureErrorJSON{
		Signature: e.Signature,
		Tuples:    e.Tuples,
		Retries:   e.Retries,
		Cause:     classifyCause(e.Err),
	}
	if e.Err != nil {
		j.Error = e.Err.Error()
	}
	return json.Marshal(j)
}

// UnmarshalJSON reconstructs the error from its wire form. The cause maps
// back to the matching sentinel so errors.Is keeps working across a
// process boundary; the original message is preserved in the error text.
func (e *SignatureError) UnmarshalJSON(data []byte) error {
	var j signatureErrorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	e.Signature = j.Signature
	e.Tuples = j.Tuples
	e.Retries = j.Retries
	e.Err = causeError(j.Cause, j.Error)
	return nil
}

// causeError rebuilds an error value from a wire (cause, message) pair.
func causeError(cause, msg string) error {
	var sentinel error
	switch cause {
	case "budget":
		sentinel = ErrBudget
	case "timeout":
		sentinel = ErrTimeout
	case "panic":
		sentinel = ErrInternal
	case "canceled":
		sentinel = ErrCanceled
	case "":
		return nil
	default:
		if msg == "" {
			return errors.New("xr: remote error")
		}
		return errors.New(msg)
	}
	if msg == "" || msg == sentinel.Error() {
		return sentinel
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// Options tunes one query-phase call (Answer, Possible, Repairs,
// Monolithic). The zero value means: background context, no timeout,
// sequential solving, no tracing.
type Options struct {
	// Ctx cancels the call cooperatively; nil means context.Background().
	Ctx context.Context
	// Timeout bounds the call; zero means no limit. It composes with Ctx
	// (whichever expires first wins). Monolithic applies it to each query
	// instead: a query that runs out reports ErrTimeout in its Result while
	// the others go on.
	Timeout time.Duration
	// Parallelism is the number of independent programs solved
	// concurrently (per-signature programs for the segmentary engine,
	// per-query programs for the monolithic engine). Values below 2 select
	// the sequential path. Results are deterministic at any setting.
	Parallelism int
	// Trace, when non-nil, receives one event per program solved. Calls
	// are serialized even when solving in parallel.
	Trace func(TraceEvent)
	// Metrics, when non-nil, aggregates phase timings and solver counters
	// into the given registry (see internal/telemetry and DESIGN.md §10).
	// Counter totals are deterministic at any Parallelism. A nil registry
	// costs nothing on the solving paths.
	Metrics *telemetry.Registry

	// SignatureTimeout bounds each signature program's solving wall time
	// individually (segmentary engines only); zero means no per-signature
	// limit. Unlike Timeout, an expired signature does not cancel its
	// siblings: with Partial set it degrades to unknown, without it the
	// query fails once the group is reached. A retried signature gets twice
	// the limit.
	SignatureTimeout time.Duration
	// MaxDecisions and MaxConflicts bound each signature program's solver
	// effort by the DPLL core's deterministic counters (0 = unlimited).
	// Unlike SignatureTimeout the cutoff point is machine-independent, so
	// degradation decisions — and with them answers and counter totals —
	// stay deterministic at any Parallelism. A retried signature gets twice
	// the budget.
	MaxDecisions int64
	MaxConflicts int64
	// Partial selects sound partial answers (segmentary engines only): a
	// signature that exhausts its budget is retried once with a doubled
	// budget and then recorded in Result.Degraded instead of failing the
	// query, with its candidate tuples moved to Result.Unknown. Answers
	// then under-approximate the exact certain answers and
	// Answers ∪ Unknown over-approximates them (see DESIGN.md §11).
	Partial bool
	// FaultHook, when non-nil, is invoked at the engines' fault-injection
	// sites ("solve", "ground", "cache") with the site name and signature
	// key. A returned error is injected at the site; the hook may also
	// sleep or panic. It exists for chaos testing (see internal/faultkit)
	// and must be nil in production use.
	FaultHook func(site, key string) error

	// Explain makes the segmentary engines attach one Explanation per
	// candidate tuple to the Result (see internal/explain and DESIGN.md
	// §13). Explanations are computed in a dedicated deterministic pass —
	// one fresh solver per signature group, never the persistent one — so
	// the output is byte-identical at any Parallelism and whatever the
	// exchange answered before. The pass costs one witness solve per
	// non-safe candidate; leave it off (the default) on hot paths.
	Explain bool
	// Tracer, when non-nil, collects a hierarchical span tree over the call
	// (exchange sub-phases, the query phase, one child span per signature
	// program). Export it with Tracer.WriteChromeTrace. A nil tracer costs
	// one nil check per phase.
	Tracer *telemetry.Tracer

	// Profiling attaches a workload hardness profiler to the Exchange
	// built with these options (NewExchangeOpts only; query calls inherit
	// the Exchange's profiler). The profiler accumulates per-signature and
	// per-cluster solve records across the Exchange's lifetime — see
	// internal/profile and Exchange.Profile. Profiling records at the same
	// instrumentation points telemetry uses, adding commuting sums under
	// one lock, so answers, Unknown sets, and ExchangeStats are
	// byte-identical with profiling on or off at any Parallelism.
	Profiling bool
}

// Fault-injection site names passed to Options.FaultHook. Kept as plain
// strings (mirrored by internal/faultkit) so the engines do not depend on
// the testing harness.
const (
	faultSiteSolve  = "solve"
	faultSiteGround = "ground"
	faultSiteCache  = "cache"
)

// TraceEvent reports per-program solver diagnostics. For per-call raw
// events install Options.Trace; for aggregated totals across calls attach
// a telemetry registry via Options.Metrics — both are fed from the same
// instrumentation points.
//
// TraceEvent is part of the JSON wire format (snake_case field names are a
// compatibility contract; durations travel as integer nanoseconds).
type TraceEvent struct {
	Engine    string `json:"engine"`              // "segmentary", "segmentary-brave", "monolithic", "repairs"
	Query     string `json:"query,omitempty"`     // query name, when applicable
	Signature []int  `json:"signature,omitempty"` // cluster signature (segmentary engines only)
	// SignatureKey is the canonical signature key ("2,7"): the same
	// vocabulary Explanation.Signature and SignatureError.Signature use, so
	// trace lines and explanations cross-reference directly.
	SignatureKey string `json:"signature_key,omitempty"`
	// RequestID is the HTTP request the program solved under, when the call
	// context carried one (telemetry.ContextWithRequestID); it correlates
	// trace lines from concurrent tenants back to individual requests.
	RequestID string `json:"request_id,omitempty"`

	Candidates int  `json:"candidates"` // candidate atoms wired into this program
	Atoms      int  `json:"atoms"`      // ground atoms
	Rules      int  `json:"rules"`      // ground rules
	CacheHit   bool `json:"cache_hit"`  // signature program served from the Exchange cache
	// SolverReused marks a segmentary solve served by an already-warm
	// persistent signature solver (DESIGN.md §17), as an incremental
	// session or from its verdict memo, rather than by the first session
	// on a freshly built one.
	SolverReused bool `json:"solver_reused,omitempty"`

	// Stats holds the solver's work counters for this program. Segmentary
	// solves report per-session deltas on the signature's persistent
	// solver (zero when the verdict memo decided the whole group); the
	// other engines report their throwaway solver's totals.
	asp.Stats

	Duration time.Duration `json:"duration_ns"`
}

// workers returns the effective worker count.
func (o *Options) workers() int {
	if o.Parallelism < 2 {
		return 1
	}
	return o.Parallelism
}

// begin resolves the call context, applying Timeout. The returned cancel
// must be called to release the timer.
func (o *Options) begin() (context.Context, context.CancelFunc) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return context.WithCancel(ctx)
}

// serialized returns a copy of o whose Trace hook is safe to invoke from
// concurrent workers.
func (o Options) serialized() Options {
	if o.Trace == nil {
		return o
	}
	var mu sync.Mutex
	inner := o.Trace
	o.Trace = func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		inner(ev)
	}
	return o
}

// ctxErr maps a done context to the matching sentinel (nil if not done).
func ctxErr(ctx context.Context) error {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return ErrTimeout
	case context.Canceled:
		return ErrCanceled
	}
	return nil
}

// isSentinel reports whether err is a cancellation/budget sentinel (as
// opposed to a genuine engine failure).
func isSentinel(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudget)
}

// forEachWorker runs fn(ctx, worker, i) for every i in [0, n) across at
// most workers goroutines; worker is the 1-based pool lane the job runs on
// (0 on the sequential path), stable for the lifetime of the pool so spans
// and profiles can attribute work to lanes. Pool goroutines carry a pprof
// label xr_worker=<lane>, so goroutine profiles group by lane.
//
// New work stops being issued once ctx is done or an fn returns an error;
// work already completed for other indexes is kept by the caller. All
// goroutines have exited when forEachWorker returns (no leaks). Genuine
// errors take precedence over cancellation sentinels; ties break toward
// the lowest index, keeping the reported error deterministic.
func forEachWorker(ctx context.Context, workers, n int, fn func(context.Context, int, int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if errs[i] = fn(ctx, 0, i); errs[i] != nil {
				break
			}
		}
		return poolError(ctx, errs)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(wctx, pprof.Labels("xr_worker", strconv.Itoa(w)), func(ctx context.Context) {
				for {
					i := int(next.Add(1))
					if i >= n || ctx.Err() != nil {
						return
					}
					if err := fn(ctx, w, i); err != nil {
						errs[i] = err
						cancel() // stop issuing work; siblings drain promptly
						return
					}
				}
			})
		}(w)
	}
	wg.Wait()
	return poolError(ctx, errs)
}

// poolError resolves the pool's representative error. A done parent
// context with no recorded job error (work was skipped, not failed) still
// reports the cancellation sentinel, so a caller never sees a nil error
// alongside incomplete results.
func poolError(ctx context.Context, errs []error) error {
	if err := firstError(errs); err != nil {
		return err
	}
	return ctxErr(ctx)
}

// firstError picks the deterministic representative error: the
// lowest-index genuine error if any, else the lowest-index sentinel.
func firstError(errs []error) error {
	var sentinel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isSentinel(err) {
			return err
		}
		if sentinel == nil {
			sentinel = err
		}
	}
	return sentinel
}
