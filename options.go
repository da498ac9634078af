package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/xr"
)

// Typed sentinel errors returned (possibly wrapped) by the query engines;
// match them with errors.Is.
var (
	// ErrTimeout reports that a query exceeded its WithTimeout budget or a
	// context deadline.
	ErrTimeout = xr.ErrTimeout
	// ErrCanceled reports that a WithContext context was canceled.
	ErrCanceled = xr.ErrCanceled
	// ErrNoSolution reports that an instance admits no solution where one
	// is required (Materialize on an inconsistent instance).
	ErrNoSolution = xr.ErrNoSolution
	// ErrTooLarge reports that an instance exceeds the brute-force engines'
	// exhaustive-enumeration bound (22 source facts).
	ErrTooLarge = xr.ErrTooLarge
	// ErrBudget reports that a signature's solver exhausted its
	// WithSolveBudget decision/conflict allowance.
	ErrBudget = xr.ErrBudget
	// ErrInternal reports a panic contained inside an engine worker; the
	// concrete error is an *xr.InternalError carrying the captured stack.
	ErrInternal = xr.ErrInternal
)

// ErrOptionScope reports that an option was passed to a call outside its
// scope: a query-scope option (e.g. WithTimeout) to NewExchange, or an
// exchange/query mismatch in general. The concrete error is an
// *OptionScopeError naming the option and the call. Before the scope
// split such options were silently ignored; failing fast keeps a tuning
// mistake from masquerading as a no-op.
var ErrOptionScope = errors.New("repro: option out of scope")

// OptionScopeError describes one out-of-scope option: which option, which
// call rejected it, and the scope the option actually has. It matches
// ErrOptionScope under errors.Is.
type OptionScopeError struct {
	Option string // option constructor name, e.g. "WithTimeout"
	Call   string // rejecting call, e.g. "NewExchange"
	Scope  string // the option's scope: "query" or "exchange"
}

func (e *OptionScopeError) Error() string {
	return fmt.Sprintf("repro: %s is a %s-scope option and does not apply to %s", e.Option, e.Scope, e.Call)
}

// Unwrap makes errors.Is(err, ErrOptionScope) hold.
func (e *OptionScopeError) Unwrap() error { return ErrOptionScope }

// SignatureError describes one signature group left undecided under
// WithPartialResults: the signature key, how many candidate tuples moved
// to Unknown, how many budget-doubling retries were attempted, and the
// underlying cause (matches ErrBudget, ErrTimeout, or ErrInternal under
// errors.Is).
type SignatureError = xr.SignatureError

// InternalError is a contained worker panic: the operation, the recovered
// panic value, and the goroutine stack at the point of the panic. It
// matches ErrInternal under errors.Is.
type InternalError = xr.InternalError

// TraceEvent is one per-program solver diagnostic record delivered to a
// WithSolverTrace hook; see the fields for the available counters.
type TraceEvent = xr.TraceEvent

// optionScope is the bitmask of call kinds an Option applies to.
type optionScope uint8

const (
	// scopeExchange marks options consulted by the exchange phase
	// (System.NewExchange).
	scopeExchange optionScope = 1 << iota
	// scopeQuery marks options consulted by the query-time calls
	// (Exchange.Answer / Possible / Repairs / Why, System.MonolithicAnswers,
	// System.BruteForceAnswers).
	scopeQuery
)

// String names the scope for error messages.
func (s optionScope) String() string {
	switch s {
	case scopeExchange:
		return "exchange"
	case scopeQuery:
		return "query"
	default:
		return "exchange+query"
	}
}

// Option tunes one engine call. Every option belongs to a scope —
// exchange-time (System.NewExchange) or query-time (Exchange.Answer /
// Possible / Repairs / Why, System.MonolithicAnswers,
// System.BruteForceAnswers) — and each constructor's doc comment states
// its scope. Passing an option to a call outside its scope returns an
// error matching ErrOptionScope instead of silently doing nothing.
// WithMetrics and WithTracer carry both scopes.
type Option struct {
	name  string
	scope optionScope
	apply func(*xr.Options)
}

// queryOption builds a query-scope option.
func queryOption(name string, apply func(*xr.Options)) Option {
	return Option{name: name, scope: scopeQuery, apply: apply}
}

// exchangeOption builds an exchange-scope option.
func exchangeOption(name string, apply func(*xr.Options)) Option {
	return Option{name: name, scope: scopeExchange, apply: apply}
}

// dualOption builds an option valid at both exchange and query time.
func dualOption(name string, apply func(*xr.Options)) Option {
	return Option{name: name, scope: scopeExchange | scopeQuery, apply: apply}
}

// WithContext attaches a context to the call: cancellation stops in-flight
// solver work cooperatively and the call returns an error matching
// ErrCanceled (or ErrTimeout for a deadline). Scope: query.
func WithContext(ctx context.Context) Option {
	return queryOption("WithContext", func(o *xr.Options) { o.Ctx = ctx })
}

// WithTimeout bounds the call's solving time; it composes with WithContext
// (whichever expires first wins). Zero means no limit. Scope: query.
func WithTimeout(d time.Duration) Option {
	return queryOption("WithTimeout", func(o *xr.Options) { o.Timeout = d })
}

// WithParallelism solves up to n independent programs concurrently —
// per-signature programs for the segmentary engine, per-query programs for
// the monolithic engine. n <= 0 selects GOMAXPROCS. Answers and stats
// totals are identical to a sequential run at any setting. Scope: query.
func WithParallelism(n int) Option {
	return queryOption("WithParallelism", func(o *xr.Options) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.Parallelism = n
	})
}

// WithSignatureTimeout bounds the solving time of each signature program
// individually (segmentary engine only). Unlike WithTimeout, which cancels
// the whole call, an expired signature timeout cuts off only that
// signature: without WithPartialResults the query fails with an error
// matching ErrTimeout; with it, the signature is recorded in
// Answers.Degraded and its candidate tuples move to Answers.Unknown while
// every sibling signature completes normally. Zero means no limit.
// Scope: query.
func WithSignatureTimeout(d time.Duration) Option {
	return queryOption("WithSignatureTimeout", func(o *xr.Options) { o.SignatureTimeout = d })
}

// WithSolveBudget caps the solver effort spent on each signature program:
// at most maxDecisions decisions and maxConflicts conflicts (zero means
// unlimited for that counter). Budgets are deterministic — unlike wall
// clocks they exhaust at the same point on every run and at any
// WithParallelism setting. An exhausted signature fails the query with an
// error matching ErrBudget, or degrades it under WithPartialResults (after
// one retry with the budget doubled, on the signature's persistent solver,
// which keeps the clauses learned by the first attempt). Scope: query.
func WithSolveBudget(maxDecisions, maxConflicts int64) Option {
	return queryOption("WithSolveBudget", func(o *xr.Options) {
		o.MaxDecisions = maxDecisions
		o.MaxConflicts = maxConflicts
	})
}

// WithPartialResults makes the segmentary engine return sound partial
// answers instead of failing when a signature exceeds WithSignatureTimeout
// or WithSolveBudget (or panics): the Answers it returns are a sound lower
// bound on the XR-Certain answers (every reported tuple is a certain
// answer), undecided tuples are listed in Answers.Unknown, and each
// skipped signature is described in Answers.Degraded. Skipping a signature
// can only lose answers, never fabricate them — see DESIGN.md §11 for the
// soundness argument. Cancellation of the whole call (WithContext /
// WithTimeout) still fails the query regardless of this option.
// Scope: query.
func WithPartialResults(on bool) Option {
	return queryOption("WithPartialResults", func(o *xr.Options) { o.Partial = on })
}

// WithSolverTrace installs a hook receiving one TraceEvent per program
// solved (candidates tested, loops learned, conflicts, cache hits, ...).
// The hook is called serially even when solving in parallel. Scope: query.
func WithSolverTrace(f func(TraceEvent)) Option {
	return queryOption("WithSolverTrace", func(o *xr.Options) { o.Trace = f })
}

// WithExplanations makes Exchange.Answer / Possible attach one rendered
// Explanation per candidate tuple to the Answers (segmentary engine only):
// support closures and touched clusters for accepted tuples, a concrete
// counterexample exchange-repair for rejected ones, and the degradation
// cause for unknowns. Explanations are computed in a dedicated
// deterministic pass — one fresh solver per signature group, candidates
// decided in order as assumption sessions — so the output is
// byte-identical across runs, parallelism levels, and whatever the
// exchange answered before. The pass costs one extra witness solve per
// non-safe candidate; Exchange.Why explains a single tuple.
// Scope: query.
func WithExplanations(on bool) Option {
	return queryOption("WithExplanations", func(o *xr.Options) { o.Explain = on })
}

// Tracer collects a hierarchical execution-trace span tree: exchange
// sub-phases (reduce, chase tgds/violations, envelopes), the query phase,
// and one child span per signature program, each attributed to the worker
// lane it ran on. Export the tree with WriteChromeTrace — the JSON loads
// in Chrome's about:tracing and in Perfetto. Safe for concurrent use; a
// nil *Tracer is a valid disabled tracer.
type Tracer = telemetry.Tracer

// NewTracer returns an empty Tracer whose epoch is "now".
func NewTracer() *Tracer { return telemetry.NewTracer() }

// WithTracer attaches a Tracer to the call: NewExchange records the
// exchange-phase breakdown, Answer/Possible record the query phase with a
// child span per signature job and one "memo" span over the signature
// groups the verdict memo decided in place, and MonolithicAnswers records
// per-query spans. The same tracer may be shared across calls to build one timeline.
// Scope: exchange and query.
func WithTracer(t *Tracer) Option {
	return dualOption("WithTracer", func(o *xr.Options) { o.Tracer = t })
}

// Metrics is a registry of named counters, gauges, and latency histograms
// that the engines aggregate into when attached with WithMetrics. It is
// safe for concurrent use; counter totals are deterministic at any
// WithParallelism setting. Expose it with Snapshot (deterministic JSON),
// WritePrometheus (text exposition format), or ServeMetrics (HTTP).
type Metrics = telemetry.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// MetricsSnapshot is the point-in-time JSON form of a Metrics registry.
type MetricsSnapshot = telemetry.Snapshot

// WithMetrics aggregates phase timings and solver counters into reg:
// exchange-phase stats (Table 4), per-query and per-program counts,
// signature-cache hits/misses, and the DPLL core's decisions, conflicts,
// propagations, and restarts. A nil registry disables collection at
// near-zero cost. The same registry may be shared across calls, engines,
// and goroutines. Scope: exchange and query.
func WithMetrics(reg *Metrics) Option {
	return dualOption("WithMetrics", func(o *xr.Options) { o.Metrics = reg })
}

// Profile is a deterministic point-in-time snapshot of an Exchange's
// workload hardness profiler: per-signature and per-cluster solve
// accounting (wall-time histograms with p50/p95/p99, DPLL work counters,
// retries/degradations/budget exhaustions, cache and solver-reuse hits,
// cluster shapes), keyed by the same signature-key vocabulary TraceEvent,
// SignatureError, and explanations use. Obtain one with Exchange.Profile;
// rank it with Profile.Top.
type Profile = profile.Snapshot

// ProfileSignature is one signature's record inside a Profile.
type ProfileSignature = profile.SignatureProfile

// ProfileCluster is one violation cluster's record inside a Profile.
type ProfileCluster = profile.ClusterProfile

// Sort orders accepted by Profile.Top (and the daemon's /profile
// endpoint's ?sort= parameter).
const (
	ProfileSortWall      = profile.SortWall
	ProfileSortConflicts = profile.SortConflicts
	ProfileSortDegraded  = profile.SortDegraded
)

// WithProfiling attaches a workload hardness profiler to the Exchange:
// every signature solve of every later query accumulates into
// per-signature and per-cluster records, retrievable as a deterministic
// snapshot via Exchange.Profile. Recording happens at the same
// instrumentation points telemetry uses, adding commuting sums under one
// lock, so answers, Unknown sets, and ExchangeStats are byte-identical
// with profiling on or off at any WithParallelism setting; off (the
// default) costs one nil check per solve. The profiler keeps at most
// profile.DefaultMaxRecords (4096) signature records, evicting the
// coldest past that. When WithMetrics is also set, the profiler's own
// bookkeeping (records, evictions, total solves) is exported as
// xr_profile_* series. Scope: exchange.
func WithProfiling(on bool) Option {
	return exchangeOption("WithProfiling", func(o *xr.Options) { o.Profiling = on })
}

// MetricsServer is a running HTTP metrics endpoint; see ServeMetrics.
type MetricsServer = telemetry.Server

// ServeMetrics starts an HTTP endpoint exposing reg on addr (":0" picks an
// ephemeral port — read Addr). It serves /metrics (Prometheus text),
// /metrics.json (deterministic snapshot), /debug/vars (expvar), and
// /debug/pprof/. Close the returned server to shut it down.
func ServeMetrics(addr string, reg *Metrics) (*MetricsServer, error) {
	return telemetry.Serve(addr, reg)
}

// buildOptions folds the options into the engine-level struct after
// checking each against the calling scope. An out-of-scope option yields
// an *OptionScopeError (matching ErrOptionScope) naming the option and
// the call.
func buildOptions(call string, allowed optionScope, opts []Option) (xr.Options, error) {
	var o xr.Options
	for _, opt := range opts {
		if opt.apply == nil {
			continue // the zero Option is a no-op
		}
		if opt.scope&allowed == 0 {
			return xr.Options{}, &OptionScopeError{Option: opt.name, Call: call, Scope: opt.scope.String()}
		}
		opt.apply(&o)
	}
	return o, nil
}
