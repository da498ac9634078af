// Package repro is a Go implementation of exchange-repair (XR-Certain)
// query answering in data exchange, reproducing ten Cate, Halpert, Kolaitis:
// "Practical Query Answering in Data Exchange Under Inconsistency-Tolerant
// Semantics" (EDBT 2016).
//
// A schema mapping M = (S, T, Σst, Σt) specifies how source data populates
// a target schema under target constraints. When a source instance admits
// no solution, the usual certain answers trivialize; XR-Certain semantics
// instead intersects the answers over all solutions of all *source repairs*
// (maximal sub-instances that admit a solution).
//
// The package exposes three engines:
//
//   - Exchange/Answer — the paper's segmentary approach (Section 6): a
//     tractable query-independent exchange phase (chase, repair envelopes,
//     violation clusters), then one small disjunctive-logic-program per
//     fact signature at query time;
//   - MonolithicAnswers — the paper's baseline (Sections 4–5): one large
//     program per (query, instance);
//   - BruteForceAnswers — exhaustive repair enumeration, exponential, for
//     validation on small instances.
//
// Mappings, instances, and queries are supplied in a textual format; see
// the package examples and internal/parser for the grammar.
package repro

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/xr"
)

// System is a loaded schema mapping together with its symbol tables.
type System struct {
	w *parser.World
}

// Load parses a schema mapping from its textual form:
//
//	source R(attr, ...).          # declare a source relation
//	target T(attr, ...).          # declare a target relation
//	tgd [label:] body -> head.    # atoms joined with &; body over S (or T)
//	egd [label:] body -> x = y.   # body over T
//
// Identifiers in dependencies are variables; constants are quoted or
// numeric; `#` starts a comment.
func Load(mappingText string) (*System, error) {
	w, err := parser.ParseMapping(mappingText)
	if err != nil {
		return nil, err
	}
	return &System{w: w}, nil
}

// Instance is a source instance over a System's source schema.
type Instance struct {
	sys *System
	in  *instance.Instance
}

// ParseFacts loads a fact file ("R('a', 3)." — bare identifiers and numbers
// are constants in fact files).
func (s *System) ParseFacts(text string) (*Instance, error) {
	in, err := parser.ParseFacts(text, s.w)
	if err != nil {
		return nil, err
	}
	return &Instance{sys: s, in: in}, nil
}

// NumFacts returns the number of facts.
func (i *Instance) NumFacts() int { return i.in.Len() }

// Query is a union of conjunctive queries over the target schema.
type Query struct {
	sys *System
	q   *logic.UCQ
}

// Name returns the query name.
func (q *Query) Name() string { return q.q.Name }

// Arity returns the answer arity.
func (q *Query) Arity() int { return q.q.Arity }

// String renders the query in Datalog style.
func (q *Query) String() string { return q.q.String(q.sys.w.Cat, q.sys.w.U) }

// ParseQueries loads Datalog-style queries ("q(x) :- T(x, y), U(y)."),
// one UCQ per distinct name.
func (s *System) ParseQueries(text string) ([]*Query, error) {
	qs, err := parser.ParseQueries(text, s.w)
	if err != nil {
		return nil, err
	}
	out := make([]*Query, len(qs))
	for i, q := range qs {
		out[i] = &Query{sys: s, q: q}
	}
	return out, nil
}

// HasSolution reports whether the instance admits a solution w.r.t. the
// mapping (if not, plain certain answers trivialize and XR-Certain
// semantics is called for).
func (s *System) HasSolution(i *Instance) bool {
	return chase.HasSolution(s.w.M, i.in)
}

// Answers is a set of answer tuples, rendered as strings.
//
// Answers is part of the JSON wire format served by cmd/xrserved: the
// snake_case field names are a compatibility contract (see DESIGN.md §14),
// and durations travel as integer nanoseconds. Tuples and Unknown are
// always non-nil so they marshal as [] rather than null.
type Answers struct {
	Tuples [][]string `json:"tuples"`
	// Unknown lists the tuples left undecided when signatures were skipped
	// under WithPartialResults: each may or may not be an XR-Certain
	// answer. The true answer set lies between Tuples and Tuples ∪ Unknown.
	// Empty unless the query degraded.
	Unknown [][]string `json:"unknown"`
	// Degraded describes each signature group that was skipped (budget or
	// timeout exhausted after retry, or a contained panic), in canonical
	// signature-key order. Empty on a complete run.
	Degraded []SignatureError `json:"degraded,omitempty"`
	// Explanations holds one rendered explanation per candidate tuple, in
	// candidate order, when the query ran with WithExplanations(true)
	// (segmentary engine only). Empty otherwise.
	Explanations []Explanation `json:"explanations,omitempty"`
	// QueryStats carries the per-query measurements, marshaled inline:
	// candidates, safe and solver-accepted counts, programs solved,
	// signature-program cache hits (always 0 for the monolithic engine),
	// the graceful-degradation summary (signatures skipped, candidate
	// tuples left undecided, budget-doubling retries) and the duration.
	// Its fields read directly, as in ans.Candidates.
	xr.QueryStats
}

// Partial reports whether the answers are a (sound) lower bound rather
// than the exact XR-Certain set.
func (a *Answers) Partial() bool { return len(a.Degraded) > 0 }

func (s *System) answersOf(res *xr.Result) *Answers {
	return &Answers{
		Tuples:     s.render(res.Answers),
		Unknown:    s.render(res.Unknown),
		Degraded:   res.Degraded,
		QueryStats: res.Stats,
	}
}

// render names the values of a set's tuples, in the set's order, every row
// a window of one backing slice. A nil set renders as no rows.
func (s *System) render(set *cq.AnswerSet) [][]string {
	if set == nil {
		return [][]string{}
	}
	tuples := set.Tuples()
	n := 0
	for _, t := range tuples {
		n += len(t)
	}
	names := make([]string, n)
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		row := names[:len(t):len(t)]
		names = names[len(t):]
		for j, v := range t {
			row[j] = s.w.U.Name(v)
		}
		rows[i] = row
	}
	return rows
}

// Exchange is the reusable result of the segmentary exchange phase for one
// instance: the chased target, the suspect/safe split, and the violation
// clusters. Build it once, answer many queries.
type Exchange struct {
	sys *System
	ex  *xr.Exchange
}

// NewExchange runs the exchange phase (polynomial, query-independent).
// Only exchange-scope options apply: WithMetrics records the phase's
// Table-4 stats and makes the registry the exchange's default for later
// Answer/Possible/Repairs calls, and WithTracer records the exchange-phase
// breakdown. Passing a query-scope option (the exchange phase is
// uninterruptible, so there is nothing for them to do) returns an error
// matching ErrOptionScope.
func (s *System) NewExchange(i *Instance, opts ...Option) (*Exchange, error) {
	o, err := buildOptions("NewExchange", scopeExchange, opts)
	if err != nil {
		return nil, err
	}
	ex, err := xr.NewExchangeOpts(s.w.M, i.in, o)
	if err != nil {
		return nil, err
	}
	return &Exchange{sys: s, ex: ex}, nil
}

// Consistent reports whether the instance has a solution (no violations).
func (e *Exchange) Consistent() bool { return e.ex.Consistent() }

// Violations returns the number of violated ground egds.
func (e *Exchange) Violations() int { return e.ex.Stats.Violations }

// Clusters returns the number of violation clusters.
func (e *Exchange) Clusters() int { return e.ex.Stats.Clusters }

// SuspectFacts returns |I_suspect|, the size of the source repair envelope.
func (e *Exchange) SuspectFacts() int { return e.ex.SuspectSourceFacts() }

// Stats returns the raw exchange statistics.
func (e *Exchange) Stats() xr.ExchangeStats { return e.ex.Stats }

// QueryStateBytes returns the estimated size, in bytes, of what the
// exchange's queries have left on it: signature programs with their
// persistent solvers, and query plans. It is bounded per exchange; the
// least recently used entries are evicted past the bound, which changes
// no answer.
func (e *Exchange) QueryStateBytes() int64 { return e.ex.QueryStateBytes() }

// Profile returns a deterministic snapshot of the exchange's workload
// hardness profiler: per-signature and per-cluster solve accounting
// accumulated across every query since the Exchange was built. Requires
// WithProfiling(true) at NewExchange time; without it the snapshot is
// empty, never nil. Counter aggregates are deterministic at any
// WithParallelism; wall-time histograms are measured and vary run to run.
func (e *Exchange) Profile() *Profile { return e.ex.Profile() }

// MergeProfile folds a previously captured Profile into the exchange's
// profiler (additive) — the restore path for hardness history persisted
// across process restarts. No-op unless the Exchange was built with
// WithProfiling(true).
func (e *Exchange) MergeProfile(p *Profile) { e.ex.MergeProfile(p) }

// ProfilingEnabled reports whether the Exchange was built with
// WithProfiling(true).
func (e *Exchange) ProfilingEnabled() bool { return e.ex.ProfilingEnabled() }

// Answer computes the XR-Certain answers of q (segmentary query phase).
// Query-scope options tune the call: WithContext / WithTimeout for
// cancellation (errors match ErrCanceled / ErrTimeout), WithParallelism to
// solve signature programs concurrently, WithSolverTrace for diagnostics.
// Repeated calls on the same Exchange reuse cached signature programs.
func (e *Exchange) Answer(q *Query, opts ...Option) (*Answers, error) {
	o, err := buildOptions("Answer", scopeQuery, opts)
	if err != nil {
		return nil, err
	}
	res, err := e.ex.AnswerOpts(q.q, o)
	if err != nil {
		return nil, err
	}
	a := e.sys.answersOf(res)
	e.attachExplanations(a, res)
	return a, nil
}

// Possible computes the XR-Possible answers of q: the tuples holding in at
// least one exchange-repair solution (the union dual of XR-Certain). It
// accepts the same (query-scope) options as Answer and shares the same
// program cache.
func (e *Exchange) Possible(q *Query, opts ...Option) (*Answers, error) {
	o, err := buildOptions("Possible", scopeQuery, opts)
	if err != nil {
		return nil, err
	}
	res, err := e.ex.PossibleOpts(q.q, o)
	if err != nil {
		return nil, err
	}
	a := e.sys.answersOf(res)
	e.attachExplanations(a, res)
	return a, nil
}

// Repairs enumerates up to limit source repairs (0 = all) using the
// solver, rendered as fact files. Unlike SourceRepairs it scales past a
// couple of dozen facts: the safe part is shared and only the suspect
// envelope is searched. Query-scope options apply; WithContext /
// WithTimeout bound the enumeration.
func (e *Exchange) Repairs(limit int, opts ...Option) ([]string, error) {
	o, err := buildOptions("Repairs", scopeQuery, opts)
	if err != nil {
		return nil, err
	}
	repairs, err := e.ex.RepairsOpts(limit, o)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(repairs))
	for i, rep := range repairs {
		out[i] = parser.FormatFacts(rep, e.sys.w.Cat, e.sys.w.U)
	}
	return out, nil
}

// MonolithicAnswers computes XR-Certain answers with the monolithic
// pipeline: per query, the mapping is reduced, the instance chased, one
// large disjunctive program built, and cautious reasoning run. WithTimeout
// bounds each query individually; a timed-out query reports an error
// matching ErrTimeout in the per-query error slice while its Answers stay
// a (possibly empty) lower bound. WithParallelism solves queries
// concurrently; WithContext cancels the whole call.
func (s *System) MonolithicAnswers(i *Instance, queries []*Query, opts ...Option) ([]*Answers, []error, error) {
	qs := make([]*logic.UCQ, len(queries))
	for j, q := range queries {
		qs[j] = q.q
	}
	o, err := buildOptions("MonolithicAnswers", scopeQuery, opts)
	if err != nil {
		return nil, nil, err
	}
	results, err := xr.Monolithic(s.w.M, i.in, qs, o)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*Answers, len(results))
	errs := make([]error, len(results))
	for j, r := range results {
		out[j] = s.answersOf(r)
		errs[j] = r.Err
	}
	return out, errs, nil
}

// BruteForceAnswers computes XR-Certain answers by explicit source-repair
// enumeration (exponential; refuses instances over 22 facts). Intended for
// validating the other engines. Query-scope options apply; WithMetrics
// records repair and query counts, the cancellation and budget options
// have nothing to interrupt here.
func (s *System) BruteForceAnswers(i *Instance, queries []*Query, opts ...Option) ([]*Answers, error) {
	qs := make([]*logic.UCQ, len(queries))
	for j, q := range queries {
		qs[j] = q.q
	}
	o, err := buildOptions("BruteForceAnswers", scopeQuery, opts)
	if err != nil {
		return nil, err
	}
	results, err := xr.BruteForceOpts(s.w.M, i.in, qs, o)
	if err != nil {
		return nil, err
	}
	out := make([]*Answers, len(results))
	for j, r := range results {
		out[j] = s.answersOf(r)
	}
	return out, nil
}

// SourceRepairs enumerates the source repairs of a small instance and
// renders each as a fact file (for inspection and teaching).
func (s *System) SourceRepairs(i *Instance) ([]string, error) {
	repairs, err := xr.SourceRepairs(s.w.M, i.in)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(repairs))
	for j, rep := range repairs {
		out[j] = parser.FormatFacts(rep, s.w.Cat, s.w.U)
	}
	return out, nil
}

// MappingStats describes dependency counts.
func (s *System) MappingStats() string {
	return s.w.M.Stats().String()
}

// Materialize computes the core of the canonical universal solution for a
// consistent instance: the preferred target materialization in data
// exchange (Fagin–Kolaitis–Popa), with no redundant labeled nulls. It is
// rendered as a fact file; labeled nulls print as _N1, _N2, ...
//
// For inconsistent instances it returns an error — use NewExchange and the
// XR-Certain machinery instead.
func (s *System) Materialize(i *Instance) (string, error) {
	j, err := chase.Native(s.w.M, i.in)
	if err != nil {
		return "", fmt.Errorf("repro: %w: %v", ErrNoSolution, err)
	}
	target := j.Restrict(s.w.M.Target)
	core := chase.Core(target)
	return parser.FormatFacts(core, s.w.Cat, s.w.U), nil
}
