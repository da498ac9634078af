// Package server implements xrserved: a long-lived, multi-tenant HTTP
// daemon hosting many named exchanges and serving concurrent XR-Certain /
// XR-Possible queries against shared warm signature caches.
//
// The package glues the public repro API to a wire protocol (DESIGN.md
// §14): scenarios are loaded once (paying the polynomial exchange phase
// and warming the per-exchange signature-program cache), then queried many
// times. Admission control is process-wide: one bounded solver-lane pool
// shared across tenants, a semaphore on concurrent requests (saturation
// returns 429 + Retry-After), server-side default budgets so a hostile
// query degrades instead of wedging a tenant, and graceful drain.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro"
)

// Registry errors, matched with errors.Is by the HTTP layer.
var (
	// ErrScenarioExists reports a Load under a name already in use.
	ErrScenarioExists = errors.New("server: scenario already loaded")
	// ErrScenarioNotFound reports a lookup of an unknown scenario.
	ErrScenarioNotFound = errors.New("server: scenario not found")
	// ErrRegistryFull reports that MaxScenarios tenants are already loaded.
	ErrRegistryFull = errors.New("server: scenario registry full")
	// ErrBadScenario wraps mapping/fact/query parse failures during Load.
	ErrBadScenario = errors.New("server: invalid scenario")
	// ErrBadQuery wraps per-request query text failures.
	ErrBadQuery = errors.New("server: invalid query")
)

// Scenario is one loaded tenant: a schema mapping, a source instance, and
// the warm Exchange every query against this tenant shares. The exchange
// phase runs once at load time; the signature-program cache inside the
// Exchange then amortizes across all subsequent queries.
type Scenario struct {
	Name string

	sys *repro.System
	in  *repro.Instance
	ex  *repro.Exchange

	// mu guards the scenario's symbol tables: parsing (queries intern new
	// constants into the shared universe) takes the write lock, while
	// query execution and answer rendering (reads of the universe) take
	// the read lock. Loads are one-time; queries overwhelmingly take the
	// read path, so concurrent queries against one tenant proceed in
	// parallel.
	mu sync.RWMutex

	// queries are the named queries preloaded with the scenario, kept in
	// declaration order for deterministic listings.
	queries    map[string]*repro.Query
	queryNames []string

	// refMu guards the drain refcount: Registry.Acquire takes a reference
	// for a request's whole execution, Remove marks the scenario removed,
	// and the drained callback fires exactly once when the last reference
	// of a removed scenario releases (immediately, if none are held). New
	// requests 404 the moment the name leaves the registry map; in-flight
	// ones finish against the old exchange.
	refMu   sync.Mutex
	refs    int
	removed bool
	drained func()
}

// acquire takes a drain reference. Called only while the registry lock
// pins the scenario in the map, so acquire always precedes markRemoved's
// drain decision for this reference.
func (sc *Scenario) acquire() {
	sc.refMu.Lock()
	sc.refs++
	sc.refMu.Unlock()
}

// release drops a drain reference, firing the drained callback when it
// was the last one on a removed scenario.
func (sc *Scenario) release() {
	sc.refMu.Lock()
	sc.refs--
	var fire func()
	if sc.removed && sc.refs == 0 {
		fire, sc.drained = sc.drained, nil
	}
	sc.refMu.Unlock()
	if fire != nil {
		fire()
	}
}

// markRemoved records the scenario as unloaded and arranges for onDrained
// to run once the last in-flight reference releases (now, if none).
func (sc *Scenario) markRemoved(onDrained func()) {
	sc.refMu.Lock()
	sc.removed = true
	var fire func()
	if sc.refs == 0 {
		fire = onDrained
	} else {
		sc.drained = onDrained
	}
	sc.refMu.Unlock()
	if fire != nil {
		fire()
	}
}

// newScenario parses and builds one tenant. The queries text is optional;
// when present, each named query becomes addressable by name in query and
// explain requests.
func newScenario(name, mappingText, factsText, queriesText string, exOpts ...repro.Option) (*Scenario, error) {
	sys, err := repro.Load(mappingText)
	if err != nil {
		return nil, fmt.Errorf("%w: mapping: %v", ErrBadScenario, err)
	}
	in, err := sys.ParseFacts(factsText)
	if err != nil {
		return nil, fmt.Errorf("%w: facts: %v", ErrBadScenario, err)
	}
	ex, err := sys.NewExchange(in, exOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: exchange: %v", ErrBadScenario, err)
	}
	sc := &Scenario{
		Name:    name,
		sys:     sys,
		in:      in,
		ex:      ex,
		queries: make(map[string]*repro.Query),
	}
	if queriesText != "" {
		qs, err := sys.ParseQueries(queriesText)
		if err != nil {
			return nil, fmt.Errorf("%w: queries: %v", ErrBadScenario, err)
		}
		for _, q := range qs {
			if _, dup := sc.queries[q.Name()]; dup {
				return nil, fmt.Errorf("%w: queries: duplicate query name %q", ErrBadScenario, q.Name())
			}
			sc.queries[q.Name()] = q
			sc.queryNames = append(sc.queryNames, q.Name())
		}
	}
	return sc, nil
}

// Query returns the preloaded query with the given name.
func (sc *Scenario) Query(name string) (*repro.Query, bool) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	q, ok := sc.queries[name]
	return q, ok
}

// ParseQuery parses inline query text against the scenario's schema under
// the write lock (parsing interns constants into the shared universe).
// The text must define exactly one query.
func (sc *Scenario) ParseQuery(text string) (*repro.Query, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	qs, err := sc.sys.ParseQueries(text)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("%w: inline query text must define exactly one query, got %d", ErrBadQuery, len(qs))
	}
	return qs[0], nil
}

// Answer runs an XR-Certain query under the read lock.
func (sc *Scenario) Answer(q *repro.Query, opts ...repro.Option) (*repro.Answers, error) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.ex.Answer(q, opts...)
}

// Possible runs an XR-Possible query under the read lock.
func (sc *Scenario) Possible(q *repro.Query, opts ...repro.Option) (*repro.Answers, error) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.ex.Possible(q, opts...)
}

// Why explains one tuple of a preloaded query under the read lock.
func (sc *Scenario) Why(q *repro.Query, args []string, opts ...repro.Option) (*repro.Explanation, error) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.ex.Why(q, args, opts...)
}

// Info summarizes the tenant for the wire (see ScenarioInfo).
func (sc *Scenario) Info() ScenarioInfo {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	st := sc.ex.Stats()
	return ScenarioInfo{
		Name:         sc.Name,
		SourceFacts:  sc.in.NumFacts(),
		Consistent:   sc.ex.Consistent(),
		Violations:   sc.ex.Violations(),
		Clusters:     sc.ex.Clusters(),
		SuspectFacts: sc.ex.SuspectFacts(),
		Queries:      append([]string{}, sc.queryNames...),
		Stats:        st,

		QueryStateBytes: sc.ex.QueryStateBytes(),
	}
}

// Profile snapshots the tenant's workload profiler under the read lock.
// The snapshot is deterministic JSON-shaped data (see internal/profile);
// on a tenant built without profiling it is empty, never nil.
func (sc *Scenario) Profile() *repro.Profile {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.ex.Profile()
}

// MergeProfile folds a restored snapshot into the tenant's profiler
// (additive; see Profiler.Merge). Used at boot to resume persisted
// hardness history under live recording.
func (sc *Scenario) MergeProfile(p *repro.Profile) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.ex.MergeProfile(p)
}

// Registry is the multi-tenant scenario table: named Scenarios with
// load/unload/list lifecycle. All methods are safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	scenarios map[string]*Scenario
	max       int
}

// NewRegistry returns an empty registry capped at max tenants (0 means
// unlimited).
func NewRegistry(max int) *Registry {
	return &Registry{scenarios: make(map[string]*Scenario), max: max}
}

// Load parses, chases, and registers one scenario. Building the exchange
// happens outside the registry lock so a slow load never blocks queries
// against other tenants; the name is reserved first so two concurrent
// loads of the same name cannot both win.
func (r *Registry) Load(name, mappingText, factsText, queriesText string, exOpts ...repro.Option) (*Scenario, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty scenario name", ErrBadScenario)
	}
	r.mu.Lock()
	if _, dup := r.scenarios[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrScenarioExists, name)
	}
	if r.max > 0 && len(r.scenarios) >= r.max {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d scenarios loaded", ErrRegistryFull, len(r.scenarios))
	}
	r.scenarios[name] = nil // reserve the name while building
	r.mu.Unlock()

	sc, err := newScenario(name, mappingText, factsText, queriesText, exOpts...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		delete(r.scenarios, name)
		return nil, err
	}
	r.scenarios[name] = sc
	return sc, nil
}

// Get returns the named scenario. A name reserved by an in-flight Load is
// not yet visible.
func (r *Registry) Get(name string) (*Scenario, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc, ok := r.scenarios[name]
	if !ok || sc == nil {
		return nil, fmt.Errorf("%w: %q", ErrScenarioNotFound, name)
	}
	return sc, nil
}

// Acquire returns the named scenario holding a drain reference; the
// caller must invoke release when done with the scenario (typically via
// defer). The reference keeps a concurrent Remove from reporting the
// tenant drained while this request still runs against its exchange.
func (r *Registry) Acquire(name string) (sc *Scenario, release func(), err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc, ok := r.scenarios[name]
	if !ok || sc == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrScenarioNotFound, name)
	}
	// Acquired under the registry lock: Remove deletes the map entry
	// under the write lock before deciding drain, so this reference is
	// always visible to markRemoved.
	sc.acquire()
	return sc, sc.release, nil
}

// Remove unloads the named scenario and returns it: new lookups 404
// immediately, while in-flight requests holding a drain reference finish
// normally against the old exchange. The caller wires drain completion
// with markRemoved on the returned scenario.
func (r *Registry) Remove(name string) (*Scenario, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc, ok := r.scenarios[name]
	if !ok || sc == nil {
		return nil, fmt.Errorf("%w: %q", ErrScenarioNotFound, name)
	}
	delete(r.scenarios, name)
	return sc, nil
}

// List returns the loaded scenarios sorted by name (deterministic wire
// listings).
func (r *Registry) List() []*Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Scenario, 0, len(r.scenarios))
	for _, sc := range r.scenarios {
		if sc != nil {
			out = append(out, sc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of fully loaded scenarios.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, sc := range r.scenarios {
		if sc != nil {
			n++
		}
	}
	return n
}
