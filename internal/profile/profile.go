// Package profile is the workload hardness profiler: a dependency-free,
// race-clean accumulator of per-signature and per-cluster solve records
// across all queries of an Exchange's lifetime (DESIGN.md §18).
//
// Records are keyed by the canonical signature key ("2,7") — the same
// vocabulary TraceEvent.SignatureKey, SignatureError.Signature, and
// Explanation.Signature share — so a slow request, a degradation report,
// and an explanation all pivot to the same profile entry. Each signature
// record carries a log₂ wall-time histogram (quantiles via
// telemetry.Histogram.Quantile), the DPLL work counters, incremental-
// session delta work, degradation accounting, cache/reuse attribution,
// and the shape of the clusters behind the signature; cluster records
// aggregate the same counters per violation cluster, charging every
// cluster of a multi-cluster signature with the full solve.
//
// Concurrency and determinism: the hot path is one RLock'd map lookup
// followed by atomic adds, so concurrent workers only ever commute —
// counter aggregates are deterministic at any Parallelism, exactly like
// the telemetry registry they mirror. Wall-time buckets are measured, not
// derived, and therefore vary run to run; consumers comparing profiles
// across runs must compare counters, not time.
//
// Memory is bounded: signature records are capped (Config.MaxRecords),
// and inserting past the cap evicts the coldest record — smallest decayed
// heat, ties broken toward the lexicographically smallest key — then
// halves every survivor's heat, so stale one-time hot spots age out. An
// eviction counter (and xr_profile_evictions_total when a registry is
// attached) records the loss. Cluster records are bounded by the
// exchange's cluster count and are never evicted.
//
// All recording methods are nil-safe no-ops, so engines hold a possibly
// nil *Profiler and call it unconditionally — the disabled path costs one
// nil check per solve.
package profile

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asp"
	"repro/internal/telemetry"
)

// DefaultMaxRecords bounds the signature-record table when Config leaves
// MaxRecords zero. Signatures are subsets of violation clusters actually
// hit by queries, so real workloads sit far below this.
const DefaultMaxRecords = 4096

// Config configures a Profiler.
type Config struct {
	// MaxRecords caps the signature-record table (0 = DefaultMaxRecords).
	MaxRecords int
	// Metrics, when non-nil, receives the profiler's own bookkeeping
	// series: xr_profile_records (gauge), xr_profile_records_created_total,
	// xr_profile_evictions_total, and xr_profile_solves_total.
	Metrics *telemetry.Registry
}

// Profiler accumulates hardness records. Create with New; a nil
// *Profiler is a valid disabled profiler.
type Profiler struct {
	maxRecords int

	mu       sync.RWMutex
	sigs     map[string]*sigRecord
	clusters map[int]*clusterRecord

	totalSolves atomic.Int64
	evictions   atomic.Int64

	mRecords   *telemetry.Gauge
	mCreated   *telemetry.Counter
	mEvictions *telemetry.Counter
	mSolves    *telemetry.Counter
}

// New returns an empty profiler.
func New(cfg Config) *Profiler {
	maxRecords := cfg.MaxRecords
	if maxRecords <= 0 {
		maxRecords = DefaultMaxRecords
	}
	p := &Profiler{
		maxRecords: maxRecords,
		sigs:       make(map[string]*sigRecord),
		clusters:   make(map[int]*clusterRecord),
	}
	// telemetry instruments are nil-safe, so a nil registry just yields
	// nil instruments here and free no-ops on the hot path.
	p.mRecords = cfg.Metrics.Gauge("xr_profile_records")
	p.mCreated = cfg.Metrics.Counter("xr_profile_records_created_total")
	p.mEvictions = cfg.Metrics.Counter("xr_profile_evictions_total")
	p.mSolves = cfg.Metrics.Counter("xr_profile_solves_total")
	return p
}

// Solve is one signature solve's contribution: the values of the
// TraceEvent emitted at the same instrumentation point. The work counters
// are per-session deltas on the signature's persistent solver, which is
// exactly what should accumulate. LoopsLearned and TheoryRejects are not
// accumulated.
type Solve struct {
	Wall       time.Duration
	Candidates int
	asp.Stats
	CacheHit     bool
	SolverReused bool
}

// counters is the atomic accumulator shared by signature and cluster
// records; Counters is its wire form.
type counters struct {
	solves           atomic.Int64
	wallNs           atomic.Int64
	candidates       atomic.Int64
	candidatesTested atomic.Int64
	stabilityFails   atomic.Int64
	decisions        atomic.Int64
	conflicts        atomic.Int64
	propagations     atomic.Int64
	restarts         atomic.Int64
	assumptionSolves atomic.Int64
	reductions       atomic.Int64
	clausesDeleted   atomic.Int64
	retries          atomic.Int64
	degraded         atomic.Int64
	budgetExhausted  atomic.Int64
	cacheHits        atomic.Int64
	reuseHits        atomic.Int64
}

func (c *counters) addSolve(s *Solve) {
	c.solves.Add(1)
	c.wallNs.Add(s.Wall.Nanoseconds())
	c.candidates.Add(int64(s.Candidates))
	c.candidatesTested.Add(int64(s.CandidatesTested))
	c.stabilityFails.Add(int64(s.StabilityFails))
	c.decisions.Add(s.Decisions)
	c.conflicts.Add(s.Conflicts)
	c.propagations.Add(s.Propagations)
	c.restarts.Add(s.Restarts)
	c.assumptionSolves.Add(s.AssumptionSolves)
	c.reductions.Add(s.Reductions)
	c.clausesDeleted.Add(s.ClausesDeleted)
	if s.CacheHit {
		c.cacheHits.Add(1)
	}
	if s.SolverReused {
		c.reuseHits.Add(1)
	}
}

func (c *counters) export() Counters {
	return Counters{
		Solves:           c.solves.Load(),
		WallNs:           c.wallNs.Load(),
		Candidates:       c.candidates.Load(),
		CandidatesTested: c.candidatesTested.Load(),
		StabilityFails:   c.stabilityFails.Load(),
		Decisions:        c.decisions.Load(),
		Conflicts:        c.conflicts.Load(),
		Propagations:     c.propagations.Load(),
		Restarts:         c.restarts.Load(),
		AssumptionSolves: c.assumptionSolves.Load(),
		Reductions:       c.reductions.Load(),
		ClausesDeleted:   c.clausesDeleted.Load(),
		Retries:          c.retries.Load(),
		Degraded:         c.degraded.Load(),
		BudgetExhausted:  c.budgetExhausted.Load(),
		CacheHits:        c.cacheHits.Load(),
		ReuseHits:        c.reuseHits.Load(),
	}
}

func (c *counters) merge(w *Counters) {
	c.solves.Add(w.Solves)
	c.wallNs.Add(w.WallNs)
	c.candidates.Add(w.Candidates)
	c.candidatesTested.Add(w.CandidatesTested)
	c.stabilityFails.Add(w.StabilityFails)
	c.decisions.Add(w.Decisions)
	c.conflicts.Add(w.Conflicts)
	c.propagations.Add(w.Propagations)
	c.restarts.Add(w.Restarts)
	c.assumptionSolves.Add(w.AssumptionSolves)
	c.reductions.Add(w.Reductions)
	c.clausesDeleted.Add(w.ClausesDeleted)
	c.retries.Add(w.Retries)
	c.degraded.Add(w.Degraded)
	c.budgetExhausted.Add(w.BudgetExhausted)
	c.cacheHits.Add(w.CacheHits)
	c.reuseHits.Add(w.ReuseHits)
}

// sigRecord is one signature's live record. clusters is resolved once at
// creation so the hot path does no map lookups beyond the key itself.
type sigRecord struct {
	key      string
	clusters []*clusterRecord
	wall     telemetry.Histogram
	heat     atomic.Int64
	counters
}

// clusterRecord is one violation cluster's live record. Shape fields are
// written only under the profiler lock (seed/merge) and read under it.
type clusterRecord struct {
	id             int
	violations     int
	envelopeFacts  int
	influenceFacts int
	counters
}

// RecordSolve accumulates one completed signature solve.
func (p *Profiler) RecordSolve(key string, s Solve) {
	if p == nil {
		return
	}
	r := p.sigFor(key)
	r.heat.Add(1)
	r.wall.Observe(s.Wall)
	r.addSolve(&s)
	for _, c := range r.clusters {
		c.addSolve(&s)
	}
	p.totalSolves.Add(1)
	p.mSolves.Inc()
}

// RecordRetry accumulates one budget-doubling retry of a signature.
func (p *Profiler) RecordRetry(key string) {
	if p == nil {
		return
	}
	r := p.sigFor(key)
	r.heat.Add(1)
	r.retries.Add(1)
	for _, c := range r.clusters {
		c.retries.Add(1)
	}
}

// RecordDegraded accumulates one degradation: the signature's group was
// left undecided under Options.Partial.
func (p *Profiler) RecordDegraded(key string) {
	if p == nil {
		return
	}
	r := p.sigFor(key)
	r.heat.Add(1)
	r.degraded.Add(1)
	for _, c := range r.clusters {
		c.degraded.Add(1)
	}
}

// RecordBudgetExhausted accumulates one exhausted deterministic DPLL
// budget (each failed attempt counts, including the one before a retry).
func (p *Profiler) RecordBudgetExhausted(key string) {
	if p == nil {
		return
	}
	r := p.sigFor(key)
	r.heat.Add(1)
	r.budgetExhausted.Add(1)
	for _, c := range r.clusters {
		c.budgetExhausted.Add(1)
	}
}

// SeedCluster records a cluster's shape — violation count, source repair
// envelope size, and influence (support-closure breadth on the target
// side) — measured once at envelope construction.
func (p *Profiler) SeedCluster(id, violations, envelopeFacts, influenceFacts int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	c := p.clusterForLocked(id)
	c.violations = violations
	c.envelopeFacts = envelopeFacts
	c.influenceFacts = influenceFacts
	p.mu.Unlock()
}

// Records returns the live signature-record count (0 on nil).
func (p *Profiler) Records() int {
	if p == nil {
		return 0
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.sigs)
}

// Solves returns the total solves recorded, including into since-evicted
// records (0 on nil).
func (p *Profiler) Solves() int64 {
	if p == nil {
		return 0
	}
	return p.totalSolves.Load()
}

// Evictions returns the signature records evicted so far (0 on nil).
func (p *Profiler) Evictions() int64 {
	if p == nil {
		return 0
	}
	return p.evictions.Load()
}

func (p *Profiler) sigFor(key string) *sigRecord {
	p.mu.RLock()
	r := p.sigs[key]
	p.mu.RUnlock()
	if r != nil {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sigForLocked(key)
}

func (p *Profiler) sigForLocked(key string) *sigRecord {
	if r := p.sigs[key]; r != nil {
		return r
	}
	if len(p.sigs) >= p.maxRecords {
		p.evictLocked()
	}
	r := &sigRecord{key: key}
	for _, id := range parseKey(key) {
		r.clusters = append(r.clusters, p.clusterForLocked(id))
	}
	p.sigs[key] = r
	p.mCreated.Inc()
	p.mRecords.Set(int64(len(p.sigs)))
	return r
}

func (p *Profiler) clusterForLocked(id int) *clusterRecord {
	c, ok := p.clusters[id]
	if !ok {
		c = &clusterRecord{id: id}
		p.clusters[id] = c
	}
	return c
}

// evictLocked makes room for one insertion: evict the coldest record
// (smallest heat, ties toward the smallest key), then halve every
// survivor's heat so historical popularity decays.
func (p *Profiler) evictLocked() {
	for len(p.sigs) >= p.maxRecords {
		var victim *sigRecord
		for _, r := range p.sigs {
			if victim == nil {
				victim = r
				continue
			}
			h, vh := r.heat.Load(), victim.heat.Load()
			if h < vh || (h == vh && r.key < victim.key) {
				victim = r
			}
		}
		delete(p.sigs, victim.key)
		p.evictions.Add(1)
		p.mEvictions.Inc()
	}
	for _, r := range p.sigs {
		r.heat.Store(r.heat.Load() >> 1)
	}
	p.mRecords.Set(int64(len(p.sigs)))
}

// parseKey splits a canonical signature key back into cluster ids; it is
// the inverse of the key construction in internal/xr (sorted ids joined
// with commas). Malformed segments are skipped, never fatal.
func parseKey(key string) []int {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, ",")
	ids := make([]int, 0, len(parts))
	for _, s := range parts {
		if id, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
			ids = append(ids, id)
		}
	}
	return ids
}
