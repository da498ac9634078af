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
// Concurrency and determinism: every record is a plain Counters sum that
// changes only under the profiler's mutex, one map update per recording
// call. Sums commute, so counter aggregates are deterministic at any
// Parallelism, exactly like the telemetry registry they mirror. Wall-time
// buckets are measured, not derived, and therefore vary run to run;
// consumers comparing profiles across runs must compare counters, not
// time.
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
	"sync"
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

	mu          sync.Mutex
	sigs        map[string]*sigRecord
	clusters    map[int]*clusterRecord
	totalSolves int64
	evictions   int64

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

// counters is the solve's contribution to its records.
func (s *Solve) counters() Counters {
	c := Counters{
		Solves:           1,
		WallNs:           s.Wall.Nanoseconds(),
		Candidates:       int64(s.Candidates),
		CandidatesTested: int64(s.CandidatesTested),
		StabilityFails:   int64(s.StabilityFails),
		Decisions:        s.Decisions,
		Conflicts:        s.Conflicts,
		Propagations:     s.Propagations,
		Restarts:         s.Restarts,
		AssumptionSolves: s.AssumptionSolves,
		Reductions:       s.Reductions,
		ClausesDeleted:   s.ClausesDeleted,
	}
	if s.CacheHit {
		c.CacheHits = 1
	}
	if s.SolverReused {
		c.ReuseHits = 1
	}
	return c
}

// sigRecord is one signature's live record. clusters is resolved once at
// creation, so recording touches no map beyond the key itself.
type sigRecord struct {
	key      string
	clusters []*clusterRecord
	wall     telemetry.Histogram
	heat     int64 // recording calls since the last decay; orders eviction
	Counters
}

// clusterRecord is one violation cluster's live record.
type clusterRecord struct {
	id             int
	violations     int
	envelopeFacts  int
	influenceFacts int
	Counters
}

// RecordSolve accumulates one completed solve of signature key, whose
// violation clusters are sig (sorted, as the key lists them).
func (p *Profiler) RecordSolve(key string, sig []int, s Solve) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recordLocked(key, sig, s.counters()).wall.Observe(s.Wall)
}

// Record adds c to signature key's record and to each of its clusters'
// records: a budget-doubling retry is Counters{Retries: 1}, a group left
// undecided under Options.Partial is Counters{Degraded: 1}, and an
// exhausted deterministic DPLL budget (each failed attempt, including the
// one before a retry) is Counters{BudgetExhausted: 1}.
func (p *Profiler) Record(key string, sig []int, c Counters) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recordLocked(key, sig, c)
}

func (p *Profiler) recordLocked(key string, sig []int, c Counters) *sigRecord {
	r := p.sigForLocked(key, sig)
	r.heat++
	r.Counters = r.Counters.Add(c)
	for _, cr := range r.clusters {
		cr.Counters = cr.Counters.Add(c)
	}
	p.totalSolves += c.Solves
	p.mSolves.Add(c.Solves)
	return r
}

// SeedCluster records a cluster's shape — violation count, source repair
// envelope size, and influence (support-closure breadth on the target
// side) — measured once at envelope construction.
func (p *Profiler) SeedCluster(id, violations, envelopeFacts, influenceFacts int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.clusterForLocked(id)
	c.violations = violations
	c.envelopeFacts = envelopeFacts
	c.influenceFacts = influenceFacts
}

func (p *Profiler) sigForLocked(key string, sig []int) *sigRecord {
	if r := p.sigs[key]; r != nil {
		return r
	}
	if len(p.sigs) >= p.maxRecords {
		p.evictLocked()
	}
	r := &sigRecord{key: key}
	for _, id := range sig {
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
			if victim == nil || r.heat < victim.heat || (r.heat == victim.heat && r.key < victim.key) {
				victim = r
			}
		}
		delete(p.sigs, victim.key)
		p.evictions++
		p.mEvictions.Inc()
	}
	for _, r := range p.sigs {
		r.heat >>= 1
	}
	p.mRecords.Set(int64(len(p.sigs)))
}
