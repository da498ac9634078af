package profile

import (
	"encoding/json"
	"sort"
)

// Counters is one record's accumulated work: the live value inside the
// profiler and its JSON wire form. All fields are order-independent sums
// of per-solve contributions, so they are deterministic at any
// Parallelism — except WallNs, which is measured wall time (compare
// counters across runs, not time).
//
// Counters is part of the JSON wire format (snake_case field names are a
// compatibility contract).
type Counters struct {
	Solves           int64 `json:"solves"`
	WallNs           int64 `json:"wall_ns"`
	Candidates       int64 `json:"candidates"`
	CandidatesTested int64 `json:"candidates_tested"`
	StabilityFails   int64 `json:"stability_fails"`
	Decisions        int64 `json:"decisions"`
	Conflicts        int64 `json:"conflicts"`
	Propagations     int64 `json:"propagations"`
	Restarts         int64 `json:"restarts"`
	AssumptionSolves int64 `json:"assumption_solves"`
	Reductions       int64 `json:"reductions"`
	ClausesDeleted   int64 `json:"clauses_deleted"`
	Retries          int64 `json:"retries"`
	Degraded         int64 `json:"degraded"`
	BudgetExhausted  int64 `json:"budget_exhausted"`
	CacheHits        int64 `json:"cache_hits"`
	ReuseHits        int64 `json:"reuse_hits"`
}

// Add returns the field-wise sum a + b.
func (a Counters) Add(b Counters) Counters { return a.plus(b, 1) }

// Sub returns the field-wise difference a - b: the work recorded between
// two snapshots of one record.
func (a Counters) Sub(b Counters) Counters { return a.plus(b, -1) }

func (a Counters) plus(b Counters, k int64) Counters {
	return Counters{
		Solves:           a.Solves + k*b.Solves,
		WallNs:           a.WallNs + k*b.WallNs,
		Candidates:       a.Candidates + k*b.Candidates,
		CandidatesTested: a.CandidatesTested + k*b.CandidatesTested,
		StabilityFails:   a.StabilityFails + k*b.StabilityFails,
		Decisions:        a.Decisions + k*b.Decisions,
		Conflicts:        a.Conflicts + k*b.Conflicts,
		Propagations:     a.Propagations + k*b.Propagations,
		Restarts:         a.Restarts + k*b.Restarts,
		AssumptionSolves: a.AssumptionSolves + k*b.AssumptionSolves,
		Reductions:       a.Reductions + k*b.Reductions,
		ClausesDeleted:   a.ClausesDeleted + k*b.ClausesDeleted,
		Retries:          a.Retries + k*b.Retries,
		Degraded:         a.Degraded + k*b.Degraded,
		BudgetExhausted:  a.BudgetExhausted + k*b.BudgetExhausted,
		CacheHits:        a.CacheHits + k*b.CacheHits,
		ReuseHits:        a.ReuseHits + k*b.ReuseHits,
	}
}

// WallStats is the wire form of a record's wall-time histogram: the raw
// log₂ bucket counts (trailing zeros trimmed) plus quantile estimates
// reconstructed from them, so persistence round-trips losslessly and the
// quantiles re-derive identically after a Merge. Quantiles are in
// nanoseconds, matching SumNs.
type WallStats struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	P50     float64 `json:"p50_ns"`
	P95     float64 `json:"p95_ns"`
	P99     float64 `json:"p99_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// SignatureProfile is one signature's accumulated hardness record.
type SignatureProfile struct {
	// Key is the canonical signature key ("2,7") shared with
	// TraceEvent.SignatureKey, SignatureError.Signature, and
	// Explanation.Signature.
	Key string `json:"key"`
	// ClusterIDs are the violation clusters behind the signature; the
	// shape fields below sum those clusters' seeded shapes.
	ClusterIDs        []int `json:"cluster_ids,omitempty"`
	ClusterViolations int   `json:"cluster_violations"`
	EnvelopeFacts     int   `json:"envelope_facts"`
	InfluenceFacts    int   `json:"influence_facts"`
	Counters
	Wall WallStats `json:"wall"`
}

// ClusterProfile is one violation cluster's accumulated record. A solve
// of a multi-cluster signature is charged in full to every participating
// cluster, so cluster sums can exceed the signature sums.
type ClusterProfile struct {
	ID             int `json:"id"`
	Violations     int `json:"violations"`
	EnvelopeFacts  int `json:"envelope_facts"`
	InfluenceFacts int `json:"influence_facts"`
	Counters
}

// Snapshot is a point-in-time copy of a profiler, shaped for
// deterministic JSON: signatures sort by key, clusters by id, and every
// field marshals from a struct (no maps). It is both the introspection
// payload (GET /v1/scenarios/{name}/profile) and the persistence payload
// (profile.xr under the store envelope); Profiler.Merge restores it.
type Snapshot struct {
	// Records is the live signature-record count; Solves counts every
	// recorded solve including those in since-evicted records.
	Records    int                `json:"records"`
	Solves     int64              `json:"solves"`
	Evictions  int64              `json:"evictions"`
	Signatures []SignatureProfile `json:"signatures"`
	Clusters   []ClusterProfile   `json:"clusters,omitempty"`
}

// Snapshot copies the profiler's current state. On a nil profiler it
// returns an empty snapshot (never nil).
func (p *Profiler) Snapshot() *Snapshot {
	snap := &Snapshot{Signatures: []SignatureProfile{}}
	if p == nil {
		return snap
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap.Records = len(p.sigs)
	snap.Solves = p.totalSolves
	snap.Evictions = p.evictions
	keys := make([]string, 0, len(p.sigs))
	for key := range p.sigs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		snap.Signatures = append(snap.Signatures, p.sigs[key].profile())
	}
	ids := make([]int, 0, len(p.clusters))
	for id := range p.clusters {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := p.clusters[id]
		snap.Clusters = append(snap.Clusters, ClusterProfile{
			ID:             c.id,
			Violations:     c.violations,
			EnvelopeFacts:  c.envelopeFacts,
			InfluenceFacts: c.influenceFacts,
			Counters:       c.Counters,
		})
	}
	return snap
}

func (r *sigRecord) profile() SignatureProfile {
	count, sumNs, buckets := r.wall.Export()
	sp := SignatureProfile{
		Key:      r.key,
		Counters: r.Counters,
		Wall: WallStats{
			Count: count,
			SumNs: sumNs,
			// Quantile interpolates in seconds; the wire form is ns.
			P50:     r.wall.Quantile(0.50) * 1e9,
			P95:     r.wall.Quantile(0.95) * 1e9,
			P99:     r.wall.Quantile(0.99) * 1e9,
			Buckets: trimZeros(buckets),
		},
	}
	for _, c := range r.clusters {
		sp.ClusterIDs = append(sp.ClusterIDs, c.id)
		sp.ClusterViolations += c.violations
		sp.EnvelopeFacts += c.envelopeFacts
		sp.InfluenceFacts += c.influenceFacts
	}
	return sp
}

// trimZeros drops trailing zero buckets (nil when all are zero), keeping
// persisted snapshots compact; Histogram.Merge accepts the short form.
func trimZeros(buckets []int64) []int64 {
	n := len(buckets)
	for n > 0 && buckets[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return buckets[:n]
}

// Merge folds a snapshot into the profiler (additive), restoring
// persisted hardness history under live recording. Cluster shapes are
// adopted from the snapshot when the profiler has none; a restored
// signature joins the clusters its ClusterIDs list and arrives with heat
// equal to its solve count, so it competes fairly with live records under
// eviction. Restoring more signatures than MaxRecords evicts
// coldest-first as usual. Nil-safe no-op.
func (p *Profiler) Merge(snap *Snapshot) {
	if p == nil || snap == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalSolves += snap.Solves
	p.evictions += snap.Evictions
	// Clusters first, so signature records created below find shapes.
	for i := range snap.Clusters {
		cp := &snap.Clusters[i]
		c := p.clusterForLocked(cp.ID)
		if c.violations == 0 && c.envelopeFacts == 0 && c.influenceFacts == 0 {
			c.violations = cp.Violations
			c.envelopeFacts = cp.EnvelopeFacts
			c.influenceFacts = cp.InfluenceFacts
		}
		c.Counters = c.Counters.Add(cp.Counters)
	}
	for i := range snap.Signatures {
		sp := &snap.Signatures[i]
		r := p.sigForLocked(sp.Key, sp.ClusterIDs)
		r.Counters = r.Counters.Add(sp.Counters)
		r.wall.Merge(sp.Wall.Count, sp.Wall.SumNs, sp.Wall.Buckets)
		r.heat += sp.Solves
	}
}

// Sort orders accepted by Top and the /profile endpoint.
const (
	SortWall      = "wall"
	SortConflicts = "conflicts"
	SortDegraded  = "degraded"
)

// ValidSort reports whether by names a supported Top order ("" selects
// the default, SortWall).
func ValidSort(by string) bool {
	switch by {
	case "", SortWall, SortConflicts, SortDegraded:
		return true
	}
	return false
}

// Top returns the n hottest signatures under the given order — total
// wall time, conflicts, or degradations (degradations tie-break on
// budget exhaustions, then conflicts) — with ties broken by key, so the
// result is deterministic. n <= 0 returns all signatures sorted.
func (s *Snapshot) Top(n int, by string) []SignatureProfile {
	out := append([]SignatureProfile(nil), s.Signatures...)
	key := func(sp *SignatureProfile) (int64, int64) {
		switch by {
		case SortConflicts:
			return sp.Conflicts, sp.Decisions
		case SortDegraded:
			return sp.Degraded, sp.BudgetExhausted
		default:
			return sp.WallNs, sp.Conflicts
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, si := key(&out[i])
		pj, sj := key(&out[j])
		if pi != pj {
			return pi > pj
		}
		if si != sj {
			return si > sj
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// MarshalIndent renders the snapshot as indented deterministic JSON (the
// persistence and CLI dump format).
func (s *Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSnapshot decodes a snapshot previously produced by MarshalIndent
// (or any JSON marshaling of Snapshot).
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
