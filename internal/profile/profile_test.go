package profile

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/telemetry"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.RecordSolve("1", Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 5}})
	p.RecordRetry("1")
	p.RecordDegraded("1")
	p.RecordBudgetExhausted("1")
	p.SeedCluster(0, 1, 2, 3)
	p.Merge(&Snapshot{Solves: 7})
	if p.Records() != 0 || p.Solves() != 0 || p.Evictions() != 0 {
		t.Fatal("nil profiler reported state")
	}
	snap := p.Snapshot()
	if snap == nil {
		t.Fatal("nil profiler snapshot is nil")
	}
	if snap.Records != 0 || len(snap.Signatures) != 0 {
		t.Fatalf("nil profiler snapshot not empty: %+v", snap)
	}
	if snap.Signatures == nil {
		t.Fatal("Signatures must be non-nil (stable JSON: [] not null)")
	}
}

func TestRecordSolveAggregatesAndAttributesClusters(t *testing.T) {
	p := New(Config{})
	p.SeedCluster(1, 2, 10, 20)
	p.SeedCluster(2, 3, 30, 40)
	s := Solve{
		Wall: 2 * time.Millisecond, Candidates: 4,
		Stats: asp.Stats{
			CandidatesTested: 3, StabilityFails: 1, Decisions: 100, Conflicts: 7,
			Propagations: 900, Restarts: 2, AssumptionSolves: 5, Reductions: 1,
			ClausesDeleted: 12,
		},
		CacheHit: true, SolverReused: true,
	}
	p.RecordSolve("1,2", s)
	p.RecordSolve("1,2", Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 10}})
	p.RecordSolve("2", Solve{Wall: time.Millisecond, Stats: asp.Stats{Conflicts: 1}})
	p.RecordRetry("1,2")
	p.RecordDegraded("2")
	p.RecordBudgetExhausted("1,2")

	snap := p.Snapshot()
	if snap.Records != 2 || snap.Solves != 3 {
		t.Fatalf("records=%d solves=%d, want 2/3", snap.Records, snap.Solves)
	}
	if len(snap.Signatures) != 2 || snap.Signatures[0].Key != "1,2" || snap.Signatures[1].Key != "2" {
		t.Fatalf("signature order: %+v", snap.Signatures)
	}
	multi := snap.Signatures[0]
	if multi.Solves != 2 || multi.Decisions != 110 || multi.Conflicts != 7 ||
		multi.Retries != 1 || multi.BudgetExhausted != 1 ||
		multi.CacheHits != 1 || multi.ReuseHits != 1 {
		t.Fatalf("multi-cluster counters: %+v", multi.Counters)
	}
	if multi.WallNs != int64(3*time.Millisecond) || multi.Wall.Count != 2 {
		t.Fatalf("wall accounting: ns=%d count=%d", multi.WallNs, multi.Wall.Count)
	}
	// The multi-cluster signature's shape sums both seeded clusters.
	if !reflect.DeepEqual(multi.ClusterIDs, []int{1, 2}) ||
		multi.ClusterViolations != 5 || multi.EnvelopeFacts != 40 || multi.InfluenceFacts != 60 {
		t.Fatalf("shape: %+v", multi)
	}
	// Each participating cluster is charged the full solve.
	if len(snap.Clusters) != 2 {
		t.Fatalf("clusters: %+v", snap.Clusters)
	}
	c1, c2 := snap.Clusters[0], snap.Clusters[1]
	if c1.ID != 1 || c1.Solves != 2 || c1.Decisions != 110 || c1.Retries != 1 {
		t.Fatalf("cluster 1: %+v", c1)
	}
	if c2.ID != 2 || c2.Solves != 3 || c2.Conflicts != 8 || c2.Degraded != 1 {
		t.Fatalf("cluster 2: %+v", c2)
	}
}

func TestSnapshotMarshalDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		p := New(Config{})
		p.SeedCluster(3, 1, 2, 3)
		for _, k := range order {
			p.RecordSolve(k, Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 7}})
		}
		b, err := p.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build([]string{"3", "1,3", "10", "2"})
	b := build([]string{"2", "10", "3", "1,3"})
	if !bytes.Equal(a, b) {
		t.Fatalf("insertion order leaked into the snapshot:\n%s\nvs\n%s", a, b)
	}
}

func TestMergeRoundTripByteIdentical(t *testing.T) {
	p := New(Config{})
	p.SeedCluster(0, 2, 11, 17)
	p.SeedCluster(4, 1, 3, 5)
	for i := 0; i < 40; i++ {
		p.RecordSolve("0,4", Solve{
			Wall:     time.Duration(i%7) * 100 * time.Microsecond,
			Stats:    asp.Stats{Decisions: int64(i), Conflicts: int64(i % 3), Propagations: int64(10 * i)},
			CacheHit: i%2 == 0, SolverReused: i%5 == 0,
		})
		p.RecordSolve("4", Solve{Wall: time.Duration(i) * time.Microsecond, Stats: asp.Stats{Restarts: 1}})
	}
	p.RecordRetry("0,4")
	p.RecordDegraded("4")
	p.RecordBudgetExhausted("0,4")

	orig, err := p.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(orig)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	fresh.Merge(snap)
	restored, err := fresh.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, restored) {
		t.Fatalf("merge round trip not byte-identical:\n-- original --\n%s\n-- restored --\n%s", orig, restored)
	}
}

func TestEvictionOrderAtTinyCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Config{MaxRecords: 2, Metrics: reg})
	// "1" is hot (3 touches), "2" is cold (1 touch).
	for i := 0; i < 3; i++ {
		p.RecordSolve("1", Solve{Wall: time.Microsecond})
	}
	p.RecordSolve("2", Solve{Wall: time.Microsecond})
	// Inserting "3" must evict the coldest record, "2".
	p.RecordSolve("3", Solve{Wall: time.Microsecond})
	snap := p.Snapshot()
	if snap.Records != 2 || snap.Evictions != 1 {
		t.Fatalf("records=%d evictions=%d, want 2/1", snap.Records, snap.Evictions)
	}
	keys := []string{snap.Signatures[0].Key, snap.Signatures[1].Key}
	if !reflect.DeepEqual(keys, []string{"1", "3"}) {
		t.Fatalf("surviving keys = %v, want [1 3] (coldest evicted)", keys)
	}
	// Total solves include work recorded into the evicted record.
	if snap.Solves != 5 {
		t.Fatalf("solves = %d, want 5", snap.Solves)
	}
	// Decay: the eviction halved "1"'s heat from 3 to 1, and "3" earned
	// heat 1 from its solve — a tie, which breaks toward the smaller key.
	// Inserting "4" therefore evicts "1": one-time hot spots age out.
	p.RecordSolve("4", Solve{Wall: time.Microsecond})
	snap = p.Snapshot()
	keys = []string{snap.Signatures[0].Key, snap.Signatures[1].Key}
	if !reflect.DeepEqual(keys, []string{"3", "4"}) {
		t.Fatalf("after decay, surviving keys = %v, want [3 4]", keys)
	}
	if got := reg.Snapshot().Counters["xr_profile_evictions_total"]; got != 2 {
		t.Fatalf("xr_profile_evictions_total = %d, want 2", got)
	}
	if got := reg.Snapshot().Gauges["xr_profile_records"]; got != 2 {
		t.Fatalf("xr_profile_records = %d, want 2", got)
	}
}

func TestEvictionTieBreaksOnSmallestKey(t *testing.T) {
	p := New(Config{MaxRecords: 2})
	p.RecordSolve("7", Solve{})
	p.RecordSolve("3", Solve{})
	// Equal heat (1 each): the lexicographically smallest key, "3", goes.
	p.RecordSolve("9", Solve{})
	snap := p.Snapshot()
	keys := []string{snap.Signatures[0].Key, snap.Signatures[1].Key}
	if !reflect.DeepEqual(keys, []string{"7", "9"}) {
		t.Fatalf("surviving keys = %v, want [7 9]", keys)
	}
}

func TestConcurrentRecordingIsExact(t *testing.T) {
	p := New(Config{})
	const workers, perWorker = 8, 500
	keys := []string{"1", "2", "1,2", "3"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys[(w+i)%len(keys)]
				p.RecordSolve(k, Solve{Wall: time.Microsecond, Stats: asp.Stats{Decisions: 2, Conflicts: 1}})
				if i%50 == 0 {
					p.RecordRetry(k)
					_ = p.Snapshot() // concurrent reads must not race
				}
			}
		}(w)
	}
	wg.Wait()
	snap := p.Snapshot()
	if snap.Solves != workers*perWorker {
		t.Fatalf("solves = %d, want %d", snap.Solves, workers*perWorker)
	}
	var dec, con int64
	for _, sp := range snap.Signatures {
		dec += sp.Decisions
		con += sp.Conflicts
	}
	if dec != 2*workers*perWorker || con != workers*perWorker {
		t.Fatalf("decisions=%d conflicts=%d, want %d/%d",
			dec, con, 2*workers*perWorker, workers*perWorker)
	}
}

func TestTopOrders(t *testing.T) {
	mk := func(key string, wall, conflicts, degraded int64) SignatureProfile {
		sp := SignatureProfile{Key: key}
		sp.WallNs = wall
		sp.Conflicts = conflicts
		sp.Degraded = degraded
		return sp
	}
	snap := &Snapshot{Signatures: []SignatureProfile{
		mk("1", 10, 99, 0),
		mk("2", 50, 1, 2),
		mk("3", 50, 7, 1),
	}}
	get := func(sps []SignatureProfile) []string {
		out := make([]string, len(sps))
		for i, sp := range sps {
			out[i] = sp.Key
		}
		return out
	}
	if got := get(snap.Top(0, SortWall)); !reflect.DeepEqual(got, []string{"3", "2", "1"}) {
		t.Fatalf("wall order = %v", got)
	}
	if got := get(snap.Top(2, SortConflicts)); !reflect.DeepEqual(got, []string{"1", "3"}) {
		t.Fatalf("conflicts order = %v", got)
	}
	if got := get(snap.Top(1, SortDegraded)); !reflect.DeepEqual(got, []string{"2"}) {
		t.Fatalf("degraded order = %v", got)
	}
	for _, by := range []string{"", SortWall, SortConflicts, SortDegraded} {
		if !ValidSort(by) {
			t.Fatalf("ValidSort(%q) = false", by)
		}
	}
	if ValidSort("decisions") {
		t.Fatal(`ValidSort("decisions") = true`)
	}
}

func TestParseKeySkipsMalformedSegments(t *testing.T) {
	p := New(Config{})
	p.RecordSolve("2, 7", Solve{}) // spaces tolerated
	p.RecordSolve("x,5,", Solve{}) // junk skipped
	snap := p.Snapshot()
	if !reflect.DeepEqual(snap.Signatures[0].ClusterIDs, []int{2, 7}) {
		t.Fatalf("cluster ids: %+v", snap.Signatures[0])
	}
	if !reflect.DeepEqual(snap.Signatures[1].ClusterIDs, []int{5}) {
		t.Fatalf("cluster ids: %+v", snap.Signatures[1])
	}
}

func TestMergeEvictsPastCap(t *testing.T) {
	donor := New(Config{})
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ { // key "5" hottest
			donor.RecordSolve(fmt.Sprint(i), Solve{})
		}
	}
	small := New(Config{MaxRecords: 3})
	small.Merge(donor.Snapshot())
	if small.Records() != 3 {
		t.Fatalf("records = %d, want cap 3", small.Records())
	}
	snap := small.Snapshot()
	// The hottest donors must survive the restore-time evictions.
	last := snap.Signatures[len(snap.Signatures)-1]
	if last.Key != "5" && snap.Signatures[0].Key != "5" {
		t.Fatalf("hottest key evicted during merge: %+v", snap.Signatures)
	}
}
