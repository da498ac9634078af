package profile

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/telemetry"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.RecordSolve("1", []int{1}, Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 5}})
	p.Record("1", []int{1}, Counters{Retries: 1, Degraded: 1, BudgetExhausted: 1})
	p.SeedCluster(0, 1, 2, 3)
	p.Merge(&Snapshot{Solves: 7})
	snap := p.Snapshot()
	if snap == nil {
		t.Fatal("nil profiler snapshot is nil")
	}
	if snap.Records != 0 || snap.Solves != 0 || snap.Evictions != 0 || len(snap.Signatures) != 0 {
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
	p.RecordSolve("1,2", []int{1, 2}, s)
	p.RecordSolve("1,2", []int{1, 2}, Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 10}})
	p.RecordSolve("2", []int{2}, Solve{Wall: time.Millisecond, Stats: asp.Stats{Conflicts: 1}})
	p.Record("1,2", []int{1, 2}, Counters{Retries: 1})
	p.Record("2", []int{2}, Counters{Degraded: 1})
	p.Record("1,2", []int{1, 2}, Counters{BudgetExhausted: 1})

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
	sigs := map[string][]int{"3": {3}, "1,3": {1, 3}, "10": {10}, "2": {2}}
	build := func(order []string) []byte {
		p := New(Config{})
		p.SeedCluster(3, 1, 2, 3)
		for _, k := range order {
			p.RecordSolve(k, sigs[k], Solve{Wall: time.Millisecond, Stats: asp.Stats{Decisions: 7}})
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
		p.RecordSolve("0,4", []int{0, 4}, Solve{
			Wall:     time.Duration(i%7) * 100 * time.Microsecond,
			Stats:    asp.Stats{Decisions: int64(i), Conflicts: int64(i % 3), Propagations: int64(10 * i)},
			CacheHit: i%2 == 0, SolverReused: i%5 == 0,
		})
		p.RecordSolve("4", []int{4}, Solve{Wall: time.Duration(i) * time.Microsecond, Stats: asp.Stats{Restarts: 1}})
	}
	p.Record("0,4", []int{0, 4}, Counters{Retries: 1})
	p.Record("4", []int{4}, Counters{Degraded: 1})
	p.Record("0,4", []int{0, 4}, Counters{BudgetExhausted: 1})

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
		p.RecordSolve("1", []int{1}, Solve{Wall: time.Microsecond})
	}
	p.RecordSolve("2", []int{2}, Solve{Wall: time.Microsecond})
	// Inserting "3" must evict the coldest record, "2".
	p.RecordSolve("3", []int{3}, Solve{Wall: time.Microsecond})
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
	p.RecordSolve("4", []int{4}, Solve{Wall: time.Microsecond})
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
	p.RecordSolve("7", []int{7}, Solve{})
	p.RecordSolve("3", []int{3}, Solve{})
	// Equal heat (1 each): the lexicographically smallest key, "3", goes.
	p.RecordSolve("9", []int{9}, Solve{})
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
	sigs := [][]int{{1}, {2}, {1, 2}, {3}}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k, sig := keys[(w+i)%len(keys)], sigs[(w+i)%len(keys)]
				p.RecordSolve(k, sig, Solve{Wall: time.Microsecond, Stats: asp.Stats{Decisions: 2, Conflicts: 1}})
				if i%50 == 0 {
					p.Record(k, sig, Counters{Retries: 1})
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
	var dec, con, ret int64
	for _, sp := range snap.Signatures {
		dec += sp.Decisions
		con += sp.Conflicts
		ret += sp.Retries
	}
	if dec != 2*workers*perWorker || con != workers*perWorker || ret != workers*perWorker/50 {
		t.Fatalf("decisions=%d conflicts=%d retries=%d, want %d/%d/%d",
			dec, con, ret, 2*workers*perWorker, workers*perWorker, workers*perWorker/50)
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

func TestMergeEvictsPastCap(t *testing.T) {
	donor := New(Config{})
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ { // key "5" hottest
			donor.RecordSolve(fmt.Sprint(i), []int{i}, Solve{})
		}
	}
	small := New(Config{MaxRecords: 3})
	small.Merge(donor.Snapshot())
	snap := small.Snapshot()
	if snap.Records != 3 {
		t.Fatalf("records = %d, want cap 3", snap.Records)
	}
	// The hottest donors must survive the restore-time evictions.
	last := snap.Signatures[len(snap.Signatures)-1]
	if last.Key != "5" && snap.Signatures[0].Key != "5" {
		t.Fatalf("hottest key evicted during merge: %+v", snap.Signatures)
	}
}

var update = flag.Bool("update", false, "rewrite the snapshot golden file")

// TestSnapshotGolden pins the snapshot wire bytes — the /profile body,
// the persisted profile.xr payload, and xrbench's hot_signatures — for a
// fixed recording: three seeded clusters, a two-cluster signature, every
// asp.Stats field nonzero (LoopsLearned and TheoryRejects must stay out
// of the sums), fixed wall times, and one retry, degradation and budget
// exhaustion. Regenerate deliberately with
// `go test ./internal/profile -run TestSnapshotGolden -update`.
func TestSnapshotGolden(t *testing.T) {
	p := New(Config{})
	p.SeedCluster(1, 2, 10, 20)
	p.SeedCluster(4, 3, 30, 40)
	p.SeedCluster(9, 1, 5, 7)
	full := asp.Stats{
		CandidatesTested: 3, StabilityFails: 1, LoopsLearned: 4, TheoryRejects: 2,
		Conflicts: 7, Decisions: 100, Propagations: 900, Restarts: 2,
		AssumptionSolves: 5, Reductions: 1, ClausesDeleted: 12,
	}
	p.RecordSolve("1,4", []int{1, 4}, Solve{Wall: 1500 * time.Microsecond, Candidates: 6, Stats: full, CacheHit: false, SolverReused: false})
	p.RecordSolve("1,4", []int{1, 4}, Solve{Wall: 250 * time.Microsecond, Candidates: 6, Stats: full, CacheHit: true, SolverReused: true})
	p.RecordSolve("9", []int{9}, Solve{Wall: 40 * time.Millisecond, Candidates: 2, Stats: full, CacheHit: true})
	p.RecordSolve("4", []int{4}, Solve{Wall: 3 * time.Millisecond, Candidates: 1, Stats: asp.Stats{Decisions: 9, Conflicts: 1}, SolverReused: true})
	p.Record("1,4", []int{1, 4}, Counters{Retries: 1})
	p.Record("9", []int{9}, Counters{Degraded: 1})
	p.Record("1,4", []int{1, 4}, Counters{BudgetExhausted: 1})

	got, err := p.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/profile -run TestSnapshotGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes drifted from the golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
