package xr

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chase"
)

// queryState owns what the segmentary query phase keeps on an Exchange
// (DESIGN.md §9.3): one signature program per canonical signature key and
// one query plan per canonical rewritten query. An Exchange is immutable,
// so each entry is a pure function of its key, and dropping one changes no
// answer. Its mu is a leaf: the lock order is a lane, then a program's
// incMu, then mu, and nothing waits for a build or takes an incMu while
// holding mu.
type queryState struct {
	mu       sync.Mutex
	programs stateTable // by canonical signature key
	plans    stateTable // by planKey
	lru      list.List  // built entries, most recently used first
	bytes    int64      // estimated size of the built entries
	cap      int64
	// solverIDs numbers the persistent solvers built for the programs. A
	// plan group's wiring names its solver by id rather than by pointer,
	// so a cached plan never keeps a poisoned or evicted solver alive.
	solverIDs atomic.Uint64
}

// stateTable holds the entries of one kind by key.
type stateTable map[string]*stateEntry

// stateValue is what an entry holds: a *queryPlan or a *sigProgram.
type stateValue interface{ bytes() int64 }

// maxQueryStateBytes bounds each Exchange's query state by the estimated
// size of its entries; the least recently used are evicted past it. A
// certain and a possible pass of the genome suite leave about 39 MB on the
// genome-read shape and 4 MB on the genome-churn shape.
const maxQueryStateBytes = 64 << 20

// bytesPerRule is the live heap a signature program holds per rule of its
// largest program, solver and memos included: the heap that dropping every
// program frees over their rules after a certain and a possible pass of
// the genome suite, 811 B on the genome-read shape.
const bytesPerRule = 850

// stateEntry is one slot of the owner.
type stateEntry struct {
	table stateTable
	key   string
	ready chan struct{} // closed when the build ends
	val   stateValue    // nil until built, and if the build panicked
	bytes int64
	elem  *list.Element // position in lru; nil until built
	// used marks a program read in place since the eviction scan last
	// passed it; the scan moves it to the front instead of evicting it.
	used bool
}

// get returns the value of key in table, building it on the first ask.
// Concurrent first asks build it once: the others wait for the build,
// holding no lock (a job holds only its lane). A build that panics leaves
// no entry behind, so its waiters and later asks build again. hit reports
// that the entry existed.
func (qs *queryState) get(table stateTable, key string, mt *meters, build func() stateValue) (v stateValue, hit bool) {
	for {
		qs.mu.Lock()
		e, ok := table[key]
		if !ok {
			break // still holding mu, to insert the entry this ask builds
		}
		if e.elem != nil {
			qs.lru.MoveToFront(e.elem)
		}
		qs.mu.Unlock()
		<-e.ready
		if e.val != nil {
			return e.val, true
		}
	}
	e := &stateEntry{table: table, key: key, ready: make(chan struct{})}
	table[key] = e
	qs.mu.Unlock()
	defer func() {
		if e.val == nil {
			qs.mu.Lock()
			delete(table, key) // nothing but its build removes an unbuilt entry
			qs.mu.Unlock()
		}
		close(e.ready)
	}()
	v = build()
	qs.mu.Lock()
	e.val = v
	e.elem = qs.lru.PushFront(e)
	qs.mu.Unlock()
	qs.resize(table, key, v, v.bytes(), mt)
	return v, false
}

// resize sets the estimate of key's entry in table to bytes plus the key,
// while the entry still holds v, then evicts from the back of the LRU until the
// state is within the bound. An entry marked used is moved to the front
// instead, once.
func (qs *queryState) resize(table stateTable, key string, v stateValue, bytes int64, mt *meters) {
	evicted := 0
	qs.mu.Lock()
	if e := table[key]; e != nil && e.val == v {
		bytes += int64(len(key))
		qs.bytes += bytes - e.bytes
		e.bytes = bytes
		for qs.bytes > qs.cap {
			old := qs.lru.Back().Value.(*stateEntry)
			if old.used {
				old.used = false
				qs.lru.MoveToFront(old.elem)
				continue
			}
			qs.dropLocked(old)
			evicted++
		}
	}
	qs.mu.Unlock()
	mt.recordStateEvictions(evicted)
}

// dropLocked removes a built entry: the one eviction path, taken past the
// bound and on a CacheCorrupt fault. Asks holding its value keep using it.
func (qs *queryState) dropLocked(e *stateEntry) {
	qs.lru.Remove(e.elem)
	delete(e.table, e.key)
	qs.bytes -= e.bytes
}

// evict drops key's entry in table, but only while it still holds v (a
// concurrent eviction may already have replaced it).
func (qs *queryState) evict(table stateTable, key string, v stateValue) {
	qs.mu.Lock()
	if e := table[key]; e != nil && e.val == v {
		qs.dropLocked(e)
	}
	qs.mu.Unlock()
}

// program returns the cached program of a signature key, or nil. It
// builds nothing, waits for no build and leaves the LRU order alone,
// marking the entry used instead, so the warm in-place read costs one
// map lookup.
func (qs *queryState) program(key string) *sigProgram {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	e := qs.programs[key]
	if e == nil || e.val == nil {
		return nil
	}
	e.used = true
	return e.val.(*sigProgram)
}

// QueryStateBytes returns the estimated size of the query state the
// Exchange holds: its signature programs with their persistent solvers,
// and its query plans.
func (ex *Exchange) QueryStateBytes() int64 {
	ex.state.mu.Lock()
	defer ex.state.mu.Unlock()
	return ex.state.bytes
}

// sigProgram is one signature program: the base grounding of the Theorem
// 4 sub-world restricted to a signature's clusters, plus the signature's
// persistent solver. Candidate atoms are wired into specializations of
// the base program — the persistent solver's, which grows with every new
// candidate, and the explain pass's throwaway ones — and the base tables
// are complete once newEncoder returns, so candidate wiring only reads
// them.
type sigProgram struct {
	enc *encoder  // base encoder (program without candidates)
	idx *maxIndex // derivation index for the maximality acceptor

	// incMu guards inc, the signature's persistent incremental solver
	// (see incremental.go). Jobs hold it for writing for the duration of
	// their solve; an in-place decision reads the verdict memo under the
	// read lock. The explain pass never takes it.
	incMu sync.RWMutex
	inc   *incSolver
}

// sigProgramFor returns the program of a signature, building it on the
// first ask, and reports whether it was cached (a hit reuses the base
// grounding and the persistent solver with everything it learned so far).
func (ex *Exchange) sigProgramFor(key string, sig []int, mt *meters) (*sigProgram, bool) {
	v, hit := ex.state.get(ex.state.programs, key, mt, func() stateValue { return ex.newSigProgram(sig) })
	return v.(*sigProgram), hit
}

// newSigProgram builds the base signature program: the restriction of the
// Theorem 2 grounding to the signature's clusters, with safe facts pinned
// true (Theorem 4). Its variable facts are the clusters' influences minus
// the safe facts. Its violations are the clusters' violations, which are
// exactly the covered ones: no fact in a violation's support closure is
// safe, and a violation whose body lies in a cluster's influence has one
// of that cluster's envelope facts in its closure, so it belongs to the
// cluster.
func (ex *Exchange) newSigProgram(sig []int) *sigProgram {
	var vars []chase.FactID
	var violations []int
	for _, ci := range sig {
		for f := range ex.Clusters[ci].Influence {
			if !ex.safeDerivable[f] {
				vars = append(vars, f)
			}
		}
		violations = append(violations, ex.Clusters[ci].Violations...)
	}
	slices.Sort(vars)
	slices.Sort(violations)
	enc := newEncoder(ex.Prov, slices.Clip(slices.Compact(vars)), ex.safeDerivable, violations)
	return &sigProgram{enc: enc, idx: newMaxIndex(enc)}
}

// bytes estimates the memory the program holds: bytesPerRule per rule of
// its largest program, the persistent solver's once built. The caller
// holds incMu, or the program is not yet shared.
func (sp *sigProgram) bytes() int64 {
	gp := sp.enc.gp
	if sp.inc != nil {
		gp = sp.inc.spec.gp
	}
	return int64(len(gp.Rules)) * bytesPerRule
}
