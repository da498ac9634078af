// Package instance implements database instances as finite sets of facts
// over a schema.Catalog, with a hashed tuple set per relation for dedup and
// hash indexes to support conjunctive query evaluation and the chase.
//
// Following the paper, an instance's active domain may contain constants and
// labeled nulls (source instances are assumed null-free; target instances
// produced by the chase may contain nulls).
package instance

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/symtab"
)

// Fact is a single fact R(a1, ..., ak).
type Fact struct {
	Rel  schema.RelID
	Args []symtab.Value
}

func writeVal(b *strings.Builder, v symtab.Value) {
	b.WriteByte(byte(v))
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v >> 16))
	b.WriteByte(byte(v >> 24))
}

// EncodeTuple returns a canonical map key for a tuple of values.
func EncodeTuple(args []symtab.Value) string {
	var b strings.Builder
	b.Grow(4 * len(args))
	for _, a := range args {
		writeVal(&b, a)
	}
	return b.String()
}

// String renders the fact using the universe for value names.
func (f Fact) String(cat *schema.Catalog, u *symtab.Universe) string {
	return fmt.Sprintf("%s(%s)", cat.ByID(f.Rel).Name, strings.Join(u.Names(f.Args), ","))
}

// relation stores the tuples of one relation, a hashed set over them, and
// per-column hash indexes. Tuples are kept in an ordered slice (insertion
// order, with swap-remove on delete) rather than ranged out of a map: every
// enumeration the chase and query evaluator see is then deterministic, which
// keeps ground-program atom numbering and rule order — and with them solver
// effort and telemetry counters — identical from run to run.
//
// Indexes are persistent: once a column index exists it is updated
// incrementally on every add and remove instead of being dropped and rebuilt
// from scratch (the semi-naive chase probes the same columns every round, so
// invalidate-on-write turned each round into a full re-index). Buckets hold
// tuple positions in insertion order, so index-backed enumeration visits
// tuples in the same deterministic order as a scan of the slice (for
// add-only workloads; removals swap-move the tail tuple, which is itself
// deterministic).
type relation struct {
	tupleTable
	// gens[i] is the instance generation at which tuples[i] was inserted;
	// it is the tuple's identity for delta tracking and for the old/delta
	// split of semi-naive evaluation.
	gens []uint64
	// sorted reports whether gens is ascending; true until a swap-remove
	// moves a late tuple into an early slot. While sorted, delta scans can
	// binary-search their starting point.
	sorted bool
	// maxGen is the high-water insertion generation (monotone; removals do
	// not lower it). RelGen uses it as a cheap "anything new?" test.
	maxGen uint64
	// idx[col] maps a value to the positions of the tuples having that
	// value in column col, in insertion order; one entry per column, nil
	// until the column is first probed, then maintained incrementally. A
	// reader that finds a column missing builds it under idxMu and
	// publishes it whole, so readers of an instance no one mutates may
	// probe at once, and a built index costs a reader no lock.
	idx   []atomic.Pointer[columnIndex]
	idxMu sync.Mutex
}

// columnIndex is one column's index: the positions of the tuples having
// each value there, in insertion order.
type columnIndex map[symtab.Value][]int32

// tupleTable is a set of tuples: an ordered tuple list and an
// open-addressing table of positions in it, probed linearly from a seeded
// hash of the tuple's values. slots[i] is a position plus one, or 0 for an
// empty slot; its length is a power of two, at least twice len(tuples)
// (nil while the table has never held a tuple). Nothing ranges over slots
// — order comes from tuples alone — so its per-process random seed never
// reaches an output, and a tenant cannot pick tuples that collide.
type tupleTable struct {
	slots  []int32
	tuples [][]symtab.Value // ordered; the single source of iteration order
}

// tupleSeed keys hashTuple; it is drawn once per process.
var tupleSeed = maphash.MakeSeed()

// hashTuple hashes the values of args, read in place as bytes.
func hashTuple(args []symtab.Value) int {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(args))), int(unsafe.Sizeof(symtab.None))*len(args))
	return int(maphash.Bytes(tupleSeed, b) >> 1)
}

// lookup returns the slot holding args and true, or the empty slot that
// ends args' probe chain and false. The table must not be empty.
func (r *tupleTable) lookup(args []symtab.Value) (int, bool) {
	mask := len(r.slots) - 1
	for i := hashTuple(args) & mask; ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return i, false
		}
		if slices.Equal(r.tuples[s-1], args) {
			return i, true
		}
	}
}

// find returns the position of args, or -1 when absent.
func (r *tupleTable) find(args []symtab.Value) int {
	if len(r.slots) == 0 {
		return -1
	}
	if i, ok := r.lookup(args); ok {
		return int(r.slots[i] - 1)
	}
	return -1
}

// rehash rebuilds the table at the smallest power-of-two size, at least 8,
// that holds n tuples at a load of one half.
func (r *tupleTable) rehash(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	r.slots = make([]int32, size)
	mask := size - 1
	for pos, t := range r.tuples {
		i := hashTuple(t) & mask
		for r.slots[i] != 0 {
			i = (i + 1) & mask
		}
		r.slots[i] = int32(pos + 1)
	}
}

// deleteSlot empties slot i by backward-shift deletion: each later entry of
// the probe run moves into the hole when its home slot does not lie
// cyclically after the hole, so every remaining entry stays reachable from
// its home without crossing an empty slot.
func (r *tupleTable) deleteSlot(i int) {
	mask := len(r.slots) - 1
	for j := (i + 1) & mask; r.slots[j] != 0; j = (j + 1) & mask {
		home := hashTuple(r.tuples[r.slots[j]-1]) & mask
		if (j-home)&mask >= (j-i)&mask {
			r.slots[i] = r.slots[j]
			i = j
		}
	}
	r.slots[i] = 0
}

// grow makes room for one more tuple, rehashing at a load of one half.
func (r *tupleTable) grow() {
	if 2*(len(r.tuples)+1) > len(r.slots) {
		r.rehash(len(r.tuples) + 1)
	}
}

// TupleSet is a set of tuples numbered densely in insertion order, kept in
// the hashed table each relation dedups its tuples in. Add copies a new
// tuple into storage of the set's own, so a caller may pass one buffer to
// every call. The zero value is an empty set; it is not safe for
// concurrent use.
type TupleSet struct {
	tab   tupleTable
	arena []symtab.Value // spare room the next new tuples are copied into
}

// Add returns the number of args in the set and whether args was new, in
// which case it is copied in and numbered Len()-1.
func (s *TupleSet) Add(args []symtab.Value) (int, bool) {
	s.tab.grow()
	slot, dup := s.tab.lookup(args)
	if dup {
		return int(s.tab.slots[slot] - 1), false
	}
	if cap(s.arena)-len(s.arena) < len(args) {
		s.arena = make([]symtab.Value, 0, max(2*cap(s.arena), 64*len(args)))
	}
	k := len(s.arena)
	s.arena = append(s.arena, args...)
	pos := len(s.tab.tuples)
	s.tab.slots[slot] = int32(pos + 1)
	s.tab.tuples = append(s.tab.tuples, s.arena[k:len(s.arena):len(s.arena)])
	return pos, true
}

// Tuple returns tuple i. Do not mutate it.
func (s *TupleSet) Tuple(i int) []symtab.Value { return s.tab.tuples[i] }

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.tab.tuples) }

// index returns the column index, building it on first use.
func (r *relation) index(col int, builds *atomic.Uint64) columnIndex {
	if m := r.idx[col].Load(); m != nil {
		return *m
	}
	return r.buildIndex(col, builds)
}

// buildIndex builds the index of column col unless another reader has
// meanwhile, and returns it. Each column is built once: builds counts it.
func (r *relation) buildIndex(col int, builds *atomic.Uint64) columnIndex {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if m := r.idx[col].Load(); m != nil {
		return *m
	}
	builds.Add(1)
	m := make(columnIndex)
	for i, tup := range r.tuples {
		v := tup[col]
		m[v] = append(m[v], int32(i))
	}
	r.idx[col].Store(&m)
	return m
}

// add inserts args unless present. It returns the tuple's position and
// whether it was new. Existing column indexes are extended in place.
func (r *relation) add(args []symtab.Value, gen uint64) (int, bool) {
	r.grow()
	slot, dup := r.lookup(args)
	if dup {
		return int(r.slots[slot] - 1), false
	}
	pos := len(r.tuples)
	r.slots[slot] = int32(pos + 1)
	r.tuples = append(r.tuples, args)
	r.gens = append(r.gens, gen)
	r.maxGen = gen
	for col := range r.idx {
		if m := r.idx[col].Load(); m != nil {
			v := args[col]
			(*m)[v] = append((*m)[v], int32(pos))
		}
	}
	return pos, true
}

// remove deletes args by swap-remove (the tail tuple takes its slot).
// Column indexes are patched in place: the removed tuple's bucket entries
// are deleted (preserving bucket order) and the moved tuple's entries, like
// its set slot, are repointed at its new position. The order change is
// itself deterministic given deterministic insertion and removal sequences,
// which is all iteration-order stability requires.
func (r *relation) remove(args []symtab.Value) bool {
	if len(r.slots) == 0 {
		return false
	}
	slot, ok := r.lookup(args)
	if !ok {
		return false
	}
	i := int(r.slots[slot] - 1)
	r.deleteSlot(slot)
	removed := r.tuples[i]
	for col := range r.idx {
		if m := r.idx[col].Load(); m != nil {
			bucketDelete(*m, removed[col], int32(i))
		}
	}
	last := len(r.tuples) - 1
	if i != last {
		moved := r.tuples[last]
		ms, _ := r.lookup(moved)
		r.slots[ms] = int32(i + 1)
		r.tuples[i] = moved
		r.gens[i] = r.gens[last]
		for col := range r.idx {
			if m := r.idx[col].Load(); m != nil {
				bucketRepoint(*m, moved[col], int32(last), int32(i))
			}
		}
		r.sorted = false
	}
	r.tuples[last] = nil
	r.tuples = r.tuples[:last]
	r.gens = r.gens[:last]
	return true
}

// bucketDelete removes position pos from the bucket of v, preserving the
// relative order of the remaining entries.
func bucketDelete(m columnIndex, v symtab.Value, pos int32) {
	b := m[v]
	for j, p := range b {
		if p == pos {
			b = append(b[:j], b[j+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(m, v)
	} else {
		m[v] = b
	}
}

// bucketRepoint rewrites position from to to in the bucket of v.
func bucketRepoint(m columnIndex, v symtab.Value, from, to int32) {
	b := m[v]
	for j, p := range b {
		if p == from {
			b[j] = to
			return
		}
	}
}

// Instance is a mutable set of facts. The zero value is not usable; call New.
//
// An Instance is not safe for concurrent mutation. Concurrent reads are
// safe, including the first probe of a column, which builds its index under
// a lock and publishes it whole: the query phase probes columns the chase
// never indexed (a query's self-join on a non-key column, say) from many
// asks at once.
type Instance struct {
	cat *schema.Catalog
	// rels is indexed by the catalog's dense RelID, nil for a relation that
	// never held a tuple. It grows on insert, up to the highest relation
	// inserted into.
	rels []*relation
	size int
	// gen counts successful insertions; each inserted tuple is stamped with
	// the post-increment value, so generations totally order tuples by
	// insertion time across the whole instance.
	gen uint64

	// probes counts index-backed match enumerations and builds counts
	// column-index constructions; both are atomic so concurrent readers can
	// be metered without a data race.
	probes atomic.Uint64
	builds atomic.Uint64
}

// New returns an empty instance over the given catalog.
func New(cat *schema.Catalog) *Instance {
	return &Instance{cat: cat}
}

// rel returns the relation stored under id, or nil when it never held a
// tuple.
func (in *Instance) rel(id schema.RelID) *relation {
	if int(id) < len(in.rels) {
		return in.rels[id]
	}
	return nil
}

// Catalog returns the catalog the instance is over.
func (in *Instance) Catalog() *schema.Catalog { return in.cat }

// Len returns the number of facts.
func (in *Instance) Len() int { return in.size }

// LenOf returns the number of facts of one relation.
func (in *Instance) LenOf(rel schema.RelID) int {
	if r := in.rel(rel); r != nil {
		return len(r.tuples)
	}
	return 0
}

// Gen returns the current generation counter: the number of insertions the
// instance has seen. A caller that snapshots Gen before a batch of work can
// later enumerate exactly the tuples that batch added via the generation
// window of ForEachMatch.
func (in *Instance) Gen() uint64 { return in.gen }

// RelGen returns the high-water insertion generation of one relation (0 for
// an absent or never-populated relation). RelGen(rel) > g iff the relation
// gained at least one tuple after generation g (removals do not lower it),
// which makes it the cheap has-delta test of the semi-naive chase.
func (in *Instance) RelGen(rel schema.RelID) uint64 {
	if r := in.rel(rel); r != nil {
		return r.maxGen
	}
	return 0
}

// GenOf returns the insertion generation of a present tuple (0, false when
// absent).
func (in *Instance) GenOf(rel schema.RelID, args []symtab.Value) (uint64, bool) {
	r := in.rel(rel)
	if r == nil {
		return 0, false
	}
	if pos := r.find(args); pos >= 0 {
		return r.gens[pos], true
	}
	return 0, false
}

// forEachIn enumerates tuples of rel with generation in (lo, hi], in slice
// order (ascending-generation order while the relation has seen no
// swap-removes, in which case the start is binary-searched).
func (in *Instance) forEachIn(rel schema.RelID, lo, hi uint64, fn func([]symtab.Value, uint64) bool) bool {
	r := in.rel(rel)
	if r == nil {
		return true
	}
	start := 0
	if lo > 0 && r.sorted {
		start = sort.Search(len(r.gens), func(i int) bool { return r.gens[i] > lo })
	}
	for i := start; i < len(r.tuples); i++ {
		g := r.gens[i]
		if g > hi {
			if r.sorted {
				break // gens ascend: nothing later can be in the window
			}
			continue
		}
		if g <= lo {
			continue
		}
		if !fn(r.tuples[i], g) {
			return false
		}
	}
	return true
}

// addTuple inserts a tuple into its relation's set. It returns the tuple's
// insertion generation (the pre-existing one on a duplicate) and whether the
// tuple was new.
func (in *Instance) addTuple(rel schema.RelID, args []symtab.Value) (uint64, bool) {
	if int(rel) >= len(in.rels) {
		in.rels = append(in.rels, make([]*relation, int(rel)+1-len(in.rels))...)
	}
	r := in.rels[rel]
	if r == nil {
		r = &relation{sorted: true, idx: make([]atomic.Pointer[columnIndex], len(args))}
		in.rels[rel] = r
	}
	pos, added := r.add(args, in.gen+1)
	if !added {
		return r.gens[pos], false
	}
	in.gen++
	in.size++
	return in.gen, true
}

// Insert inserts a fact, reporting whether it was newly added. An
// argument count that does not match the relation's declared arity
// returns a *schema.ArityError instead of corrupting the relation; use
// Insert (not Add) on untrusted input. The argument slice is retained;
// callers must not mutate it afterwards.
func (in *Instance) Insert(rel schema.RelID, args []symtab.Value) (bool, error) {
	if want := in.cat.ByID(rel).Arity; len(args) != want {
		return false, fmt.Errorf("instance: %w", &schema.ArityError{Rel: in.cat.ByID(rel).Name, Want: want, Got: len(args)})
	}
	_, added := in.addTuple(rel, args)
	return added, nil
}

// AddWithGen inserts like Add but also returns the tuple's insertion
// generation — the fresh generation when newly added, the existing tuple's
// when a duplicate. The chase uses this to key facts by generation without
// a second lookup.
func (in *Instance) AddWithGen(rel schema.RelID, args []symtab.Value) (uint64, bool) {
	if want := in.cat.ByID(rel).Arity; len(args) != want {
		panic(fmt.Errorf("instance: %w", &schema.ArityError{Rel: in.cat.ByID(rel).Name, Want: want, Got: len(args)}))
	}
	return in.addTuple(rel, args)
}

// Add is the Must-style form of Insert for static setup code and internal
// callers whose arities are correct by construction: it panics with a
// *schema.ArityError on mismatch.
func (in *Instance) Add(rel schema.RelID, args []symtab.Value) bool {
	added, err := in.Insert(rel, args)
	if err != nil {
		panic(err)
	}
	return added
}

// AddFact inserts f; see Add.
func (in *Instance) AddFact(f Fact) bool { return in.Add(f.Rel, f.Args) }

// Remove deletes a fact and reports whether it was present.
func (in *Instance) Remove(rel schema.RelID, args []symtab.Value) bool {
	r := in.rel(rel)
	if r == nil || !r.remove(args) {
		return false
	}
	in.size--
	return true
}

// Contains reports whether the fact is present.
func (in *Instance) Contains(rel schema.RelID, args []symtab.Value) bool {
	r := in.rel(rel)
	return r != nil && r.find(args) >= 0
}

// Tuples returns the tuples of one relation in deterministic (insertion)
// order. The returned slices are shared with the instance; do not mutate
// them.
func (in *Instance) Tuples(rel schema.RelID) [][]symtab.Value {
	r := in.rel(rel)
	if r == nil {
		return nil
	}
	out := make([][]symtab.Value, 0, len(r.tuples))
	out = append(out, r.tuples...)
	return out
}

// Facts returns every fact in the instance, grouped by relation in ascending
// relation order; tuples within a relation come in deterministic (insertion)
// order.
func (in *Instance) Facts() []Fact {
	out := make([]Fact, 0, in.size)
	for _, rel := range in.relIDs() {
		for _, t := range in.rels[rel].tuples {
			out = append(out, Fact{Rel: rel, Args: t})
		}
	}
	return out
}

// Relations returns the IDs of relations with at least one fact, ascending.
func (in *Instance) Relations() []schema.RelID { return in.relIDs() }

func (in *Instance) relIDs() []schema.RelID {
	ids := make([]schema.RelID, 0, len(in.rels))
	for id, r := range in.rels {
		if r != nil && len(r.tuples) > 0 {
			ids = append(ids, schema.RelID(id))
		}
	}
	return ids
}

// Lookup returns the tuples of rel whose column col holds value v, in
// deterministic (insertion) order. Do not mutate the returned slices.
func (in *Instance) Lookup(rel schema.RelID, col int, v symtab.Value) [][]symtab.Value {
	r := in.rel(rel)
	if r == nil {
		return nil
	}
	in.probes.Add(1)
	bucket := r.index(col, &in.builds)[v]
	out := make([][]symtab.Value, len(bucket))
	for i, pos := range bucket {
		out[i] = r.tuples[pos]
	}
	return out
}

// ForEachMatch enumerates the tuples of rel consistent with pattern (where
// symtab.None entries are wildcards) whose insertion generation g satisfies
// lo < g <= hi, calling fn with each tuple and its generation. It uses the
// column index of the first bound position when one exists. fn returning
// false stops the enumeration; ForEachMatch reports whether it ran to
// completion.
//
// The full instance is (0, ^uint64(0)]; the delta after generation g is
// (g, ^uint64(0)]; the pre-g instance is (0, g].
func (in *Instance) ForEachMatch(rel schema.RelID, pattern []symtab.Value, lo, hi uint64, fn func(tup []symtab.Value, gen uint64) bool) bool {
	r := in.rel(rel)
	if r == nil {
		return true
	}
	// Probe every bound column and scan the smallest bucket (bucket choice
	// does not affect output order: every bucket lists positions in
	// insertion order, and the full pattern is re-checked per tuple).
	bound := -1
	var bucket []int32
	for i, p := range pattern {
		if p == symtab.None {
			continue
		}
		b := r.index(i, &in.builds)[p]
		if bound < 0 || len(b) < len(bucket) {
			bound, bucket = i, b
		}
		if len(bucket) == 0 {
			break
		}
	}
	if bound < 0 {
		return in.forEachIn(rel, lo, hi, fn)
	}
	in.probes.Add(1)
	for _, pos := range bucket {
		g := r.gens[pos]
		if g > hi {
			if r.sorted {
				break // bucket follows insertion order: gens ascend
			}
			continue
		}
		if g <= lo {
			continue
		}
		t := r.tuples[pos]
		ok := true
		for i, p := range pattern {
			if p != symtab.None && t[i] != p {
				ok = false
				break
			}
		}
		if ok && !fn(t, g) {
			return false
		}
	}
	return true
}

// Match returns the tuples of rel consistent with pattern, where
// symtab.None entries are wildcards. It uses a column index when at least
// one position is bound.
func (in *Instance) Match(rel schema.RelID, pattern []symtab.Value) [][]symtab.Value {
	var out [][]symtab.Value
	in.ForEachMatch(rel, pattern, 0, ^uint64(0), func(t []symtab.Value, _ uint64) bool {
		out = append(out, t)
		return true
	})
	return out
}

// IndexProbes returns the number of index-backed match enumerations the
// instance has served. Safe to read concurrently.
func (in *Instance) IndexProbes() uint64 { return in.probes.Load() }

// IndexBuilds returns the number of column indexes built. With persistent
// incremental maintenance this stays at one per (relation, column) the
// evaluator ever binds, where the invalidate-on-write scheme rebuilt per
// chase round. Safe to read concurrently.
func (in *Instance) IndexBuilds() uint64 { return in.builds.Load() }

// RewriteValues applies the value map m to the instance in place: every
// tuple containing a key of m is removed and re-inserted with each such
// value v replaced by m[v]. Facts that collide after replacement merge.
// It returns the number of tuples rewritten.
//
// The image values of m must not themselves be keys of m (i.e. m must be
// idempotent, as produced by a resolved union-find); otherwise a rewritten
// tuple could need rewriting again. Only tuples containing a remapped value
// are touched, so untouched tuples keep their positions and insertion
// generations, while rewritten tuples are stamped as new — exactly the
// delta semantics the semi-naive chase needs after an egd merge.
func (in *Instance) RewriteValues(m map[symtab.Value]symtab.Value) int {
	if len(m) == 0 {
		return 0
	}
	var hitRels []schema.RelID
	var hitTuples [][]symtab.Value
	for _, rel := range in.relIDs() {
		for _, t := range in.rels[rel].tuples {
			for _, v := range t {
				if _, remap := m[v]; remap {
					hitRels = append(hitRels, rel)
					hitTuples = append(hitTuples, t)
					break
				}
			}
		}
	}
	// Remove every affected tuple first, then insert the rewritten forms:
	// interleaving could drop a not-yet-processed original that happens to
	// equal a rewritten tuple.
	for i, t := range hitTuples {
		in.Remove(hitRels[i], t)
	}
	for i, t := range hitTuples {
		args := make([]symtab.Value, len(t))
		for j, v := range t {
			if img, ok := m[v]; ok {
				args[j] = img
			} else {
				args[j] = v
			}
		}
		in.Add(hitRels[i], args)
	}
	return len(hitTuples)
}

// Clone returns a deep-enough copy: fact sets are copied, tuples are shared
// (tuples are treated as immutable throughout the codebase). Tuple order,
// insertion generations and the tuple set's table are preserved; column
// indexes are rebuilt lazily on the clone.
func (in *Instance) Clone() *Instance {
	cp := &Instance{cat: in.cat, rels: make([]*relation, len(in.rels)), size: in.size, gen: in.gen}
	for id, r := range in.rels {
		if r == nil {
			continue
		}
		cp.rels[id] = &relation{
			tupleTable: tupleTable{slots: slices.Clone(r.slots), tuples: slices.Clone(r.tuples)},
			gens:       slices.Clone(r.gens),
			sorted:     r.sorted,
			maxGen:     r.maxGen,
			idx:        make([]atomic.Pointer[columnIndex], len(r.idx)),
		}
	}
	return cp
}

// Restrict returns the sub-instance containing only facts whose relation is
// in s (the paper's "R'-restriction"), in deterministic order.
func (in *Instance) Restrict(s *schema.Schema) *Instance {
	out := New(in.cat)
	for _, id := range in.relIDs() {
		if !s.Contains(id) {
			continue
		}
		for _, t := range in.rels[id].tuples {
			out.Add(id, t)
		}
	}
	return out
}

// SubInstanceOf reports whether every fact of in is a fact of other.
func (in *Instance) SubInstanceOf(other *Instance) bool {
	for id, r := range in.rels {
		if r == nil {
			continue
		}
		for _, t := range r.tuples {
			if !other.Contains(schema.RelID(id), t) {
				return false
			}
		}
	}
	return true
}

// Equal reports whether in and other contain exactly the same facts.
func (in *Instance) Equal(other *Instance) bool {
	return in.size == other.size && in.SubInstanceOf(other)
}

// ActiveDomain returns the set of values occurring in facts.
func (in *Instance) ActiveDomain() map[symtab.Value]bool {
	dom := make(map[symtab.Value]bool)
	for _, r := range in.rels {
		if r == nil {
			continue
		}
		for _, t := range r.tuples {
			for _, v := range t {
				dom[v] = true
			}
		}
	}
	return dom
}

// Nulls returns the labeled nulls in the active domain.
func (in *Instance) Nulls() []symtab.Value {
	var out []symtab.Value
	for v := range in.ActiveDomain() {
		if v.IsNull() {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the instance sorted for stable test output.
func (in *Instance) String(u *symtab.Universe) string {
	lines := make([]string, 0, in.size)
	for _, f := range in.Facts() {
		lines = append(lines, f.String(in.cat, u))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
