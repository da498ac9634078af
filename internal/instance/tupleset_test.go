package instance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/symtab"
)

// refRelation is the reference model of one relation: tuples in slice
// order with their generations, and a map from tuple to position. Remove
// swap-moves the tail tuple into the hole, as the instance does.
type refRelation struct {
	tuples [][2]symtab.Value
	gens   []uint64
	pos    map[[2]symtab.Value]int
}

type refInstance struct {
	rels []*refRelation
	gen  uint64
	size int
}

func newRefInstance(n int) *refInstance {
	ref := &refInstance{}
	for i := 0; i < n; i++ {
		ref.rels = append(ref.rels, &refRelation{pos: map[[2]symtab.Value]int{}})
	}
	return ref
}

func (ref *refInstance) add(rel int, t [2]symtab.Value) bool {
	r := ref.rels[rel]
	if _, ok := r.pos[t]; ok {
		return false
	}
	ref.gen++
	ref.size++
	r.pos[t] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.gens = append(r.gens, ref.gen)
	return true
}

func (ref *refInstance) remove(rel int, t [2]symtab.Value) bool {
	r := ref.rels[rel]
	i, ok := r.pos[t]
	if !ok {
		return false
	}
	delete(r.pos, t)
	last := len(r.tuples) - 1
	if i != last {
		r.tuples[i], r.gens[i] = r.tuples[last], r.gens[last]
		r.pos[r.tuples[i]] = i
	}
	r.tuples, r.gens = r.tuples[:last], r.gens[:last]
	ref.size--
	return true
}

// rewrite mirrors RewriteValues: every tuple holding a key of m is removed
// (relations ascending, tuples in slice order), then the rewritten forms are
// added in the same order.
func (ref *refInstance) rewrite(m map[symtab.Value]symtab.Value) int {
	type hit struct {
		rel int
		t   [2]symtab.Value
	}
	var hits []hit
	for rel, r := range ref.rels {
		for _, t := range r.tuples {
			if _, ok := m[t[0]]; ok {
				hits = append(hits, hit{rel, t})
			} else if _, ok := m[t[1]]; ok {
				hits = append(hits, hit{rel, t})
			}
		}
	}
	for _, h := range hits {
		ref.remove(h.rel, h.t)
	}
	for _, h := range hits {
		t := h.t
		for j, v := range t {
			if img, ok := m[v]; ok {
				t[j] = img
			}
		}
		ref.add(h.rel, t)
	}
	return len(hits)
}

func (ref *refInstance) clone() *refInstance {
	cp := &refInstance{gen: ref.gen, size: ref.size}
	for _, r := range ref.rels {
		nr := &refRelation{tuples: slices.Clone(r.tuples), gens: slices.Clone(r.gens), pos: map[[2]symtab.Value]int{}}
		for t, i := range r.pos {
			nr.pos[t] = i
		}
		cp.rels = append(cp.rels, nr)
	}
	return cp
}

// checkTupleSet asserts the table invariant of every relation.
func checkTupleSet(t *testing.T, step int, in *Instance) {
	t.Helper()
	for id, r := range in.rels {
		if r != nil {
			checkTable(t, fmt.Sprintf("step %d rel %d", step, id), &r.tupleTable)
		}
	}
}

// checkTable asserts the table invariant: a power-of-two table at most half
// full, every position in exactly one slot, and every entry reachable from
// its home slot without crossing an empty slot.
func checkTable(t *testing.T, label string, r *tupleTable) {
	t.Helper()
	n := len(r.slots)
	if n&(n-1) != 0 || 2*len(r.tuples) > n {
		t.Fatalf("%s: %d slots for %d tuples", label, n, len(r.tuples))
	}
	seen := make([]bool, len(r.tuples))
	mask := n - 1
	for j, s := range r.slots {
		if s == 0 {
			continue
		}
		pos := int(s - 1)
		if pos >= len(r.tuples) || seen[pos] {
			t.Fatalf("%s: slot %d holds bad or repeated position %d", label, j, pos)
		}
		seen[pos] = true
		for i := hashTuple(r.tuples[pos]) & mask; i != j; i = (i + 1) & mask {
			if r.slots[i] == 0 {
				t.Fatalf("%s: position %d at slot %d is cut off from its home by empty slot %d", label, pos, j, i)
			}
		}
	}
	for pos, ok := range seen {
		if !ok {
			t.Fatalf("%s: position %d has no slot", label, pos)
		}
	}
}

// checkAgainstRef asserts that in holds exactly ref: Len, tuple order and
// generations, Contains and GenOf over the whole domain, and Match of a
// pattern as a set.
func checkAgainstRef(t *testing.T, step int, in *Instance, ref *refInstance, rels []schema.RelID, dom []symtab.Value, rng *rand.Rand) {
	t.Helper()
	checkTupleSet(t, step, in)
	if in.Len() != ref.size || in.Gen() != ref.gen {
		t.Fatalf("step %d: Len %d Gen %d, reference %d %d", step, in.Len(), in.Gen(), ref.size, ref.gen)
	}
	for ri, rel := range rels {
		r := ref.rels[ri]
		got := in.Tuples(rel)
		if len(got) != len(r.tuples) || in.LenOf(rel) != len(r.tuples) {
			t.Fatalf("step %d rel %d: %d tuples, reference %d", step, rel, len(got), len(r.tuples))
		}
		for i, tup := range got {
			if tup[0] != r.tuples[i][0] || tup[1] != r.tuples[i][1] {
				t.Fatalf("step %d rel %d: tuple %d is %v, reference %v", step, rel, i, tup, r.tuples[i])
			}
		}
		for _, a := range dom {
			for _, b := range dom {
				args := []symtab.Value{a, b}
				i, want := r.pos[[2]symtab.Value{a, b}]
				if in.Contains(rel, args) != want {
					t.Fatalf("step %d rel %d: Contains(%v) = %v, reference %v", step, rel, args, !want, want)
				}
				g, ok := in.GenOf(rel, args)
				if ok != want || (want && g != r.gens[i]) {
					t.Fatalf("step %d rel %d: GenOf(%v) = %d, %v", step, rel, args, g, ok)
				}
			}
		}
		pattern := []symtab.Value{symtab.None, symtab.None}
		pattern[rng.Intn(2)] = dom[rng.Intn(len(dom))]
		var want [][2]symtab.Value
		for _, tup := range r.tuples {
			if (pattern[0] == symtab.None || tup[0] == pattern[0]) && (pattern[1] == symtab.None || tup[1] == pattern[1]) {
				want = append(want, tup)
			}
		}
		var match [][2]symtab.Value
		for _, tup := range in.Match(rel, pattern) {
			match = append(match, [2]symtab.Value{tup[0], tup[1]})
		}
		less := func(x, y [2]symtab.Value) int {
			if x[0] != y[0] {
				return int(x[0]) - int(y[0])
			}
			return int(x[1]) - int(y[1])
		}
		slices.SortFunc(want, less)
		slices.SortFunc(match, less)
		if !slices.Equal(want, match) {
			t.Fatalf("step %d rel %d: Match(%v) = %v, reference %v", step, rel, pattern, match, want)
		}
	}
}

// TestTupleSetMatchesReference drives random Add/Remove/RewriteValues/Clone
// sequences over a small domain, so tables stay small, probe runs wrap
// around the table's end and backward-shift deletion runs on almost every
// removal. Some domain values differ only in their high bits (and two are
// nulls), so a hash that dropped them would collide. After every step the
// instance must agree with the map reference and keep the table invariant.
func TestTupleSetMatchesReference(t *testing.T) {
	cat := schema.NewCatalog()
	rels := []schema.RelID{cat.MustAdd("R", 2).ID, cat.MustAdd("S", 2).ID}
	dom := []symtab.Value{1, 2, 3, 1 | 1<<16, 1 | 1<<24, 1 | 1<<30, -1, -1 - 1<<30}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		in, ref := New(cat), newRefInstance(len(rels))
		var frozen *Instance // a clone's original, which later steps must not touch
		var frozenRef *refInstance
		for step := 0; step < 400; step++ {
			ri := rng.Intn(len(rels))
			tup := [2]symtab.Value{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]}
			switch op := rng.Intn(20); {
			case op < 11:
				if in.Add(rels[ri], tup[:]) != ref.add(ri, tup) {
					t.Fatalf("trial %d step %d: Add(%v) disagrees with the reference", trial, step, tup)
				}
			case op < 18:
				if in.Remove(rels[ri], tup[:]) != ref.remove(ri, tup) {
					t.Fatalf("trial %d step %d: Remove(%v) disagrees with the reference", trial, step, tup)
				}
			case op < 19:
				m := map[symtab.Value]symtab.Value{dom[rng.Intn(len(dom))]: dom[rng.Intn(len(dom))]}
				for k, v := range m {
					if k == v {
						delete(m, k)
					}
				}
				if got, want := in.RewriteValues(m), ref.rewrite(m); got != want {
					t.Fatalf("trial %d step %d: RewriteValues rewrote %d, reference %d", trial, step, got, want)
				}
			default:
				frozen, frozenRef = in, ref.clone()
				in = in.Clone()
			}
			checkAgainstRef(t, step, in, ref, rels, dom, rng)
			if frozen != nil && frozen != in {
				checkAgainstRef(t, step, frozen, frozenRef, rels, dom, rng)
			}
		}
	}
}

// TestTupleSetAddCopies drives a TupleSet with random tuples of arity 0, 1
// and 3 over the same small domain, through one buffer that is overwritten
// after every call: Add must number new tuples densely in insertion order,
// find repeated ones, keep its own copies, and keep the table invariant.
func TestTupleSetAddCopies(t *testing.T) {
	dom := []symtab.Value{1, 2, 3, 1 | 1<<16, 1 | 1<<24, 1 | 1<<30, -1, -1 - 1<<30}
	rng := rand.New(rand.NewSource(9100))
	for _, arity := range []int{0, 1, 3} {
		var s TupleSet
		pos := map[string]int{}
		var want [][]symtab.Value
		buf := make([]symtab.Value, arity)
		for step := 0; step < 2000; step++ {
			for i := range buf {
				buf[i] = dom[rng.Intn(len(dom))]
			}
			wantPos, seen := pos[EncodeTuple(buf)]
			if !seen {
				wantPos = len(want)
				pos[EncodeTuple(buf)] = wantPos
				want = append(want, slices.Clone(buf))
			}
			if got, added := s.Add(buf); got != wantPos || added == seen {
				t.Fatalf("arity %d step %d: Add(%v) = %d, %v; want %d, %v", arity, step, buf, got, added, wantPos, !seen)
			}
			for i := range buf {
				buf[i] = symtab.None
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("arity %d: Len %d, want %d", arity, s.Len(), len(want))
		}
		for i, w := range want {
			if !slices.Equal(s.Tuple(i), w) {
				t.Fatalf("arity %d: tuple %d is %v, want %v", arity, i, s.Tuple(i), w)
			}
		}
		checkTable(t, fmt.Sprintf("arity %d", arity), &s.tab)
	}
}
