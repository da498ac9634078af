package chase

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// FactID indexes facts within a Provenance.
type FactID int32

// Violation is a violated ground egd: a grounding of an egd whose body
// holds in the canonical quasi-solution but whose equality fails on two
// distinct constants.
type Violation struct {
	EgdIndex int      // index into the mapping's TEgds
	Body     []FactID // ground body facts, ascending
	L, R     symtab.Value
}

// Provenance is the result of the GAV chase: the canonical quasi-solution
// together with the full support-set hypergraph and the violation set.
type Provenance struct {
	M *mapping.Mapping

	// Instance is I ∪ J: source facts plus every derived target fact
	// (the canonical quasi-solution of Definition 2 restricted to T).
	Instance *instance.Instance

	facts []instance.Fact
	// numSource counts the source facts. They are interned before any
	// derived fact, so they are exactly the ids below numSource.
	numSource FactID
	// genID maps a tuple's insertion generation in Instance to its FactID
	// (indexed 1..Instance.Gen(); only a source instance that saw removals
	// leaves slots no tuple uses). It is the only fact index: derivations,
	// violations and query matches resolve their body facts from the
	// join's generation rank through it, and FactIDOf goes through
	// Instance.GenOf, so no string key is kept per fact.
	genID []FactID

	// The support sets of fact f (Definition 4) are sets[supOff[f]:supOff[f+1]],
	// in the order the chase first derived them: each is a sorted list of
	// fact ids whose conjunction derives f via one ground tgd. Source facts
	// have none. All sets share one backing array, laid out fact by fact.
	sets   [][]FactID
	supOff []int32
	// usedIn[usedOff[g]:usedOff[g+1]] lists the (fact, set) pairs whose set
	// contains g, once per occurrence, in the order the sets were derived:
	// the reverse hyperedges used to compute influences (Definition 7).
	usedIn  []SupportRef
	usedOff []int32

	// valArena holds the arguments of derived facts.
	valArena arena[symtab.Value]
	// log and scratch live only while the fixpoint runs; finish turns the
	// log into the tables above and drops both.
	log     supportLog
	scratch firingScratch

	Violations []Violation
}

// supportLog records every derivation of the fixpoint in order, repeats
// included: entry i derives fact[i] from the sorted ids[end[i-1]:end[i]].
type supportLog struct {
	fact []FactID
	end  []int32
	ids  []FactID
}

// set returns the sorted support set of entry e.
func (l *supportLog) set(e int32) []FactID {
	lo := int32(0)
	if e > 0 {
		lo = l.end[e-1]
	}
	return l.ids[lo:l.end[e]]
}

// firingScratch holds one tgd evaluation's matches, reused by every
// evaluation of the chase: per match, the head arguments (args) and the
// body tuples' generations (ranks), plus the order in which the matches
// are applied and one match's body fact ids.
type firingScratch struct {
	args  []symtab.Value
	ranks []uint64
	order []int32
	body  []FactID
}

// SupportRef locates one occurrence of a fact inside another fact's
// support set: Supports(Fact)[Set] contains the referencing occurrence.
type SupportRef struct {
	Fact FactID
	Set  int32
}

// NumFacts returns the number of facts (source and derived).
func (p *Provenance) NumFacts() int { return len(p.facts) }

// Fact returns the fact with the given id.
func (p *Provenance) Fact(id FactID) instance.Fact { return p.facts[id] }

// IsSource reports whether the fact is a source fact of the original input.
func (p *Provenance) IsSource(id FactID) bool { return id < p.numSource }

// FactIDOfGen returns the id of the fact Instance stamped with insertion
// generation g, as reported by GenOf or in the rank of a cq.Plan match. It
// reports false for 0 and for a generation past the chase's last insertion.
func (p *Provenance) FactIDOfGen(g uint64) (FactID, bool) {
	if g == 0 || g >= uint64(len(p.genID)) {
		return 0, false
	}
	return p.genID[g], true
}

// Supports returns the support sets of a fact. The result is shared; do not
// modify.
func (p *Provenance) Supports(id FactID) [][]FactID {
	lo, hi := p.supOff[id], p.supOff[id+1]
	return p.sets[lo:hi:hi]
}

// usedBy returns the reverse hyperedges of g: every (fact, set) whose
// support set contains g.
func (p *Provenance) usedBy(g FactID) []SupportRef {
	return p.usedIn[p.usedOff[g]:p.usedOff[g+1]]
}

// grow returns s with room for n more elements. It doubles the capacity
// when it must grow, where append's own growth slows to 1.25× on large
// slices.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	ns := make([]T, len(s), max(2*cap(s), len(s)+n, 64))
	copy(ns, s)
	return ns
}

// intern assigns the next id to f. The chase interns each fact exactly once,
// when it first appears in Instance, and records the id under its generation.
func (p *Provenance) intern(f instance.Fact) FactID {
	id := FactID(len(p.facts))
	p.facts = append(grow(p.facts, 1), f)
	return id
}

// addSupport logs that set (one match's body fact ids, in atom order)
// derives f. Repeats are kept here and dropped by finish.
func (p *Provenance) addSupport(f FactID, set []FactID) {
	l := &p.log
	start := len(l.ids)
	l.ids = append(grow(l.ids, len(set)), set...)
	sorted := l.ids[start:]
	// Insertion sort: support sets are tgd bodies, almost always 1-3 atoms.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	l.fact = append(grow(l.fact, 1), f)
	l.end = append(grow(l.end, 1), int32(len(l.ids)))
}

// finish builds the support tables from the log once the fixpoint is done.
// Each fact keeps the first occurrence of each of its sets, in log order,
// and usedIn lists the kept sets in log order too: the tables equal those
// of recording each derivation as it happens and skipping a set its fact
// already has. The retained tables are allocated at their exact sizes; the
// log and the firing scratch are dropped.
func (p *Provenance) finish() {
	l := &p.log
	n := len(p.facts)

	// Group the entries by fact, in log order (a counting sort).
	off := make([]int32, n+1)
	for _, f := range l.fact {
		off[f+1]++
	}
	for f := 1; f <= n; f++ {
		off[f] += off[f-1]
	}
	byFact := make([]int32, len(l.fact))
	next := slices.Clone(off[:n])
	for e, f := range l.fact {
		byFact[next[f]] = int32(e)
		next[f]++
	}

	// Number each fact's distinct sets in first-seen order; setOf[e] is -1
	// for a repeat. Sorting a fact's entries by content, then by log
	// position, starts each run of equal sets with its first occurrence.
	setOf := make([]int32, len(l.fact))
	p.supOff = make([]int32, n+1)
	nids := 0
	var sorted []int32
	for f := 0; f < n; f++ {
		es := byFact[off[f]:off[f+1]]
		if len(es) > 1 {
			sorted = append(sorted[:0], es...)
			slices.SortFunc(sorted, func(a, b int32) int {
				return cmp.Or(slices.Compare(l.set(a), l.set(b)), cmp.Compare(a, b))
			})
			for i := 1; i < len(sorted); i++ {
				if slices.Equal(l.set(sorted[i-1]), l.set(sorted[i])) {
					setOf[sorted[i]] = -1
				}
			}
		}
		k := int32(0)
		for _, e := range es {
			if setOf[e] >= 0 {
				setOf[e] = k
				k++
				nids += len(l.set(e))
			}
		}
		p.supOff[f+1] = p.supOff[f] + k
	}

	// Copy the kept sets fact by fact into one exact-size array.
	ids := make([]FactID, 0, nids)
	p.sets = make([][]FactID, p.supOff[n])
	for f := 0; f < n; f++ {
		for _, e := range byFact[off[f]:off[f+1]] {
			if k := setOf[e]; k >= 0 {
				lo := len(ids)
				ids = append(ids, l.set(e)...)
				p.sets[p.supOff[f]+k] = ids[lo:len(ids):len(ids)]
			}
		}
	}

	// Invert the kept sets in log order.
	p.usedOff = make([]int32, n+1)
	for e := range l.fact {
		if setOf[e] >= 0 {
			for _, g := range l.set(int32(e)) {
				p.usedOff[g+1]++
			}
		}
	}
	for g := 1; g <= n; g++ {
		p.usedOff[g] += p.usedOff[g-1]
	}
	p.usedIn = make([]SupportRef, p.usedOff[n])
	next = slices.Clone(p.usedOff[:n])
	for e, f := range l.fact {
		if k := setOf[e]; k >= 0 {
			for _, g := range l.set(int32(e)) {
				p.usedIn[next[g]] = SupportRef{Fact: f, Set: k}
				next[g]++
			}
		}
	}

	p.log, p.scratch = supportLog{}, firingScratch{}
	p.facts = slices.Clone(p.facts)
	p.genID = slices.Clone(p.genID)
}

// arena bump-allocates small slices out of shared chunks, amortizing the
// per-slice heap allocation of derived facts' arguments. Allocated slices
// stay valid for the arena's lifetime; nothing is freed.
type arena[T any] struct{ cur []T }

func (a *arena[T]) alloc(n int) []T {
	const chunk = 1 << 14
	if len(a.cur)+n > cap(a.cur) {
		c := chunk
		if n > c {
			c = n
		}
		a.cur = make([]T, 0, c)
	}
	s := a.cur[len(a.cur) : len(a.cur)+n : len(a.cur)+n]
	a.cur = a.cur[:len(a.cur)+n]
	return s
}

func encodeFactIDs(ids []FactID) string {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// GAV runs the datalog chase of src with the GAV mapping m, recording every
// ground derivation and every egd violation. It returns an error if m is not
// gav+(gav, egd).
func GAV(m *mapping.Mapping, src *instance.Instance) (*Provenance, error) {
	return GAVWithOptions(m, src, Options{})
}

// GAVWithOptions is GAV with a stats sink.
//
// A tgd is re-evaluated only when a body relation gained facts since the
// tgd's watermark, and each evaluation enumerates only the ground
// derivations using at least one such delta fact. Every derivation is new
// exactly once (when its newest body fact is), so the support-set
// hypergraph is complete (every support set of Definition 4 is recorded),
// as with the naive fixpoint whose final full pass enumerates every
// derivation valid in the final instance. Applying each evaluation's
// firings in generation-rank order makes interning order, support order,
// and violations byte-identical to the naive fixpoint.
func GAVWithOptions(m *mapping.Mapping, src *instance.Instance, opt Options) (*Provenance, error) {
	st := opt.Stats
	if st == nil {
		st = &Stats{}
	}
	p, execs, err := startGAV(m, src)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := p.fixpoint(execs, st); err != nil {
		return nil, err
	}
	p.finish()
	st.TgdDuration += time.Since(t0)
	t0 = time.Now()
	p.findViolations()
	st.ViolationDuration += time.Since(t0)
	return p, nil
}

// fixpoint evaluates the tgds semi-naively, round after round, until a
// round evaluates none.
func (p *Provenance) fixpoint(execs []*gavExec, st *Stats) error {
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("chase: GAV chase did not terminate after %d rounds", maxRounds)
		}
		st.Rounds++
		evaluated := false
		for _, ge := range execs {
			ev, _ := p.applyGAVTGD(ge, st)
			evaluated = evaluated || ev
		}
		if !evaluated {
			return nil
		}
	}
}

// startGAV opens a GAV chase of src: a provenance record holding the source
// facts, and m's tgds compiled with fresh watermarks.
func startGAV(m *mapping.Mapping, src *instance.Instance) (*Provenance, []*gavExec, error) {
	if !m.IsGAV() {
		return nil, nil, fmt.Errorf("chase: GAV chase requires a gav+(gav, egd) mapping")
	}
	p := &Provenance{
		M:        m,
		Instance: src.Clone(),
	}
	p.genID = make([]FactID, p.Instance.Gen()+1)
	p.facts = make([]instance.Fact, 0, 2*src.Len())
	for _, f := range src.Facts() {
		g, ok := p.Instance.GenOf(f.Rel, f.Args)
		if !ok {
			panic("chase: source fact missing from cloned instance")
		}
		p.genID[g] = p.intern(f)
	}
	p.numSource = FactID(len(p.facts))

	tgds := m.AllTgds()
	execs := make([]*gavExec, len(tgds))
	for i, d := range tgds {
		execs[i] = compileGAV(d)
	}
	return p, execs, nil
}

// gavExec is one compiled GAV tgd: a reusable body plan, the head and body
// instantiation templates, the body relation set for the dependency index,
// and the semi-naive watermark. GAV heads have no existential variables, so
// the head template only references environment slots and constants.
type gavExec struct {
	d         *logic.TGD
	plan      *cq.Plan
	bodyRels  []schema.RelID
	watermark uint64
	started   bool // evaluated at least once (watermark is meaningful)

	headRel    schema.RelID
	headConsts []symtab.Value
	headSlot   []int
	numBody    int
}

func compileGAV(d *logic.TGD) *gavExec {
	ge := &gavExec{d: d, plan: cq.Compile(d.Body)}
	ge.bodyRels = ge.plan.Relations()
	head := d.Head[0]
	ge.headRel = head.Rel
	ge.headConsts = make([]symtab.Value, len(head.Terms))
	ge.headSlot = make([]int, len(head.Terms))
	for j, t := range head.Terms {
		if t.IsVar() {
			ge.headSlot[j] = ge.plan.VarSlot[t.Var]
		} else {
			ge.headSlot[j] = -1
			ge.headConsts[j] = t.Val
		}
	}
	ge.numBody = len(d.Body)
	return ge
}

func (ge *gavExec) hasDelta(work *instance.Instance) bool {
	if !ge.started {
		return true
	}
	for _, r := range ge.bodyRels {
		if work.RelGen(r) > ge.watermark {
			return true
		}
	}
	return false
}

// applyGAVTGD enumerates the (delta) body matches over the current
// instance, derives head facts, and records support sets. It reports
// whether the rule was evaluated and whether any new fact was added.
func (p *Provenance) applyGAVTGD(ge *gavExec, st *Stats) (evaluated, added bool) {
	old := ge.watermark
	if !ge.hasDelta(p.Instance) {
		st.RuleSkips++
		return false, false
	}
	cur := p.Instance.Gen()
	st.RuleEvals++
	ge.started = true
	sc := &p.scratch
	nh, nb := len(ge.headSlot), ge.numBody
	args, ranks, order := sc.args[:0], sc.ranks[:0], sc.order[:0]
	var evalOrder []int
	ge.plan.ForEachDelta(p.Instance, old, func(env []symtab.Value, rank []uint64, o []int) bool {
		evalOrder = o
		for j, s := range ge.headSlot {
			if s >= 0 {
				args = append(args, env[s])
			} else {
				args = append(args, ge.headConsts[j])
			}
		}
		ranks = append(ranks, rank...)
		order = append(order, int32(len(order)))
		return true
	})
	ge.watermark = cur
	rankOf := func(i int32) []uint64 { return ranks[int(i)*nb : int(i+1)*nb] }
	slices.SortFunc(order, func(a, b int32) int { return rankCmp(rankOf(a), rankOf(b), evalOrder) })
	if cap(sc.body) < nb {
		sc.body = make([]FactID, nb)
	}
	body := sc.body[:nb]
	sc.args, sc.ranks, sc.order = args, ranks, order
	for _, i := range order {
		st.Triggers++
		head := args[int(i)*nh : int(i+1)*nh]
		var id FactID
		if gen, ok := p.Instance.GenOf(ge.headRel, head); ok {
			id = p.genID[gen]
		} else {
			// AddWithGen retains its argument slice: give it its own copy.
			own := p.valArena.alloc(nh)
			copy(own, head)
			gen, _ = p.Instance.AddWithGen(ge.headRel, own)
			added = true
			st.DeltaFacts++
			id = p.intern(instance.Fact{Rel: ge.headRel, Args: own})
			if int(gen) != len(p.genID) {
				panic("chase: generation/fact-id tables out of sync")
			}
			p.genID = append(grow(p.genID, 1), id)
		}
		// The matched body tuples are identified by their generations; all
		// existed before this evaluation, so their ids are in the table.
		self := false
		for j, g := range rankOf(i) {
			b := p.genID[g]
			body[j] = b
			// Self-supports (a fact deriving itself) carry no information
			// for closures/influence and would create spurious cycles.
			if b == id {
				self = true
			}
		}
		if !self {
			p.addSupport(id, body)
		}
	}
	return true, added
}

// findViolations enumerates violated ground egds over the final instance.
func (p *Provenance) findViolations() {
	for ei, d := range p.M.TEgds {
		plan := cq.Compile(d.Body)
		plan.ForEachDelta(p.Instance, 0, func(env []symtab.Value, rank []uint64, _ []int) bool {
			l := egdSide(d.L, plan, env)
			r := egdSide(d.R, plan, env)
			if l == r {
				return true
			}
			// rank holds the generation of the tuple matched at each body atom.
			body := make([]FactID, len(rank))
			for i, g := range rank {
				body[i] = p.genID[g]
			}
			slices.Sort(body)
			p.Violations = append(p.Violations, Violation{EgdIndex: ei, Body: body, L: l, R: r})
			return true
		})
	}
	// Dedup violations that ground to the same body and equality (e.g. from
	// symmetric matches of the same egd).
	seen := make(map[string]bool, len(p.Violations))
	uniq := p.Violations[:0]
	for _, v := range p.Violations {
		l, r := v.L, v.R
		if l > r {
			l, r = r, l
		}
		key := fmt.Sprintf("%d|%s|%d|%d", v.EgdIndex, encodeFactIDs(v.Body), l, r)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, v)
	}
	p.Violations = uniq
}

// SupportClosure returns the support closure of the given facts
// (Definition 4): the least set containing seed and, for every member g,
// every fact belonging to a support set of g.
func (p *Provenance) SupportClosure(seed []FactID) map[FactID]bool {
	closure := make(map[FactID]bool)
	stack := append([]FactID(nil), seed...)
	for _, f := range seed {
		closure[f] = true
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range p.Supports(f) {
			for _, g := range set {
				if !closure[g] {
					closure[g] = true
					stack = append(stack, g)
				}
			}
		}
	}
	return closure
}

// Influence returns the influence of the given fact set (Definition 7): the
// least superset E' of seed such that whenever g ∈ E', every fact with a
// support set containing g is also in E'.
func (p *Provenance) Influence(seed map[FactID]bool) map[FactID]bool {
	infl := make(map[FactID]bool, len(seed))
	var stack []FactID
	for f := range seed {
		infl[f] = true
		stack = append(stack, f)
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ref := range p.usedBy(g) {
			if !infl[ref.Fact] {
				infl[ref.Fact] = true
				stack = append(stack, ref.Fact)
			}
		}
	}
	return infl
}

// SafeDerivable returns, by FactID, the facts derivable using only facts
// outside excluded (also by FactID; nil excludes nothing): source facts not
// excluded are derivable; a derived fact is derivable if it is not excluded
// and some support set is entirely derivable. This equals
// chase(I \ excluded-source-facts) by monotonicity, computed on the
// hypergraph without re-chasing.
func (p *Provenance) SafeDerivable(excluded []bool) []bool {
	isExcluded := func(f FactID) bool { return int(f) < len(excluded) && excluded[f] }
	derivable := make([]bool, len(p.facts))
	// Count per support set (numbered as in sets) how many members are
	// pending; the set fires when its count reaches 0.
	pending := make([]int32, len(p.sets))
	for i, set := range p.sets {
		pending[i] = int32(len(set))
	}
	var queue []FactID
	for f := FactID(0); f < p.numSource; f++ {
		if !isExcluded(f) {
			derivable[f] = true
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ref := range p.usedBy(g) {
			s := p.supOff[ref.Fact] + ref.Set
			pending[s]--
			if pending[s] == 0 && !derivable[ref.Fact] && !isExcluded(ref.Fact) {
				derivable[ref.Fact] = true
				queue = append(queue, ref.Fact)
			}
		}
	}
	return derivable
}
