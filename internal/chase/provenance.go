package chase

import (
	"fmt"
	"slices"
	"sort"
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

	facts    []instance.Fact
	isSource []bool
	// genID maps a tuple's insertion generation in Instance to its FactID
	// (indexed 1..Instance.Gen(); only a source instance that saw removals
	// leaves slots no tuple uses). It is the only fact index: derivations,
	// violations and query matches resolve their body facts from the
	// join's generation rank through it, and FactIDOf goes through
	// Instance.GenOf, so no string key is kept per fact.
	genID []FactID

	// supports[f] lists the support sets of fact f (Definition 4): each is
	// a sorted list of fact ids whose conjunction derives f via one ground
	// tgd. Source facts have none.
	supports [][][]FactID
	// supSeen[f] dedups support sets; it is nil while the fact has few
	// supports (linear comparison is cheaper) and materialized past a
	// threshold.
	supSeen []map[string]bool

	supArena  arena[FactID]
	valArena  arena[symtab.Value]
	rankArena arena[uint64]

	// usedIn[g] lists (fact, support-set index) pairs where g occurs, i.e.
	// the reverse hyperedges used to compute influences (Definition 7).
	usedIn [][]SupportRef

	Violations []Violation
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
func (p *Provenance) IsSource(id FactID) bool { return p.isSource[id] }

// FactIDOf returns the id of a fact, if present.
func (p *Provenance) FactIDOf(f instance.Fact) (FactID, bool) {
	g, ok := p.Instance.GenOf(f.Rel, f.Args)
	if !ok {
		return 0, false
	}
	return p.FactIDOfGen(g)
}

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
func (p *Provenance) Supports(id FactID) [][]FactID { return p.supports[id] }

// intern assigns the next id to f. The chase interns each fact exactly once,
// when it first appears in Instance, and records the id under its generation.
func (p *Provenance) intern(f instance.Fact, source bool) FactID {
	id := FactID(len(p.facts))
	p.facts = append(p.facts, f)
	p.isSource = append(p.isSource, source)
	p.supports = append(p.supports, nil)
	p.supSeen = append(p.supSeen, nil)
	p.usedIn = append(p.usedIn, nil)
	return id
}

// supSeenThreshold is the support count past which dedup switches from
// linear comparison to a per-fact string-key set.
const supSeenThreshold = 16

func (p *Provenance) addSupport(f FactID, set []FactID) {
	sorted := p.supArena.alloc(len(set))
	copy(sorted, set)
	// Insertion sort: support sets are tgd bodies, almost always 1-3 atoms.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	sups := p.supports[f]
	if seen := p.supSeen[f]; seen != nil {
		key := encodeFactIDs(sorted)
		if seen[key] {
			return
		}
		seen[key] = true
	} else {
		for _, s := range sups {
			if factIDsEqual(s, sorted) {
				return
			}
		}
		if len(sups)+1 > supSeenThreshold {
			seen = make(map[string]bool, 2*(len(sups)+1))
			for _, s := range sups {
				seen[encodeFactIDs(s)] = true
			}
			seen[encodeFactIDs(sorted)] = true
			p.supSeen[f] = seen
		}
	}
	idx := int32(len(sups))
	p.supports[f] = append(sups, sorted)
	for _, g := range sorted {
		p.usedIn[g] = append(p.usedIn[g], SupportRef{Fact: f, Set: idx})
	}
}

func factIDsEqual(a, b []FactID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// arena bump-allocates small slices out of shared chunks, amortizing the
// per-slice heap allocation of the chase's firing records and support sets.
// Allocated slices stay valid for the arena's lifetime; nothing is freed.
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
	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("chase: GAV chase did not terminate after %d rounds", maxRounds)
		}
		st.Rounds++
		evaluated := false
		for _, ge := range execs {
			ev, _ := p.applyGAVTGD(ge, st)
			evaluated = evaluated || ev
		}
		if !evaluated {
			break
		}
	}
	st.TgdDuration += time.Since(t0)
	t0 = time.Now()
	p.findViolations()
	st.ViolationDuration += time.Since(t0)
	return p, nil
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
	for _, f := range src.Facts() {
		g, ok := p.Instance.GenOf(f.Rel, f.Args)
		if !ok {
			panic("chase: source fact missing from cloned instance")
		}
		p.genID[g] = p.intern(f, true)
	}

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

	firings []gavFiring // scratch, reused across evaluations
}

type gavFiring struct {
	args []symtab.Value
	rank []uint64 // body-tuple gens per atom; resolved to FactIDs at apply time
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
	firings := ge.firings[:0]
	var evalOrder []int
	ge.plan.ForEachDelta(p.Instance, old, func(env []symtab.Value, rank []uint64, order []int) bool {
		evalOrder = order
		args := p.valArena.alloc(len(ge.headConsts))
		for j := range args {
			if s := ge.headSlot[j]; s >= 0 {
				args[j] = env[s]
			} else {
				args[j] = ge.headConsts[j]
			}
		}
		r := p.rankArena.alloc(len(rank))
		copy(r, rank)
		firings = append(firings, gavFiring{args: args, rank: r})
		return true
	})
	ge.watermark = cur
	sort.Slice(firings, func(i, j int) bool { return rankLess(firings[i].rank, firings[j].rank, evalOrder) })
	ge.firings = firings
	body := make([]FactID, ge.numBody)
	for _, fr := range firings {
		st.Triggers++
		f := instance.Fact{Rel: ge.headRel, Args: fr.args}
		gen, isNew := p.Instance.AddWithGen(f.Rel, f.Args)
		var id FactID
		if isNew {
			added = true
			st.DeltaFacts++
			id = p.intern(f, false)
			if int(gen) != len(p.genID) {
				panic("chase: generation/fact-id tables out of sync")
			}
			p.genID = append(p.genID, id)
		} else {
			id = p.genID[gen]
		}
		// The matched body tuples are identified by their generations; all
		// existed before this evaluation, so their ids are in the table.
		self := false
		for i, g := range fr.rank {
			b := p.genID[g]
			body[i] = b
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
		for _, set := range p.supports[f] {
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
		for _, ref := range p.usedIn[g] {
			if !infl[ref.Fact] {
				infl[ref.Fact] = true
				stack = append(stack, ref.Fact)
			}
		}
	}
	return infl
}

// SafeDerivable returns the set of facts derivable using only facts outside
// `excluded`: source facts not excluded are derivable; a derived fact is
// derivable if it is not excluded and some support set is entirely
// derivable. This equals chase(I \ excluded-source-facts) by monotonicity,
// computed on the hypergraph without re-chasing.
func (p *Provenance) SafeDerivable(excluded map[FactID]bool) map[FactID]bool {
	derivable := make(map[FactID]bool)
	// Count per (fact, support set) how many members are pending; fire when 0.
	type setState struct{ pending int }
	states := make([][]setState, len(p.facts))
	var queue []FactID
	for id := range p.facts {
		f := FactID(id)
		states[id] = make([]setState, len(p.supports[id]))
		for si, set := range p.supports[id] {
			states[id][si].pending = len(set)
		}
		if p.isSource[id] && !excluded[f] {
			derivable[f] = true
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ref := range p.usedIn[g] {
			st := &states[ref.Fact][ref.Set]
			st.pending--
			if st.pending == 0 && !derivable[ref.Fact] && !excluded[ref.Fact] {
				derivable[ref.Fact] = true
				queue = append(queue, ref.Fact)
			}
		}
	}
	return derivable
}
