package xr

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asp"
)

// This file implements the persistent per-signature solver behind the
// segmentary query path (DESIGN.md §17): one StableSolver per cached
// signature program answers every candidate of every query over that
// signature by swapping incremental sessions, instead of building a
// solver per query.
//
// Why reuse is sound: candidate wiring is a conservative, stratified
// program extension — each query atom qa is fresh, heads only its own
// rules, and feeds nothing in the base program — so the stable models of
// the extended program restricted to the base atoms are exactly the
// stable models of the base program. Every clause the solver accumulates
// between queries (CDCL learnt clauses from assumption-aware solving,
// loop formulas, negative-signature blocks, maximality clauses) states a
// fact about that invariant model space, so it stays valid as candidates
// accumulate. Clauses that are only sound for one query — model blocks
// and the cautious/brave search-strategy clauses — are scoped to the
// query's Session activation literal and retired when it closes.
//
// Candidates themselves are memoized: two candidates whose covered
// support sets project to the same base "remains"-atom structure are
// semantically the same query atom, so repeated queries reuse the wired
// atom instead of growing the program. So are their verdicts: the same
// invariance fixes whether a wired atom is cautious or brave for the life
// of the solver, so once a completed session has decided it, later
// queries read the verdict instead of searching again. And so are the
// repairs the solver found: every model the maximality acceptor accepts
// is a repair of the signature's sub-world, fixed for the life of the
// solver, so a later atom false in a stored model is not certain and one
// true in it is possible, without a session (witness models).
//
// Concurrency: a signature's persistent solver is single-threaded by
// construction — queries over the same signature serialize on
// sigProgram.incMu, held for writing for the duration of their solve. A
// group the memo decides entirely is read under the read lock instead,
// and only if that is free at once (decideFromMemo in segmentary.go).
// Distinct signatures still fan out across the worker pool, and answers
// stay deterministic at any parallelism because each signature group is
// solved exactly once per query, on state that depends only on the
// (per-exchange) query history, never on sibling groups or worker
// scheduling.
type incSolver struct {
	id     uint64            // unique in its Exchange; tags the plan group wirings made on it
	spec   *encoder          // persistent specialization; its program grows with memoized candidates
	solver *asp.StableSolver // persistent solver over spec.gp

	cands map[string]asp.AtomID // candidate body-structure key -> wired query atom
	// verdicts holds what completed sessions and stored models decided
	// about each wired query atom. It has at most one entry per atom in
	// cands and goes with the solver on poison or eviction.
	verdicts map[asp.AtomID]verdict
	sessions int64 // query sessions served so far

	// models holds up to maxWitnessModels distinct models the acceptor
	// accepted, as bitsets over the base program's atoms (the first
	// baseAtoms), the oldest replaced first at oldest. Like the verdicts
	// they go with the solver on poison or eviction.
	models    [][]uint64
	oldest    int
	baseAtoms int
	// wiredRules[qa-baseAtoms] is the range of spec.gp.Rules heading the
	// wired query atom qa; each body is over base atoms. fact marks an
	// atom wired as a fact (true in every model).
	wiredRules []wiredRules
}

// wiredRules locates one wired query atom's rules in the persistent
// program.
type wiredRules struct {
	from, to int32
	fact     bool
}

// maxWitnessModels bounds the stored models per persistent solver. With
// no bound, a cold pass on the genome-churn shape (BenchmarkColdSuite)
// stored at most two per solver, and a certain then a possible pass on
// the genome-read shape at most three; one model left more sessions than
// two on both, and two to eight left the same (DESIGN.md §17).
const maxWitnessModels = 4

// verdict is the memo entry of one wired query atom: whether it is
// cautious (certain) and whether it is brave (possible), each once a
// completed session or a stored model has decided it.
type verdict uint8

const (
	certainKnown verdict = 1 << iota
	certain
	possibleKnown
	possible
)

// lookup reports whether the atom holds under the requested semantics,
// and whether the memo knows. Besides the recorded verdicts it applies the
// two implications of XR-Certain ⊆ XR-Possible: a certain atom is
// possible, and an impossible atom is not certain.
func (v verdict) lookup(brave bool) (holds, known bool) {
	if brave {
		switch {
		case v&possibleKnown != 0:
			return v&possible != 0, true
		case v&certain != 0:
			return true, true
		}
		return false, false
	}
	switch {
	case v&certainKnown != 0:
		return v&certain != 0, true
	case v&possibleKnown != 0 && v&possible == 0:
		return false, true
	}
	return false, false
}

// with returns v with the atom's status under one semantics decided.
func (v verdict) with(brave, holds bool) verdict {
	known, yes := certainKnown, certain
	if brave {
		known, yes = possibleKnown, possible
	}
	v |= known
	if holds {
		v |= yes
	}
	return v
}

// incSolverLocked returns the signature's persistent solver, building it
// on first use. The caller must hold sp.incMu; the solver is only ever
// touched under that lock.
func (sp *sigProgram) incSolverLocked(ex *Exchange, mt *meters) *incSolver {
	if sp.inc != nil {
		return sp.inc
	}
	spec := sp.enc.specialize()
	sp.inc = &incSolver{
		id:        ex.solverIDs.Add(1),
		spec:      spec,
		solver:    asp.NewStableSolver(spec.gp),
		cands:     make(map[string]asp.AtomID),
		verdicts:  make(map[asp.AtomID]verdict),
		baseAtoms: spec.gp.NumAtoms(),
	}
	mt.recordReuseBuild()
	return sp.inc
}

// poison discards the persistent solver so the next query rebuilds it
// from the immutable base program, without the clauses the old one
// learned or the verdicts it memoized. Called (under incMu) when a panic
// escapes a session and the solver state can no longer be trusted.
func (sp *sigProgram) poison() { sp.inc = nil }

// wireCandidates resolves each group candidate to its query atom, wiring
// unseen body structures into the persistent program and extending the
// solver once for the batch. Candidates without a covered support set are
// dropped (they cannot hold in the sub-world). The wiring is cached on the
// group, tagged with the solver's id: a later ask of the same plan group
// reads it back without computing a candidateKey, and a solver rebuilt
// after a poison or an eviction has a new id, so it wires the group again.
// The caller holds the incMu of the solver's signature program; two asks
// holding different programs of one signature (an eviction in between)
// may wire the same group at once, which the atomic publication and the
// tag check keep apart.
func (inc *incSolver) wireCandidates(g *sigGroup) *groupWiring {
	if w := g.wired.Load(); w != nil && w.solver == inc.id {
		return w
	}
	w := &groupWiring{solver: inc.id}
	grew := false
	for _, c := range g.cands {
		key, any := inc.spec.candidateKey(c)
		if !any {
			continue
		}
		qa, ok := inc.cands[key]
		if !ok {
			gp := inc.spec.gp
			r := wiredRules{from: int32(len(gp.Rules))}
			facts := len(gp.Facts)
			qa, _ = inc.spec.addCandidate(c)
			r.to, r.fact = int32(len(gp.Rules)), len(gp.Facts) > facts
			inc.wiredRules = append(inc.wiredRules, r)
			inc.cands[key] = qa
			grew = true
		}
		w.atoms = append(w.atoms, qa)
		w.live = append(w.live, c)
	}
	if grew {
		inc.solver.Extend()
	}
	distinct := slices.Clone(w.atoms)
	slices.Sort(distinct)
	w.distinct = len(slices.Compact(distinct))
	g.wired.Store(w)
	return w
}

// memoSolve decides a wired group from the verdict memo alone. It reports
// false unless the group wires some atom and every wired atom has a
// verdict under the semantics. The caller holds the signature program's
// incMu, for reading at least.
func (inc *incSolver) memoSolve(w *groupWiring, brave bool) (sigSolve, bool) {
	if len(w.atoms) == 0 {
		return sigSolve{}, false
	}
	var accepted []*candidate
	for i, a := range w.atoms {
		holds, known := inc.verdicts[a].lookup(brave)
		if !known {
			return sigSolve{}, false
		}
		if holds {
			accepted = append(accepted, w.live[i])
		}
	}
	return sigSolve{
		w:        w,
		accepted: accepted,
		memo:     true,
		memoHits: w.distinct,
		hasModel: true,
		reused:   inc.sessions > 0,
		rules:    len(inc.spec.gp.Rules),
		numAtoms: inc.spec.gp.NumAtoms(),
	}, true
}

// storeModel keeps an accepted model's base atoms as a witness, unless an
// equal one is stored; past maxWitnessModels it replaces the oldest.
func (inc *incSolver) storeModel(m []bool) {
	bits := make([]uint64, (inc.baseAtoms+63)/64)
	for a, tv := range m[:inc.baseAtoms] {
		if tv {
			bits[a>>6] |= 1 << (a & 63)
		}
	}
	for _, old := range inc.models {
		if slices.Equal(old, bits) {
			return
		}
	}
	if len(inc.models) < maxWitnessModels {
		inc.models = append(inc.models, bits)
		return
	}
	inc.models[inc.oldest] = bits
	inc.oldest = (inc.oldest + 1) % maxWitnessModels
}

// holdsIn reports whether a wired query atom is true in a stored model:
// whether one of its rule bodies is. Wiring is a stratified extension, so
// the atom's value in any stable model is fixed by its rules over the
// base atoms.
func (inc *incSolver) holdsIn(model []uint64, qa asp.AtomID) bool {
	r := inc.wiredRules[int(qa)-inc.baseAtoms]
	if r.fact {
		return true
	}
rules:
	for _, rule := range inc.spec.gp.Rules[r.from:r.to] {
		for _, b := range rule.Pos {
			if model[b>>6]&(1<<(b&63)) == 0 {
				continue rules
			}
		}
		return true
	}
	return false
}

// decideFromModels records in the verdict memo what the stored models
// show about each pending atom — true in some model: possible; false in
// some model: not certain — and returns the atoms still undecided under
// the semantics, in order, and the number it decided.
func (inc *incSolver) decideFromModels(pending []asp.AtomID, brave bool, holds map[asp.AtomID]bool) (rest []asp.AtomID, decided int) {
	if len(inc.models) == 0 {
		return pending, 0
	}
	rest = pending[:0]
	for _, a := range pending {
		v := inc.verdicts[a]
		for _, m := range inc.models {
			if inc.holdsIn(m, a) {
				v = v.with(true, true)
			} else {
				v = v.with(false, false)
			}
		}
		inc.verdicts[a] = v
		if h, known := v.lookup(brave); known {
			holds[a] = h
			decided++
		} else {
			rest = append(rest, a)
		}
	}
	return rest, decided
}

// candidateKey returns the canonical body-structure key of a candidate:
// its covered support sets, each projected to the sorted base "remains"
// atoms of its variable facts, sorted and joined. Two candidates with the
// same key get identical wiring (the same rules up to order), so their
// query atoms are interchangeable in every stable model. It reports false
// when no support set is covered. Only the frozen base tables are read.
func (e *encoder) candidateKey(c *candidate) (string, bool) {
	parts := make([]string, 0, len(c.supports))
	for _, set := range c.supports {
		if !e.covered(set) {
			continue
		}
		ids := make([]int, 0, len(set))
		for _, b := range set {
			if e.state(b) == factVar {
				ids = append(ids, int(e.r[b]))
			}
		}
		sort.Ints(ids)
		var b strings.Builder
		for i, a := range ids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(a))
		}
		parts = append(parts, b.String())
	}
	if len(parts) == 0 {
		return "", false
	}
	sort.Strings(parts)
	return strings.Join(parts, ";"), true
}
