package xr

import (
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
// queries read the verdict instead of searching again.
//
// Concurrency: a signature's persistent solver is single-threaded by
// construction — queries over the same signature serialize on
// sigProgram.incMu for the duration of their solve. Distinct signatures
// still fan out across the worker pool, and answers stay deterministic at
// any parallelism because each signature group is solved exactly once per
// query, on state that depends only on the (per-exchange) query history,
// never on sibling groups or worker scheduling.
type incSolver struct {
	spec   *encoder          // persistent specialization; its program grows with memoized candidates
	solver *asp.StableSolver // persistent solver over spec.gp

	cands map[string]asp.AtomID // candidate body-structure key -> wired query atom
	// verdicts holds what completed sessions decided about each wired
	// query atom. It has at most one entry per atom in cands and goes
	// with the solver on poison or eviction.
	verdicts map[asp.AtomID]verdict
	sessions int64 // query sessions served so far
}

// verdict is the memo entry of one wired query atom: whether it is
// cautious (certain) and whether it is brave (possible), each once a
// completed session has decided it.
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
func (sp *sigProgram) incSolverLocked(mt *meters) *incSolver {
	if sp.inc != nil {
		return sp.inc
	}
	spec := sp.enc.specialize()
	sp.inc = &incSolver{
		spec:     spec,
		solver:   asp.NewStableSolver(spec.gp),
		cands:    make(map[string]asp.AtomID),
		verdicts: make(map[asp.AtomID]verdict),
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
// dropped (they cannot hold in the sub-world).
func (inc *incSolver) wireCandidates(g *sigGroup) (atoms []asp.AtomID, live []*candidate) {
	grew := false
	for _, c := range g.cands {
		key, any := inc.spec.candidateKey(c)
		if !any {
			continue
		}
		qa, ok := inc.cands[key]
		if !ok {
			qa, _ = inc.spec.addCandidate(c)
			inc.cands[key] = qa
			grew = true
		}
		atoms = append(atoms, qa)
		live = append(live, c)
	}
	if grew {
		inc.solver.Extend()
	}
	return atoms, live
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
