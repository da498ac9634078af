package xr

import (
	"sync"

	"repro/internal/chase"
)

// sigProgram is one cached signature program: the base grounding of the
// Theorem 4 sub-world restricted to a signature's focus, plus the
// signature's persistent solver. An Exchange keeps one entry per canonical
// signature key, so repeated queries over the same exchange reuse the
// grounding instead of re-encoding it.
//
// Reuse is safe because an Exchange is immutable after NewExchange: the
// provenance, clusters, and safe split never change, so the base program
// of a signature is a pure function of its key. Candidate atoms are wired
// into specializations of the base program — the persistent solver's,
// which grows with every new candidate, and the explain pass's throwaway
// ones — and the shared atom tables are frozen by buildFocused, so
// candidate wiring only reads them.
type sigProgram struct {
	build sync.Once
	enc   *encoder  // frozen base encoder (program without candidates)
	idx   *maxIndex // derivation index for the maximality acceptor

	// incMu guards inc, the signature's persistent incremental solver
	// (see incremental.go). Jobs hold it for writing for the duration of
	// their solve; an in-place decision reads the verdict memo under the
	// read lock. The explain pass never takes it.
	incMu sync.RWMutex
	inc   *incSolver
}

// sigProgramFor returns the cache entry for a canonical signature key,
// reporting whether it already existed (a hit reuses the base grounding
// and the persistent solver with everything it learned so far).
func (ex *Exchange) sigProgramFor(key string) (*sigProgram, bool) {
	ex.progMu.Lock()
	defer ex.progMu.Unlock()
	if sp, ok := ex.progCache[key]; ok {
		return sp, true
	}
	sp := &sigProgram{}
	if ex.progCache == nil {
		ex.progCache = make(map[string]*sigProgram)
	}
	ex.progCache[key] = sp
	return sp, false
}

// cachedSigProgram returns the cache entry for a canonical signature key,
// or nil if there is none; unlike sigProgramFor it never adds one.
func (ex *Exchange) cachedSigProgram(key string) *sigProgram {
	ex.progMu.Lock()
	defer ex.progMu.Unlock()
	return ex.progCache[key]
}

// discardSigProgram evicts a cache entry, but only while sp is still the
// current one (a concurrent eviction may already have replaced it). The
// next sigProgramFor rebuilds the base grounding from the immutable
// exchange, so eviction loses only the persistent solver and what it
// learned — never soundness. Used by the cache-corruption recovery path;
// queries holding the old entry keep using their reference safely.
func (ex *Exchange) discardSigProgram(key string, sp *sigProgram) {
	ex.progMu.Lock()
	if ex.progCache[key] == sp {
		delete(ex.progCache, key)
	}
	ex.progMu.Unlock()
}

// ensure builds the base signature program exactly once per entry: the
// restriction of the Theorem 2 grounding to the signature's focus, with
// safe facts pinned true (Theorem 4).
func (sp *sigProgram) ensure(ex *Exchange, sig []int) {
	sp.build.Do(func() {
		focus := make(map[chase.FactID]bool)
		for _, ci := range sig {
			for f := range ex.Clusters[ci].Influence {
				focus[f] = true
			}
		}
		state := func(f chase.FactID) factState {
			switch {
			case ex.safeDerivable[f]:
				return factTrue
			case focus[f]:
				return factVar
			default:
				return factAbsent
			}
		}
		enc := newEncoder(ex.Prov, state)
		enc.buildFocused(focus)
		sp.enc = enc
		sp.idx = newMaxIndex(enc)
	})
}
