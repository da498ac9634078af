// Package testkit generates random weakly-acyclic schema mappings, source
// instances, and conjunctive queries for cross-validation property tests
// (native chase vs. reduction, brute force vs. solver pipelines).
package testkit

import (
	"fmt"
	"math/rand"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// Options controls random mapping generation.
type Options struct {
	SourceRels   int // number of source relations (default 3)
	TargetRels   int // number of target relations (default 3)
	MaxArity     int // maximum relation arity (default 2)
	STTgds       int // number of s-t tgds (default 3)
	TargetTgds   int // number of target tgds (default 1)
	Egds         int // number of target egds (default 2)
	Existentials bool
}

func (o *Options) fill() {
	if o.SourceRels == 0 {
		o.SourceRels = 3
	}
	if o.TargetRels == 0 {
		o.TargetRels = 3
	}
	if o.MaxArity == 0 {
		o.MaxArity = 2
	}
	if o.STTgds == 0 {
		o.STTgds = 3
	}
	if o.Egds == 0 {
		o.Egds = 2
	}
}

// World bundles a generated mapping with its catalog and universe.
type World struct {
	Cat *schema.Catalog
	U   *symtab.Universe
	M   *mapping.Mapping
}

// RandomMapping generates a valid, weakly acyclic glav+(wa-glav, egd)
// mapping. Generation retries until weak acyclicity holds.
func RandomMapping(rng *rand.Rand, opts Options) *World {
	opts.fill()
	for {
		w := tryMapping(rng, opts)
		if w.M.IsWeaklyAcyclic() {
			if err := w.M.Validate(); err != nil {
				panic(err)
			}
			return w
		}
	}
}

func tryMapping(rng *rand.Rand, opts Options) *World {
	cat := schema.NewCatalog()
	u := symtab.NewUniverse()
	m := mapping.New(cat, u)

	var srcRels, tgtRels []*schema.Relation
	for i := 0; i < opts.SourceRels; i++ {
		r := cat.MustAdd(fmt.Sprintf("S%d", i), 1+rng.Intn(opts.MaxArity))
		m.Source.Add(r)
		srcRels = append(srcRels, r)
	}
	for i := 0; i < opts.TargetRels; i++ {
		r := cat.MustAdd(fmt.Sprintf("T%d", i), 1+rng.Intn(opts.MaxArity))
		m.Target.Add(r)
		tgtRels = append(tgtRels, r)
	}

	vars := []string{"x", "y", "z", "w"}
	randAtom := func(rels []*schema.Relation, pool []string) logic.Atom {
		r := rels[rng.Intn(len(rels))]
		terms := make([]logic.Term, r.Arity)
		for i := range terms {
			terms[i] = logic.V(pool[rng.Intn(len(pool))])
		}
		return logic.Atom{Rel: r.ID, Terms: terms}
	}
	// collectVars gathers the variables of atoms.
	collectVars := func(atoms []logic.Atom) []string {
		seen := map[string]bool{}
		var out []string
		for _, a := range atoms {
			for _, t := range a.Terms {
				if t.IsVar() && !seen[t.Var] {
					seen[t.Var] = true
					out = append(out, t.Var)
				}
			}
		}
		return out
	}

	for i := 0; i < opts.STTgds; i++ {
		nb := 1 + rng.Intn(2)
		body := make([]logic.Atom, nb)
		for j := range body {
			body[j] = randAtom(srcRels, vars)
		}
		bodyVars := collectVars(body)
		headPool := bodyVars
		if opts.Existentials && rng.Intn(2) == 0 {
			headPool = append(append([]string{}, bodyVars...), "e1")
		}
		head := []logic.Atom{randAtom(tgtRels, headPool)}
		m.ST = append(m.ST, &logic.TGD{Body: body, Head: head, Label: fmt.Sprintf("st%d", i)})
	}
	for i := 0; i < opts.TargetTgds; i++ {
		nb := 1 + rng.Intn(2)
		body := make([]logic.Atom, nb)
		for j := range body {
			body[j] = randAtom(tgtRels, vars)
		}
		bodyVars := collectVars(body)
		headPool := bodyVars
		if opts.Existentials && rng.Intn(3) == 0 {
			headPool = append(append([]string{}, bodyVars...), "e2")
		}
		head := []logic.Atom{randAtom(tgtRels, headPool)}
		m.TTgds = append(m.TTgds, &logic.TGD{Body: body, Head: head, Label: fmt.Sprintf("tt%d", i)})
	}
	for i := 0; i < opts.Egds; i++ {
		nb := 1 + rng.Intn(2)
		body := make([]logic.Atom, nb)
		for j := range body {
			body[j] = randAtom(tgtRels, vars)
		}
		bodyVars := collectVars(body)
		if len(bodyVars) < 2 {
			// Force a second variable by re-rolling a binary atom.
			i--
			continue
		}
		l := bodyVars[rng.Intn(len(bodyVars))]
		r := bodyVars[rng.Intn(len(bodyVars))]
		if l == r {
			i--
			continue
		}
		m.TEgds = append(m.TEgds, &logic.EGD{Body: body, L: logic.V(l), R: logic.V(r), Label: fmt.Sprintf("egd%d", i)})
	}
	return &World{Cat: cat, U: u, M: m}
}

// RandomInstance populates nFacts random source facts over a domain of
// domainSize constants.
func RandomInstance(rng *rand.Rand, w *World, nFacts, domainSize int) *instance.Instance {
	in := instance.New(w.Cat)
	dom := make([]symtab.Value, domainSize)
	for i := range dom {
		dom[i] = w.U.Const(fmt.Sprintf("c%d", i))
	}
	ids := w.M.Source.IDs()
	for i := 0; i < nFacts; i++ {
		rel := w.Cat.ByID(ids[rng.Intn(len(ids))])
		args := make([]symtab.Value, rel.Arity)
		for j := range args {
			args[j] = dom[rng.Intn(len(dom))]
		}
		in.Add(rel.ID, args)
	}
	return in
}

// RandomQuery generates a safe CQ over the target schema with up to two
// body atoms and up to two answer variables.
func RandomQuery(rng *rand.Rand, w *World, name string) *logic.UCQ {
	vars := []string{"x", "y", "z"}
	ids := w.M.Target.IDs()
	nb := 1 + rng.Intn(2)
	body := make([]logic.Atom, nb)
	for j := range body {
		rel := w.Cat.ByID(ids[rng.Intn(len(ids))])
		terms := make([]logic.Term, rel.Arity)
		for i := range terms {
			terms[i] = logic.V(vars[rng.Intn(len(vars))])
		}
		body[j] = logic.Atom{Rel: rel.ID, Terms: terms}
	}
	seen := map[string]bool{}
	var bodyVars []string
	for _, a := range body {
		for _, t := range a.Terms {
			if !seen[t.Var] {
				seen[t.Var] = true
				bodyVars = append(bodyVars, t.Var)
			}
		}
	}
	nh := rng.Intn(min(2, len(bodyVars)) + 1)
	head := make([]logic.Term, nh)
	for i := range head {
		head[i] = logic.V(bodyVars[rng.Intn(len(bodyVars))])
	}
	return &logic.UCQ{Name: name, Arity: nh, Clauses: []logic.CQ{{Head: head, Body: body}}}
}
