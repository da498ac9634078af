package asp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// AtomID identifies a ground atom within a GroundProgram, numbered from 0.
type AtomID int32

// GroundRule is a ground disjunctive rule
//
//	Head[0] ∨ ... ∨ Head[n] ← Pos[0], ..., Pos[m], ¬Neg[0], ..., ¬Neg[k].
//
// An empty head denotes an integrity constraint.
type GroundRule struct {
	Head []AtomID
	Pos  []AtomID
	Neg  []AtomID
}

// GroundProgram is a ground disjunctive logic program.
//
// Its rules live in one flat arena: their atoms back to back (head,
// positive body, negative body) plus three offsets per rule, so a rule
// costs its atoms and 12 bytes. Anonymous atoms are a count; only atoms a
// caller names carry a name.
//
// A program can be frozen (Freeze) and then continued by any number of
// tails (Tail): each tail reads the frozen program as its prefix and
// numbers its own atoms, rules and facts after it, the way one program
// grows. A frozen program is never written again — any write panics — and
// has no lazily filled field, so tails on different goroutines share it
// without a lock.
type GroundProgram struct {
	base      *GroundProgram // frozen prefix (nil: none)
	baseAtoms int            // base's atoms, rules and facts
	baseRules int
	baseFacts int
	frozen    bool

	atoms int               // atoms, the base's included
	names []string          // by own atom (id - baseAtoms); may stop before the last atoms
	ids   map[string]AtomID // own named atoms
	lits  []AtomID          // own rules' atoms back to back
	rules []ruleBounds      // by own rule
	facts []AtomID          // own atoms asserted true unconditionally
}

// ruleBounds locates one rule in lits: its head starts where the previous
// rule ends (at 0 for the first), its positive body at pos, its negative
// body at neg, and it ends at end.
type ruleBounds struct{ pos, neg, end int32 }

// NewGroundProgram returns an empty program.
func NewGroundProgram() *GroundProgram { return &GroundProgram{} }

// Freeze makes the program read-only and trims its arrays to their
// length. It may then serve as the base of tails (Tail).
func (p *GroundProgram) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.names = slices.Clone(p.names)
	p.lits = slices.Clone(p.lits)
	p.rules = slices.Clone(p.rules)
	p.facts = slices.Clone(p.facts)
}

// Tail returns an empty program continuing p, which must be frozen: the
// tail reads p's atoms, rules and facts as its own first ones and adds
// its own after them.
func (p *GroundProgram) Tail() *GroundProgram {
	if !p.frozen {
		panic("asp: Tail of a program that is not frozen")
	}
	return &GroundProgram{base: p, baseAtoms: p.atoms, baseRules: p.NumRules(), baseFacts: p.NumFacts(), atoms: p.atoms}
}

// write panics on a frozen program; every mutator calls it first.
func (p *GroundProgram) write() {
	if p.frozen {
		panic("asp: write to a frozen program")
	}
}

// Atom interns a named atom and returns its id.
func (p *GroundProgram) Atom(name string) AtomID {
	if id, ok := p.LookupAtom(name); ok {
		return id
	}
	p.write()
	id := AtomID(p.atoms)
	p.atoms++
	for len(p.names) < int(id)-p.baseAtoms {
		p.names = append(p.names, "")
	}
	p.names = append(p.names, name)
	if p.ids == nil {
		p.ids = make(map[string]AtomID)
	}
	p.ids[name] = id
	return id
}

// AnonAtom allocates an unnamed atom (used by generated encodings where
// names are bookkept externally).
func (p *GroundProgram) AnonAtom() AtomID {
	p.write()
	p.atoms++
	return AtomID(p.atoms - 1)
}

// Name returns the display name of an atom ("_aN" for anonymous atoms).
func (p *GroundProgram) Name(id AtomID) string {
	if int(id) < p.baseAtoms {
		return p.base.Name(id)
	}
	if i := int(id) - p.baseAtoms; i < len(p.names) && p.names[i] != "" {
		return p.names[i]
	}
	return fmt.Sprintf("_a%d", id)
}

// LookupAtom returns the id of a named atom, if interned.
func (p *GroundProgram) LookupAtom(name string) (AtomID, bool) {
	if id, ok := p.ids[name]; ok {
		return id, true
	}
	if p.base != nil {
		return p.base.LookupAtom(name)
	}
	return 0, false
}

// NumAtoms returns the number of atoms.
func (p *GroundProgram) NumAtoms() int { return p.atoms }

// NumRules returns the number of rules, constraints included.
func (p *GroundProgram) NumRules() int { return p.baseRules + len(p.rules) }

// Rule returns rule i. Its slices view the program's arena: they stay
// valid, and must not be written.
func (p *GroundProgram) Rule(i int) GroundRule {
	if i < p.baseRules {
		return p.base.Rule(i)
	}
	i -= p.baseRules
	start := int32(0)
	if i > 0 {
		start = p.rules[i-1].end
	}
	b := p.rules[i]
	return GroundRule{
		Head: p.lits[start:b.pos:b.pos],
		Pos:  p.lits[b.pos:b.neg:b.neg],
		Neg:  p.lits[b.neg:b.end:b.end],
	}
}

// NumFacts returns the number of facts.
func (p *GroundProgram) NumFacts() int { return p.baseFacts + len(p.facts) }

// Fact returns the atom of fact i.
func (p *GroundProgram) Fact(i int) AtomID {
	if i < p.baseFacts {
		return p.base.Fact(i)
	}
	return p.facts[i-p.baseFacts]
}

// AddRule appends a rule, copying its atoms: the caller may reuse the
// slices.
func (p *GroundProgram) AddRule(head, pos, neg []AtomID) {
	p.write()
	p.lits = append(p.lits, head...)
	b := ruleBounds{pos: int32(len(p.lits))}
	p.lits = append(p.lits, pos...)
	b.neg = int32(len(p.lits))
	p.lits = append(p.lits, neg...)
	b.end = int32(len(p.lits))
	p.rules = append(p.rules, b)
}

// AddFact asserts an atom true.
func (p *GroundProgram) AddFact(a AtomID) {
	p.write()
	p.facts = append(p.facts, a)
}

// AddConstraint appends an integrity constraint ⊥ ← pos, ¬neg.
func (p *GroundProgram) AddConstraint(pos, neg []AtomID) { p.AddRule(nil, pos, neg) }

// String renders the program in clingo-compatible syntax (one rule per
// line, sorted for stable output).
func (p *GroundProgram) String() string {
	var lines []string
	for i := range p.NumFacts() {
		lines = append(lines, p.Name(p.Fact(i))+".")
	}
	for i := range p.NumRules() {
		lines = append(lines, p.renderRule(p.Rule(i)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func (p *GroundProgram) renderRule(r GroundRule) string {
	var b strings.Builder
	for i, h := range r.Head {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(p.Name(h))
	}
	if len(r.Pos)+len(r.Neg) > 0 {
		b.WriteString(" :- ")
		first := true
		for _, a := range r.Pos {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(p.Name(a))
		}
		for _, a := range r.Neg {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString("not " + p.Name(a))
		}
	}
	b.WriteString(".")
	return b.String()
}

// Stats summarizes program size.
func (p *GroundProgram) Stats() string {
	disj := 0
	for i := range p.NumRules() {
		if len(p.Rule(i).Head) > 1 {
			disj++
		}
	}
	return fmt.Sprintf("%d atoms, %d rules (%d disjunctive), %d facts",
		p.NumAtoms(), p.NumRules(), disj, p.NumFacts())
}
