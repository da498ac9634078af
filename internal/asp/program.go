package asp

import (
	"fmt"
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
type GroundProgram struct {
	names []string
	ids   map[string]AtomID
	Rules []GroundRule
	Facts []AtomID // atoms asserted true unconditionally
}

// NewGroundProgram returns an empty program.
func NewGroundProgram() *GroundProgram {
	return &GroundProgram{ids: make(map[string]AtomID)}
}

// Atom interns a named atom and returns its id.
func (p *GroundProgram) Atom(name string) AtomID {
	if id, ok := p.ids[name]; ok {
		return id
	}
	id := AtomID(len(p.names))
	p.names = append(p.names, name)
	p.ids[name] = id
	return id
}

// AnonAtom allocates an unnamed atom (used by generated encodings where
// names are bookkept externally).
func (p *GroundProgram) AnonAtom() AtomID {
	id := AtomID(len(p.names))
	p.names = append(p.names, "")
	return id
}

// Name returns the display name of an atom ("_aN" for anonymous atoms).
func (p *GroundProgram) Name(id AtomID) string {
	if n := p.names[id]; n != "" {
		return n
	}
	return fmt.Sprintf("_a%d", id)
}

// LookupAtom returns the id of a named atom, if interned.
func (p *GroundProgram) LookupAtom(name string) (AtomID, bool) {
	id, ok := p.ids[name]
	return id, ok
}

// NumAtoms returns the number of atoms.
func (p *GroundProgram) NumAtoms() int { return len(p.names) }

// Clone returns an independent copy of the program: rules, facts, and atom
// tables are copied, so atoms and rules added to the clone never touch the
// original. The per-rule Head/Pos/Neg slices are shared — they are
// immutable once added. Cloning an already-grounded base and extending the
// copy is how a cached signature program is specialized: once for its
// persistent solver, which then grows with every new candidate, and once
// per group an explain pass solves.
func (p *GroundProgram) Clone() *GroundProgram {
	q := &GroundProgram{
		names: append(make([]string, 0, len(p.names)+8), p.names...),
		ids:   make(map[string]AtomID, len(p.ids)),
		Rules: append(make([]GroundRule, 0, len(p.Rules)+8), p.Rules...),
		Facts: append(make([]AtomID, 0, len(p.Facts)+4), p.Facts...),
	}
	for k, v := range p.ids {
		q.ids[k] = v
	}
	return q
}

// AddRule appends a rule.
func (p *GroundProgram) AddRule(head, pos, neg []AtomID) {
	p.Rules = append(p.Rules, GroundRule{Head: head, Pos: pos, Neg: neg})
}

// AddFact asserts an atom true.
func (p *GroundProgram) AddFact(a AtomID) { p.Facts = append(p.Facts, a) }

// AddConstraint appends an integrity constraint ⊥ ← pos, ¬neg.
func (p *GroundProgram) AddConstraint(pos, neg []AtomID) {
	p.Rules = append(p.Rules, GroundRule{Pos: pos, Neg: neg})
}

// String renders the program in clingo-compatible syntax (one rule per
// line, sorted for stable output).
func (p *GroundProgram) String() string {
	var lines []string
	for _, f := range p.Facts {
		lines = append(lines, p.Name(f)+".")
	}
	for _, r := range p.Rules {
		lines = append(lines, p.renderRule(r))
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
	for _, r := range p.Rules {
		if len(r.Head) > 1 {
			disj++
		}
	}
	return fmt.Sprintf("%d atoms, %d rules (%d disjunctive), %d facts",
		p.NumAtoms(), len(p.Rules), disj, len(p.Facts))
}
