// Package logic provides the first-order building blocks shared by schema
// mappings, queries, and the chase: terms, atoms, tuple-generating
// dependencies (tgds), equality-generating dependencies (egds), and unions
// of conjunctive queries (UCQs).
package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/symtab"
)

// Term is either a variable (Var != "") or a constant value.
type Term struct {
	Var string       // variable name; empty for constants
	Val symtab.Value // constant value when Var == ""
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v symtab.Value) Term { return Term{Val: v} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) render(u *symtab.Universe) string {
	if t.IsVar() {
		return t.Var
	}
	if u == nil {
		return fmt.Sprintf("#%d", t.Val)
	}
	return u.Name(t.Val)
}

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Rel   schema.RelID
	Terms []Term
}

// MakeAtom builds an atom, returning a *schema.ArityError (wrapped) when
// the term count does not match the relation's declared arity. Use it when
// the terms come from untrusted input.
func MakeAtom(cat *schema.Catalog, rel *schema.Relation, terms ...Term) (Atom, error) {
	if len(terms) != rel.Arity {
		return Atom{}, fmt.Errorf("logic: %w", &schema.ArityError{Rel: rel.Name, Want: rel.Arity, Got: len(terms)})
	}
	return Atom{Rel: rel.ID, Terms: terms}, nil
}

// String renders the atom.
func (a Atom) String(cat *schema.Catalog, u *symtab.Universe) string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.render(u)
	}
	return fmt.Sprintf("%s(%s)", cat.ByID(a.Rel).Name, strings.Join(parts, ","))
}

// varSet collects the distinct variables of a list of atoms.
func varSet(atoms []Atom) map[string]bool {
	s := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Terms {
			if t.IsVar() {
				s[t.Var] = true
			}
		}
	}
	return s
}

// TGD is a tuple-generating dependency
// ∀x (Body → ∃y Head), where y are the head variables not in the body.
type TGD struct {
	Body []Atom
	Head []Atom
	// Label is an optional name for diagnostics.
	Label string
}

// ExistentialVars returns the head variables that do not occur in the body,
// sorted for determinism.
func (d *TGD) ExistentialVars() []string {
	bodyVars := varSet(d.Body)
	seen := make(map[string]bool)
	var out []string
	for _, a := range d.Head {
		for _, t := range a.Terms {
			if t.IsVar() && !bodyVars[t.Var] && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	sort.Strings(out)
	return out
}

// FrontierVars returns the body variables that occur in the head, sorted.
func (d *TGD) FrontierVars() []string {
	bodyVars := varSet(d.Body)
	headVars := varSet(d.Head)
	var out []string
	for v := range headVars {
		if bodyVars[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// IsGAV reports whether the tgd is a GAV constraint: a single head atom and
// no existential variables.
func (d *TGD) IsGAV() bool {
	return len(d.Head) == 1 && len(d.ExistentialVars()) == 0
}

// Validate checks structural sanity: nonempty body and head, and all head
// atoms' constant-free positions fine (nothing else to check structurally).
func (d *TGD) Validate() error {
	if len(d.Body) == 0 {
		return fmt.Errorf("tgd %s: empty body", d.Label)
	}
	if len(d.Head) == 0 {
		return fmt.Errorf("tgd %s: empty head", d.Label)
	}
	return nil
}

// String renders the tgd as "body -> head".
func (d *TGD) String(cat *schema.Catalog, u *symtab.Universe) string {
	return atomsString(d.Body, cat, u) + " -> " + atomsString(d.Head, cat, u)
}

// EGD is an equality-generating dependency ∀x (Body → L = R).
// L and R are usually variables of the body; grounded egds (Section 6 of the
// paper) may carry constants.
type EGD struct {
	Body  []Atom
	L, R  Term
	Label string
}

// Validate checks that variable sides occur in the body.
func (d *EGD) Validate() error {
	if len(d.Body) == 0 {
		return fmt.Errorf("egd %s: empty body", d.Label)
	}
	vars := varSet(d.Body)
	for _, t := range []Term{d.L, d.R} {
		if t.IsVar() && !vars[t.Var] {
			return fmt.Errorf("egd %s: equality variable %s not in body", d.Label, t.Var)
		}
	}
	return nil
}

// String renders the egd as "body -> l = r".
func (d *EGD) String(cat *schema.Catalog, u *symtab.Universe) string {
	return fmt.Sprintf("%s -> %s = %s", atomsString(d.Body, cat, u), d.L.render(u), d.R.render(u))
}

func atomsString(atoms []Atom, cat *schema.Catalog, u *symtab.Universe) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String(cat, u)
	}
	return strings.Join(parts, " & ")
}

// CQ is a conjunctive query head(t) :- body.
type CQ struct {
	Head []Term // answer tuple: variables or constants
	Body []Atom
}

// Validate checks that every head variable occurs in the body (safety).
func (q *CQ) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: empty body")
	}
	vars := varSet(q.Body)
	for _, t := range q.Head {
		if t.IsVar() && !vars[t.Var] {
			return fmt.Errorf("cq: head variable %s not in body", t.Var)
		}
	}
	return nil
}

// UCQ is a union of conjunctive queries with a shared name and arity.
type UCQ struct {
	Name    string
	Arity   int
	Clauses []CQ
}

// Validate checks all clauses share the arity and are safe.
func (q *UCQ) Validate() error {
	if len(q.Clauses) == 0 {
		return fmt.Errorf("ucq %s: no clauses", q.Name)
	}
	for i := range q.Clauses {
		c := &q.Clauses[i]
		if len(c.Head) != q.Arity {
			return fmt.Errorf("ucq %s: clause %d has arity %d, want %d", q.Name, i, len(c.Head), q.Arity)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("ucq %s clause %d: %w", q.Name, i, err)
		}
	}
	return nil
}

// String renders the UCQ in Datalog style, one clause per line.
func (q *UCQ) String(cat *schema.Catalog, u *symtab.Universe) string {
	var lines []string
	for i := range q.Clauses {
		c := &q.Clauses[i]
		heads := make([]string, len(c.Head))
		for j, t := range c.Head {
			heads[j] = t.render(u)
		}
		bodies := make([]string, len(c.Body))
		for j, a := range c.Body {
			bodies[j] = a.String(cat, u)
		}
		lines = append(lines, fmt.Sprintf("%s(%s) :- %s", q.Name, strings.Join(heads, ","), strings.Join(bodies, ", ")))
	}
	return strings.Join(lines, "\n")
}
