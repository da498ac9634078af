// Package mapping defines schema mappings M = (S, T, Σst, Σt) as in the
// paper: a source schema, a target schema, a set of source-to-target tgds,
// and a set of target tgds and egds.
package mapping

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// Mapping is a schema mapping M = (S, T, Σst, Σt).
// The catalog and universe are shared with instances over the mapping.
type Mapping struct {
	Cat    *schema.Catalog
	U      *symtab.Universe
	Source *schema.Schema
	Target *schema.Schema

	ST    []*logic.TGD // source-to-target tgds
	TTgds []*logic.TGD // target tgds
	TEgds []*logic.EGD // target egds
}

// New returns an empty mapping over fresh source/target schemas.
func New(cat *schema.Catalog, u *symtab.Universe) *Mapping {
	return &Mapping{
		Cat:    cat,
		U:      u,
		Source: schema.NewSchema(),
		Target: schema.NewSchema(),
	}
}

// Validate checks that the mapping is well-formed: schemas are disjoint,
// s-t tgds go from source to target, target dependencies stay in the target,
// and every dependency is structurally valid.
func (m *Mapping) Validate() error {
	if !m.Source.Disjoint(m.Target) {
		return fmt.Errorf("mapping: source and target schemas overlap")
	}
	for _, d := range m.ST {
		if err := d.Validate(); err != nil {
			return err
		}
		for _, a := range d.Body {
			if !m.Source.Contains(a.Rel) {
				return fmt.Errorf("mapping: s-t tgd %s has non-source body atom %s", d.Label, m.Cat.ByID(a.Rel).Name)
			}
		}
		for _, a := range d.Head {
			if !m.Target.Contains(a.Rel) {
				return fmt.Errorf("mapping: s-t tgd %s has non-target head atom %s", d.Label, m.Cat.ByID(a.Rel).Name)
			}
		}
	}
	for _, d := range m.TTgds {
		if err := d.Validate(); err != nil {
			return err
		}
		for _, a := range append(append([]logic.Atom{}, d.Body...), d.Head...) {
			if !m.Target.Contains(a.Rel) {
				return fmt.Errorf("mapping: target tgd %s mentions non-target relation %s", d.Label, m.Cat.ByID(a.Rel).Name)
			}
		}
	}
	for _, d := range m.TEgds {
		if err := d.Validate(); err != nil {
			return err
		}
		for _, a := range d.Body {
			if !m.Target.Contains(a.Rel) {
				return fmt.Errorf("mapping: target egd %s mentions non-target relation %s", d.Label, m.Cat.ByID(a.Rel).Name)
			}
		}
	}
	return nil
}

// IsGAV reports whether the mapping is gav+(gav, egd): all s-t tgds and all
// target tgds are GAV constraints.
func (m *Mapping) IsGAV() bool {
	for _, d := range m.ST {
		if !d.IsGAV() {
			return false
		}
	}
	for _, d := range m.TTgds {
		if !d.IsGAV() {
			return false
		}
	}
	return true
}

// IsWeaklyAcyclic reports whether the set of target tgds is weakly acyclic.
func (m *Mapping) IsWeaklyAcyclic() bool {
	return logic.WeaklyAcyclic(m.TTgds)
}

// AllTgds returns Σst ∪ Σt-tgds (s-t tgds first).
func (m *Mapping) AllTgds() []*logic.TGD {
	out := make([]*logic.TGD, 0, len(m.ST)+len(m.TTgds))
	out = append(out, m.ST...)
	out = append(out, m.TTgds...)
	return out
}

// Stats summarizes the mapping size (used by the reduction-blowup experiment).
type Stats struct {
	STTgds, TargetTgds, TargetEgds int
}

// Stats returns dependency counts.
func (m *Mapping) Stats() Stats {
	return Stats{STTgds: len(m.ST), TargetTgds: len(m.TTgds), TargetEgds: len(m.TEgds)}
}

func (s Stats) String() string {
	return fmt.Sprintf("%d s-t tgds, %d target tgds, %d egds", s.STTgds, s.TargetTgds, s.TargetEgds)
}
