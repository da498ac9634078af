package mapping

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// newAtom builds an atom for static test setup, panicking on an arity
// mismatch.
func newAtom(cat *schema.Catalog, rel *schema.Relation, terms ...logic.Term) logic.Atom {
	a, err := logic.MakeAtom(cat, rel, terms...)
	if err != nil {
		panic(err)
	}
	return a
}

// WithoutEgds returns M^tgd, the mapping with all egds dropped (Def. 2).
// The returned mapping shares catalog, universe, schemas and tgd slices.
func (m *Mapping) WithoutEgds() *Mapping {
	return &Mapping{
		Cat: m.Cat, U: m.U,
		Source: m.Source, Target: m.Target,
		ST: m.ST, TTgds: m.TTgds,
	}
}

func fixture() (*schema.Catalog, *symtab.Universe, *Mapping, *schema.Relation, *schema.Relation) {
	cat := schema.NewCatalog()
	u := symtab.NewUniverse()
	m := New(cat, u)
	r := cat.MustAdd("R", 2)
	s := cat.MustAdd("S", 2)
	m.Source.Add(r)
	m.Target.Add(s)
	return cat, u, m, r, s
}

func TestValidateGood(t *testing.T) {
	cat, _, m, r, s := fixture()
	m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
	}}
	m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{
			newAtom(cat, s, logic.V("x"), logic.V("y")),
			newAtom(cat, s, logic.V("x"), logic.V("z")),
		},
		L: logic.V("y"), R: logic.V("z"),
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsGAV() || !m.IsWeaklyAcyclic() {
		t.Fatal("classification wrong")
	}
}

func TestValidateSchemaOverlap(t *testing.T) {
	cat, u, _, _, _ := fixture()
	m2 := New(cat, u)
	r, _ := cat.ByName("R")
	m2.Source.Add(r)
	m2.Target.Add(r)
	if m2.Validate() == nil {
		t.Fatal("overlapping schemas accepted")
	}
}

func TestValidateWrongSides(t *testing.T) {
	cat, _, m, r, s := fixture()
	// s-t tgd with target body atom.
	m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
	}}
	if m.Validate() == nil {
		t.Fatal("target body in s-t tgd accepted")
	}
	m.ST = nil
	// target tgd mentioning source.
	m.TTgds = []*logic.TGD{{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
	}}
	if m.Validate() == nil {
		t.Fatal("source atom in target tgd accepted")
	}
	m.TTgds = nil
	// egd over source.
	m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		L:    logic.V("x"), R: logic.V("y"),
	}}
	if m.Validate() == nil {
		t.Fatal("source egd accepted")
	}
}

func TestWithoutEgds(t *testing.T) {
	cat, _, m, r, s := fixture()
	m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
	}}
	m.TEgds = []*logic.EGD{{
		Body: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
		L:    logic.V("x"), R: logic.V("y"),
	}}
	mt := m.WithoutEgds()
	if len(mt.TEgds) != 0 || len(mt.ST) != 1 {
		t.Fatal("WithoutEgds wrong")
	}
	if len(m.TEgds) != 1 {
		t.Fatal("WithoutEgds mutated the original")
	}
}

func TestStatsAndAllTgds(t *testing.T) {
	cat, _, m, r, s := fixture()
	st := &logic.TGD{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
	}
	tt := &logic.TGD{
		Body: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("y"), logic.V("x"))},
	}
	m.ST = []*logic.TGD{st}
	m.TTgds = []*logic.TGD{tt}
	all := m.AllTgds()
	if len(all) != 2 || all[0] != st || all[1] != tt {
		t.Fatal("AllTgds wrong")
	}
	if got := m.Stats().String(); got != "1 s-t tgds, 1 target tgds, 0 egds" {
		t.Fatalf("stats = %q", got)
	}
}

func TestIsGAVNegative(t *testing.T) {
	cat, _, m, r, s := fixture()
	m.ST = []*logic.TGD{{
		Body: []logic.Atom{newAtom(cat, r, logic.V("x"), logic.V("y"))},
		Head: []logic.Atom{newAtom(cat, s, logic.V("x"), logic.V("z"))},
	}}
	if m.IsGAV() {
		t.Fatal("existential tgd classified GAV")
	}
}
