// Package gavreduce implements Theorem 1 of the paper: every
// glav+(wa-glav, egd) schema mapping M and UCQ q can be compiled into a
// gav+(gav, egd) schema mapping M̂ and UCQ q̂ with
// XR-Certain(q, I, M) = XR-Certain(q̂, I, M̂) for all source instances I.
//
// The construction skolemizes existential variables, expands every target
// relation position into finitely many term *shapes* (finite by weak
// acyclicity), and replaces the chase's value merging by explicit equality
// relations EQ[s1|s2] between shaped terms, closed under symmetry,
// transitivity and (for skolem shapes) reflexivity. Dependency bodies and
// queries are rewritten to join through EQ wherever a labeled null could
// flow; the only remaining egd is the master egd
//
//	EQ[const|const](x, y) → x = y,
//
// which is violated exactly when the original chase would be forced to
// equate two distinct constants.
package gavreduce

import (
	"fmt"
	"strings"
)

// skolemSym identifies one skolem function: one existential variable of one
// (skolemized) dependency.
type skolemSym struct {
	id       int
	name     string   // display name, e.g. sk3_z
	frontier []string // ordered universal head variables it depends on
}

// Shape describes the term structure of one target position: either the
// constant shape or a skolem application whose children are shapes.
type Shape struct {
	id       int
	sk       *skolemSym // nil for the constant shape
	children []*Shape
	width    int    // number of flat constant columns
	name     string // canonical name, used for interning
}

// IsConst reports whether this is the constant shape.
func (s *Shape) IsConst() bool { return s.sk == nil }

// Name returns the canonical shape name.
func (s *Shape) Name() string { return s.name }

// shapeTable interns shapes by canonical name.
type shapeTable struct {
	byName map[string]*Shape
	all    []*Shape
	konst  *Shape
}

func newShapeTable() *shapeTable {
	t := &shapeTable{byName: make(map[string]*Shape)}
	t.konst = t.intern(nil, nil)
	return t
}

func (t *shapeTable) intern(sk *skolemSym, children []*Shape) *Shape {
	name := shapeName(sk, children)
	if s, ok := t.byName[name]; ok {
		return s
	}
	width := 1
	if sk != nil {
		width = 0
		for _, c := range children {
			width += c.width
		}
	}
	s := &Shape{id: len(t.all), sk: sk, children: children, width: width, name: name}
	t.byName[name] = s
	t.all = append(t.all, s)
	return s
}

func shapeName(sk *skolemSym, children []*Shape) string {
	if sk == nil {
		return "c"
	}
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = c.name
	}
	return fmt.Sprintf("%s[%s]", sk.name, strings.Join(parts, ","))
}

// shapeVec is a shape assignment to every position of a relation.
type shapeVec []*Shape

func (v shapeVec) key() string {
	parts := make([]string, len(v))
	for i, s := range v {
		parts[i] = s.name
	}
	return strings.Join(parts, "|")
}

func (v shapeVec) width() int {
	w := 0
	for _, s := range v {
		w += s.width
	}
	return w
}

// allConst reports whether every position has the constant shape.
func (v shapeVec) allConst() bool {
	for _, s := range v {
		if !s.IsConst() {
			return false
		}
	}
	return true
}
