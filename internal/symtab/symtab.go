// Package symtab provides the value universe shared by all instances:
// interned constants and labeled nulls, encoded as compact integer values.
//
// The paper fixes an infinite set Const of constants and a disjoint infinite
// set Nulls of labeled nulls. We represent both as Value, a signed 32-bit
// handle: positive handles are constants interned in a Universe, negative
// handles are labeled nulls. Value 0 is the invalid zero value.
package symtab

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a compact handle for a constant or a labeled null.
// Positive values are constants (indexes into a Universe), negative values
// are labeled nulls, and zero is invalid.
type Value int32

// None is the invalid zero Value.
const None Value = 0

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v > 0 }

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v < 0 }

// NullID returns the identifier of a labeled null (1-based).
// It panics if v is not a null.
func (v Value) NullID() int {
	if !v.IsNull() {
		panic(fmt.Sprintf("symtab: NullID on non-null value %d", v))
	}
	return int(-v)
}

// Null returns the labeled null with the given 1-based identifier.
func Null(id int) Value {
	if id <= 0 {
		panic(fmt.Sprintf("symtab: null id must be positive, got %d", id))
	}
	return Value(-id)
}

// Universe interns constant names and resolves Values back to names.
// The zero value is not usable; call NewUniverse.
//
// A Universe is not safe for concurrent mutation; concurrent reads are safe
// once all constants are interned.
type Universe struct {
	names []string         // names[i] is the name of constant Value(i+1)
	ids   map[string]Value // name -> constant value
	nulls int32            // number of nulls handed out by FreshNull
}

// NewUniverse returns an empty Universe.
func NewUniverse() *Universe {
	return &Universe{ids: make(map[string]Value)}
}

// Const interns name and returns its constant Value. A new name is stored
// as a copy, so interning a substring of a request body does not keep the
// body alive.
func (u *Universe) Const(name string) Value {
	if v, ok := u.ids[name]; ok {
		return v
	}
	name = strings.Clone(name)
	u.names = append(u.names, name)
	v := Value(len(u.names))
	u.ids[name] = v
	return v
}

// Lookup returns the constant Value for name, or (None, false) if name has
// never been interned.
func (u *Universe) Lookup(name string) (Value, bool) {
	v, ok := u.ids[name]
	return v, ok
}

// FreshNull returns a labeled null never returned before by this Universe.
func (u *Universe) FreshNull() Value {
	u.nulls++
	return Value(-u.nulls)
}

// Name renders v for display: the interned name for constants, "_Nk" for
// labeled nulls.
func (u *Universe) Name(v Value) string {
	switch {
	case v.IsConst():
		i := int(v) - 1
		if i >= len(u.names) {
			return "#" + strconv.Itoa(int(v))
		}
		return u.names[i]
	case v.IsNull():
		return "_N" + strconv.Itoa(v.NullID())
	default:
		return "<none>"
	}
}

// Names renders a tuple of values.
func (u *Universe) Names(vs []Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = u.Name(v)
	}
	return out
}
