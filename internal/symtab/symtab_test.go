package symtab

import (
	"testing"
	"testing/quick"
)

// NumNulls returns how many nulls FreshNull has handed out.
func (u *Universe) NumNulls() int { return int(u.nulls) }

// NumConsts returns how many constants have been interned.
func (u *Universe) NumConsts() int { return len(u.names) }

func TestConstInterning(t *testing.T) {
	u := NewUniverse()
	a := u.Const("a")
	b := u.Const("b")
	if a == b {
		t.Fatalf("distinct names interned to same value: %d", a)
	}
	if got := u.Const("a"); got != a {
		t.Fatalf("re-interning a: got %d want %d", got, a)
	}
	if !a.IsConst() || a.IsNull() {
		t.Fatalf("constant kind flags wrong: %v", a)
	}
	if u.NumConsts() != 2 {
		t.Fatalf("NumConsts = %d, want 2", u.NumConsts())
	}
}

func TestLookup(t *testing.T) {
	u := NewUniverse()
	if _, ok := u.Lookup("missing"); ok {
		t.Fatal("Lookup on empty universe succeeded")
	}
	v := u.Const("x")
	got, ok := u.Lookup("x")
	if !ok || got != v {
		t.Fatalf("Lookup(x) = %d,%v want %d,true", got, ok, v)
	}
}

func TestFreshNulls(t *testing.T) {
	u := NewUniverse()
	n1 := u.FreshNull()
	n2 := u.FreshNull()
	if n1 == n2 {
		t.Fatal("FreshNull returned the same null twice")
	}
	if !n1.IsNull() || n1.IsConst() {
		t.Fatalf("null kind flags wrong: %v", n1)
	}
	if n1.NullID() != 1 || n2.NullID() != 2 {
		t.Fatalf("null ids: %d,%d want 1,2", n1.NullID(), n2.NullID())
	}
	if u.NumNulls() != 2 {
		t.Fatalf("NumNulls = %d, want 2", u.NumNulls())
	}
}

func TestNames(t *testing.T) {
	u := NewUniverse()
	a := u.Const("alpha")
	n := u.FreshNull()
	if got := u.Name(a); got != "alpha" {
		t.Fatalf("Name(const) = %q", got)
	}
	if got := u.Name(n); got != "_N1" {
		t.Fatalf("Name(null) = %q", got)
	}
	if got := u.Name(None); got != "<none>" {
		t.Fatalf("Name(None) = %q", got)
	}
	names := u.Names([]Value{a, n})
	if len(names) != 2 || names[0] != "alpha" || names[1] != "_N1" {
		t.Fatalf("Names = %v", names)
	}
}

func TestNullConstructor(t *testing.T) {
	if Null(3).NullID() != 3 {
		t.Fatal("Null(3) round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Null(0) did not panic")
		}
	}()
	Null(0)
}

func TestNullIDPanicsOnConst(t *testing.T) {
	u := NewUniverse()
	v := u.Const("c")
	defer func() {
		if recover() == nil {
			t.Fatal("NullID on constant did not panic")
		}
	}()
	v.NullID()
}

func TestInterningIsInjective(t *testing.T) {
	u := NewUniverse()
	seen := map[Value]string{}
	f := func(s string) bool {
		v := u.Const(s)
		if prev, ok := seen[v]; ok && prev != s {
			return false
		}
		seen[v] = s
		return u.Name(v) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
