package asp

import "testing"

// TestStampsReset checks that reset empties the set, also when the
// generation wraps and the old marks must be cleared.
func TestStampsReset(t *testing.T) {
	var s stamps
	s.grow(3)
	s.reset()
	s.add(1)
	if !s.contains(1) || s.contains(0) || s.contains(2) {
		t.Fatalf("after add(1): marks %v at generation %d", s.mark, s.gen)
	}
	s.reset()
	if s.contains(1) {
		t.Fatal("reset kept 1")
	}
	s.gen = ^uint32(0)
	s.add(2)
	s.reset()
	if s.gen == 0 || s.contains(0) || s.contains(1) || s.contains(2) {
		t.Fatalf("after a wrapping reset: marks %v at generation %d", s.mark, s.gen)
	}
}
