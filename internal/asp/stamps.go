package asp

// stamps is a set of small non-negative integers kept as generation
// marks: i is a member while mark[i] == gen, so reset empties the set in
// O(1). The marks are cleared only when gen wraps. reset before each use:
// the zero value's generation matches every zero mark.
type stamps struct {
	mark []uint32
	gen  uint32
}

// reset empties the set.
func (s *stamps) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: no old mark may look current
		clear(s.mark)
		s.gen = 1
	}
}

// grow makes room for members 0..n-1.
func (s *stamps) grow(n int) {
	for len(s.mark) < n {
		s.mark = append(s.mark, 0)
	}
}

func (s *stamps) add(i int)           { s.mark[i] = s.gen }
func (s *stamps) contains(i int) bool { return s.mark[i] == s.gen }
