package asp

// varHeap is a max-heap of variables ordered by activity, with lazy
// membership (a variable may appear at most once; popped variables are
// re-pushed on backtrack). indices maps each variable to its heap position,
// -1 when absent, as a slice indexed by Var (MiniSat's layout).
type varHeap struct {
	act     *[]float64
	heap    []Var
	indices []int32
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) push(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var) {
	if i := h.indices[v]; i >= 0 {
		h.up(int(i))
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}
