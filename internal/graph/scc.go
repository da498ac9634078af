// Package graph holds the graph algorithms shared by the stable-model
// solver (loop formulas) and the mapping analysis (weak acyclicity).
package graph

// SCCs returns the strongly connected components of the graph reachable
// from starts, by Tarjan's algorithm with an explicit call stack instead
// of recursion. Roots are tried in starts order
// and successors in the order succ returns them (succ is called once per
// node), so equal inputs give equal output. Components come out in
// reverse topological order (every component precedes the components
// that reach it), each listing its nodes in stack-pop order.
func SCCs[T comparable](starts []T, succ func(T) []T) [][]T {
	index := make(map[T]int, len(starts))
	low := make(map[T]int, len(starts))
	onStack := make(map[T]bool, len(starts))
	var stack []T
	var comps [][]T

	type frame struct {
		node T
		succ []T
		next int // index of the next successor to explore
	}
	var call []frame
	push := func(v T) {
		n := len(index)
		index[v], low[v] = n, n
		stack = append(stack, v)
		onStack[v] = true
		call = append(call, frame{node: v, succ: succ(v)})
	}
	for _, start := range starts {
		if _, seen := index[start]; seen {
			continue
		}
		push(start)
		for len(call) > 0 {
			f := &call[len(call)-1]
			advanced := false
			for f.next < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				if _, seen := index[w]; !seen {
					push(w)
					advanced = true
					break
				}
				if onStack[w] && low[f.node] > index[w] {
					low[f.node] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[parent] > low[v] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []T
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
