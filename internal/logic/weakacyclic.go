package logic

import (
	"repro/internal/graph"
	"repro/internal/schema"
)

// position identifies (relation, argument index).
type position struct {
	rel schema.RelID
	idx int
}

// WeaklyAcyclic reports whether the given set of tgds is weakly acyclic,
// per Fagin, Kolaitis, Miller, Popa (2005): build the position dependency
// graph and check that no cycle passes through a special edge.
//
// For every tgd and every universally quantified variable x occurring in the
// body at position p:
//   - for every occurrence of x in the head at position q, add a regular
//     edge p → q;
//   - if x occurs in the head, then for every existentially quantified
//     variable y occurring in the head at position q', add a special edge
//     p → q'.
func WeaklyAcyclic(tgds []*TGD) bool {
	succ := make(map[position][]position)
	var special [][2]position // from, to
	addEdge := func(from, to position, isSpecial bool) {
		succ[from] = append(succ[from], to)
		if isSpecial {
			special = append(special, [2]position{from, to})
		}
	}

	for _, d := range tgds {
		bodyPos := make(map[string][]position) // var -> body positions
		for _, a := range d.Body {
			for i, t := range a.Terms {
				if t.IsVar() {
					bodyPos[t.Var] = append(bodyPos[t.Var], position{a.Rel, i})
				}
			}
		}
		headPos := make(map[string][]position) // var -> head positions
		for _, a := range d.Head {
			for i, t := range a.Terms {
				if t.IsVar() {
					headPos[t.Var] = append(headPos[t.Var], position{a.Rel, i})
				}
			}
		}
		exist := make(map[string]bool)
		for _, y := range d.ExistentialVars() {
			exist[y] = true
		}
		for x, ps := range bodyPos {
			hs, inHead := headPos[x]
			if !inHead {
				continue
			}
			for _, p := range ps {
				for _, q := range hs {
					addEdge(p, q, false)
				}
				for y, qs := range headPos {
					if !exist[y] {
						continue
					}
					for _, q := range qs {
						addEdge(p, q, true)
					}
				}
			}
		}
	}

	// Weak acyclicity fails iff some special edge has both endpoints in the
	// same strongly connected component. Every edge source is a start, so
	// every endpoint gets a component.
	starts := make([]position, 0, len(succ))
	for p := range succ {
		starts = append(starts, p)
	}
	comp := make(map[position]int)
	for i, c := range graph.SCCs(starts, func(p position) []position { return succ[p] }) {
		for _, p := range c {
			comp[p] = i
		}
	}
	for _, e := range special {
		if comp[e[0]] == comp[e[1]] {
			return false
		}
	}
	return true
}
