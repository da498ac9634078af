package graph

import (
	"reflect"
	"testing"
)

func TestSCCs(t *testing.T) {
	// 1 ⇄ 2 → 3 ⇄ 4, 3 → 5, 6 → 6, 7 alone.
	edges := map[int][]int{1: {2}, 2: {1, 3}, 3: {4, 5}, 4: {3}, 6: {6}}
	succ := func(v int) []int { return edges[v] }
	got := SCCs([]int{1, 6, 7, 5}, succ)
	// Reverse topological order; nodes in stack-pop order; 5 is reached
	// from 1 before its own start comes up.
	want := [][]int{{5}, {4, 3}, {2, 1}, {6}, {7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCs = %v, want %v", got, want)
	}
	if got := SCCs(nil, succ); got != nil {
		t.Fatalf("SCCs of no starts = %v, want nil", got)
	}
}
