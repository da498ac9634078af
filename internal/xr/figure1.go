package xr

import (
	"repro/internal/asp"
	"repro/internal/chase"
	"strconv"
)

// Figure1Program builds the *literal* Figure 1 program of the paper over
// the quasi-solution (partially evaluated like the corrected encoder):
//
//	deletion (tgd):  R1d ∨ ... ∨ Rnd ← Td, R1, ..., Rn, ¬R1i, ..., ¬Rni.
//	remainder (tgd): Tr ← R1r, ..., Rnr.
//	deletion (egd):  R1d ∨ ... ∨ Rnd ← R1, ..., Rn, xi ≠ xj, ¬R1i, ..., ¬Rni.
//	source:          Rr ← R, ¬Rd.
//	target:          Ri ← R, ¬Rr, ¬Rd.   ⊥ ← any two of {Rr, Rd, Ri}.
//
// It is retained for comparison and ablation: TestFigure1Discrepancy shows
// a minimal input on which this encoding loses a source repair (a source
// fact supporting both sides of a violation cannot be deleted in any stable
// model because its deletion disables, via the incidental ¬Ri guards, the
// only rules that would justify it). The corrected encoding in encode.go is
// used by the actual pipelines.
func Figure1Program(prov *chase.Provenance) *asp.GroundProgram {
	gp := asp.NewGroundProgram()
	r := make(map[chase.FactID]asp.AtomID)
	d := make(map[chase.FactID]asp.AtomID)
	i := make(map[chase.FactID]asp.AtomID)
	atom := func(m map[chase.FactID]asp.AtomID, f chase.FactID, kind byte) asp.AtomID {
		if a, ok := m[f]; ok {
			return a
		}
		a := gp.Atom(string(kind) + "#" + strconv.Itoa(int(f)))
		m[f] = a
		return a
	}
	n := prov.NumFacts()
	for id := 0; id < n; id++ {
		f := chase.FactID(id)
		if prov.IsSource(f) {
			gp.AddRule([]asp.AtomID{atom(r, f, 'r')}, nil, []asp.AtomID{atom(d, f, 'd')})
			gp.AddConstraint([]asp.AtomID{atom(r, f, 'r'), atom(d, f, 'd')}, nil)
			continue
		}
		gp.AddRule([]asp.AtomID{atom(i, f, 'i')}, nil, []asp.AtomID{atom(r, f, 'r'), atom(d, f, 'd')})
		gp.AddConstraint([]asp.AtomID{atom(r, f, 'r'), atom(d, f, 'd')}, nil)
		gp.AddConstraint([]asp.AtomID{atom(r, f, 'r'), atom(i, f, 'i')}, nil)
		gp.AddConstraint([]asp.AtomID{atom(d, f, 'd'), atom(i, f, 'i')}, nil)
		for _, set := range prov.Supports(f) {
			var heads, negs, pos []asp.AtomID
			for _, b := range set {
				heads = append(heads, atom(d, b, 'd'))
				if !prov.IsSource(b) {
					negs = append(negs, atom(i, b, 'i'))
				}
				pos = append(pos, atom(r, b, 'r'))
			}
			gp.AddRule(heads, []asp.AtomID{atom(d, f, 'd')}, negs)
			gp.AddRule([]asp.AtomID{atom(r, f, 'r')}, pos, nil)
		}
	}
	for _, v := range prov.Violations {
		var heads, negs []asp.AtomID
		for _, b := range v.Body {
			heads = append(heads, atom(d, b, 'd'))
			if !prov.IsSource(b) {
				negs = append(negs, atom(i, b, 'i'))
			}
		}
		gp.AddRule(heads, nil, negs)
	}
	return gp
}

// CountRepairModels counts the stable models of the corrected encoding
// over the full provenance — by construction, the number of source repairs.
// Exposed for the encoding ablation experiment.
func CountRepairModels(prov *chase.Provenance) int {
	enc := wholeEncoder(prov, nil)
	solver := asp.NewStableSolver(enc.gp)
	solver.Acceptor = enc.maximalityAcceptor(solver)
	return solver.Enumerate(func([]bool) bool { return true })
}
