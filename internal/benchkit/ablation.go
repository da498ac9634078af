package benchkit

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/asp"
	"repro/internal/chase"
	"repro/internal/gavreduce"
	"repro/internal/testkit"
	"repro/internal/xr"
)

// AblationFigure1 quantifies the Figure 1 discrepancy (DESIGN.md §7.1):
// over random gav+(gav, egd)-reducible mappings and small instances, it
// compares the number of stable models of the paper's literal Figure 1
// program against the true number of source repairs (and our corrected
// encoding, which matches the repairs by construction — also verified
// here).
func (r *Runner) AblationFigure1(trials int) (*Table, error) {
	rng := rand.New(rand.NewSource(20160315))
	type bucket struct {
		instances int
		fig1Lost  int // Figure 1 has fewer stable models than repairs
		fig1Extra int // Figure 1 has more (never expected)
		corrWrong int // corrected encoding disagrees with brute force
		repairs   int
		fig1      int
	}
	var b bucket
	for trial := 0; trial < trials; trial++ {
		w := testkit.RandomMapping(rng, testkit.Options{TargetTgds: 1})
		src := testkit.RandomInstance(rng, w, 4+rng.Intn(4), 3)
		repairs, err := xr.SourceRepairs(w.M, src)
		if err != nil {
			return nil, err
		}
		red, err := gavreduce.Reduce(w.M)
		if err != nil {
			return nil, err
		}
		prov, err := chase.GAV(red.M, src)
		if err != nil {
			return nil, err
		}
		gp, _ := xr.Figure1Program(prov)
		fig1 := asp.NewStableSolver(gp).Enumerate(func([]bool) bool { return true })
		corrected := xr.CountRepairModels(prov)

		b.instances++
		b.repairs += len(repairs)
		b.fig1 += fig1
		if fig1 < len(repairs) {
			b.fig1Lost++
		}
		if fig1 > len(repairs) {
			b.fig1Extra++
		}
		if corrected != len(repairs) {
			b.corrWrong++
		}
	}
	t := &Table{
		Title: "Ablation: literal Figure 1 encoding vs corrected encoding",
		Headers: []string{"instances", "total repairs", "Fig.1 models",
			"Fig.1 lost repairs on", "Fig.1 extra models on", "corrected wrong on"},
		Rows: [][]string{{
			strconv.Itoa(b.instances), strconv.Itoa(b.repairs), strconv.Itoa(b.fig1),
			fmt.Sprintf("%d (%.0f%%)", b.fig1Lost, 100*float64(b.fig1Lost)/float64(b.instances)),
			strconv.Itoa(b.fig1Extra), strconv.Itoa(b.corrWrong),
		}},
		Notes: []string{
			"repairs counted by exhaustive enumeration (ground truth)",
			"lost repairs make Figure 1's cautious answers unsound (too many certain answers)",
			"extra models are benign multiplicity: one repair with several d/i labelings of target facts",
			"the corrected encoding must always match the repair count",
		},
	}
	return t, nil
}
