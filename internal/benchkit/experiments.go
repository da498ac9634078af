package benchkit

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/gavreduce"
	"repro/internal/genome"
	"repro/internal/logic"
	"repro/internal/xr"
)

// queries returns the Table 3 suite in canonical order.
func (r *Runner) queries() ([]*logic.UCQ, error) {
	qs, err := genomeQueries(r)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*logic.UCQ, len(qs))
	for _, q := range qs {
		byName[q.Name] = q
	}
	out := make([]*logic.UCQ, 0, len(qs))
	for _, n := range QueryOrder {
		if q, ok := byName[n]; ok {
			out = append(out, q)
		}
	}
	return out, nil
}

// Table1 reports the source databases (paper Table 1) at the full profile:
// per database, the number of relations, total attributes, and total tuples.
func (r *Runner) Table1() (*Table, error) {
	in, err := r.source("F3")
	if err != nil {
		return nil, err
	}
	type group struct {
		name string
		rels []string
	}
	groups := []group{
		{"UCSC*", []string{"ComputedAlignments", "ComputedCrossref"}},
		{"RefSeq", []string{"RefSeqTranscript", "RefSeqSource", "RefSeqReference", "RefSeqGene", "RefSeqProtein"}},
		{"EntrezGene", []string{"EntrezGene"}},
		{"UniProt", []string{"UniProt"}},
	}
	t := &Table{
		Title:   "Table 1: Source Instances (profile F3)",
		Headers: []string{"Database", "Relations", "Attributes", "Tuples"},
		Notes:   []string{"*Transcript alignments and crossreference only (as in the paper)."},
	}
	for _, g := range groups {
		rels, attrs, tuples := 0, 0, 0
		for _, name := range g.rels {
			rel, ok := r.world.Cat.ByName(name)
			if !ok {
				return nil, fmt.Errorf("benchkit: missing relation %s", name)
			}
			rels++
			attrs += rel.Arity
			tuples += in.LenOf(rel.ID)
		}
		t.Rows = append(t.Rows, []string{g.name, strconv.Itoa(rels), strconv.Itoa(attrs), strconv.Itoa(tuples)})
	}
	return t, nil
}

// Table2 reports the test-instance grid (paper Table 2): source tuples,
// total tuples after the exchange, and the suspect rates.
func (r *Runner) Table2() (*Table, error) {
	t := &Table{
		Title: "Table 2: Test Instances",
		Headers: []string{"instance", "source tuples", "total tuples",
			"suspect transcripts", "suspect tuples*"},
		Notes: []string{"*source facts in the source repair envelope (I_suspect)."},
	}
	seen := map[string]bool{}
	for _, name := range append(append([]string{}, SuspectProfiles...), SizeProfiles...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		p, err := r.profile(name)
		if err != nil {
			return nil, err
		}
		ex, err := r.exchange(name)
		if err != nil {
			return nil, err
		}
		st := ex.Stats
		t.Rows = append(t.Rows, []string{
			name,
			strconv.Itoa(st.SourceFacts),
			strconv.Itoa(st.TotalFacts),
			fmt.Sprintf("%.1f%%", 100*p.SuspectRate),
			fmt.Sprintf("%.1f%%", 100*float64(st.SuspectSource)/float64(st.SourceFacts)),
		})
	}
	return t, nil
}

// Table3 reports the query suite with XR-Certain answer counts on the
// large instance (paper Table 3 reports approximate counts for L).
func (r *Runner) Table3() (*Table, error) {
	ex, err := r.exchange("L3")
	if err != nil {
		return nil, err
	}
	qs, err := r.queries()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 3: Query Suite (XR-Certain answer counts on L3)",
		Headers: []string{"Query", "Answers", "Candidates", "Safe", "Solver"},
	}
	for _, q := range qs {
		res, err := r.answer(ex, q)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.Name, strconv.Itoa(res.Answers.Len()), strconv.Itoa(res.Stats.Candidates),
			strconv.Itoa(res.Stats.SafeAccepted), strconv.Itoa(res.Stats.SolverAccepted),
		})
	}
	return t, nil
}

// Table4 reports exchange-phase durations per instance (paper Table 4).
func (r *Runner) Table4() (*Table, error) {
	t := &Table{
		Title:   "Table 4: Duration of the exchange phase, in seconds",
		Headers: []string{"instance", "duration", "reduce", "chase", "envelopes", "violations", "clusters"},
	}
	seen := map[string]bool{}
	for _, name := range append(append([]string{}, SuspectProfiles...), SizeProfiles...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		ex, err := r.exchange(name)
		if err != nil {
			return nil, err
		}
		st := ex.Stats
		t.Rows = append(t.Rows, []string{
			name, seconds(st.Duration), seconds(st.ReduceDuration),
			seconds(st.ChaseDuration), seconds(st.EnvDuration),
			strconv.Itoa(st.Violations), strconv.Itoa(st.Clusters),
		})
	}
	return t, nil
}

// figure runs the per-query timing grid for one engine over the given
// profiles.
func (r *Runner) figure(title string, profiles []string, mono bool) (*Table, error) {
	qs, err := r.queries()
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Headers: append([]string{"query \\ instance"}, profiles...)}
	if mono && r.MonoTimeout > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("cells marked >%.0fs hit the per-query timeout (lower bound)", r.MonoTimeout.Seconds()))
	}
	cells := make(map[string][]string, len(qs))
	for _, q := range qs {
		cells[q.Name] = make([]string, len(profiles))
	}
	for pi, name := range profiles {
		if mono {
			in, err := r.source(name)
			if err != nil {
				return nil, err
			}
			r.logf("monolithic suite on %s...", name)
			results, err := xr.Monolithic(r.world.M, in, qs, r.monoOptions())
			if err != nil {
				return nil, err
			}
			for qi, q := range qs {
				if results[qi].Err != nil {
					cells[q.Name][pi] = fmt.Sprintf(">%.0f", r.MonoTimeout.Seconds())
				} else {
					cells[q.Name][pi] = seconds(results[qi].Stats.Duration)
				}
			}
		} else {
			ex, err := r.exchange(name)
			if err != nil {
				return nil, err
			}
			r.logf("segmentary suite on %s...", name)
			for _, q := range qs {
				res, err := r.answer(ex, q)
				if err != nil {
					return nil, err
				}
				cells[q.Name][pi] = seconds(res.Stats.Duration)
			}
		}
	}
	for _, q := range qs {
		t.Rows = append(t.Rows, append([]string{q.Name}, cells[q.Name]...))
	}
	return t, nil
}

// Figure3Suspect is Figure 3 (left): monolithic query durations vs suspect
// rate on the L0/L3/L9/L20 instances.
func (r *Runner) Figure3Suspect() (*Table, error) {
	return r.figure("Figure 3 (left): monolithic query seconds vs suspect rate", SuspectProfiles, true)
}

// Figure3Size is Figure 3 (right): monolithic query durations vs instance
// size on S3/M3/L3/F3 (log-log in the paper).
func (r *Runner) Figure3Size() (*Table, error) {
	return r.figure("Figure 3 (right): monolithic query seconds vs instance size", SizeProfiles, true)
}

// Figure4Suspect is Figure 4 (left): segmentary query durations vs suspect
// rate.
func (r *Runner) Figure4Suspect() (*Table, error) {
	return r.figure("Figure 4 (left): segmentary query seconds vs suspect rate", SuspectProfiles, false)
}

// Figure4Size is Figure 4 (right): segmentary query durations vs instance
// size.
func (r *Runner) Figure4Size() (*Table, error) {
	return r.figure("Figure 4 (right): segmentary query seconds vs instance size", SizeProfiles, false)
}

// ReductionTable reports the GLAV→GAV compilation blowup (§5.2: the paper's
// 33 tgds + 26 egds become 339 tgds + 67 egds, ≈7×, in ~18.7s).
func (r *Runner) ReductionTable() (*Table, error) {
	start := time.Now()
	red, err := gavreduce.Reduce(r.world.M)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	orig := r.world.M.Stats()
	got := red.M.Stats()
	t := &Table{
		Title:   "Reduction blowup (paper §5.2)",
		Headers: []string{"", "s-t tgds", "target tgds", "egds", "seconds"},
	}
	t.Rows = append(t.Rows, []string{"original", strconv.Itoa(orig.STTgds), strconv.Itoa(orig.TargetTgds), strconv.Itoa(orig.TargetEgds), ""})
	t.Rows = append(t.Rows, []string{"reduced", strconv.Itoa(got.STTgds), strconv.Itoa(got.TargetTgds), strconv.Itoa(got.TargetEgds), seconds(dur)})
	factor := float64(got.STTgds+got.TargetTgds+got.TargetEgds) / float64(orig.STTgds+orig.TargetTgds+orig.TargetEgds)
	t.Notes = append(t.Notes, fmt.Sprintf("dependency blowup ≈ %.1f× (paper: ≈7×)", factor))
	return t, nil
}

// Speedup reports the headline comparison: total suite time, monolithic vs
// segmentary (exchange + queries), per profile.
func (r *Runner) Speedup(profiles []string) (*Table, error) {
	qs, err := r.queries()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Headline: monolithic vs segmentary, full query suite",
		Headers: []string{"instance", "monolithic total (s)", "exchange (s)",
			"segmentary queries (s)", "speedup (mono / seg queries)"},
		Notes: []string{"the paper reports 10–1000× faster query answering for large instances"},
	}
	for _, name := range profiles {
		in, err := r.source(name)
		if err != nil {
			return nil, err
		}
		r.logf("speedup: monolithic suite on %s...", name)
		monoStart := time.Now()
		results, err := xr.Monolithic(r.world.M, in, qs, r.monoOptions())
		if err != nil {
			return nil, err
		}
		monoDur := time.Since(monoStart)
		timedOut := false
		for _, res := range results {
			if res.Err != nil {
				timedOut = true
			}
		}
		ex, err := r.exchange(name)
		if err != nil {
			return nil, err
		}
		r.logf("speedup: segmentary suite on %s...", name)
		segDur := time.Duration(0)
		for _, q := range qs {
			res, err := r.answer(ex, q)
			if err != nil {
				return nil, err
			}
			segDur += res.Stats.Duration
		}
		monoCell := seconds(monoDur)
		ratio := fmt.Sprintf("%.1f×", monoDur.Seconds()/segDur.Seconds())
		if timedOut {
			monoCell = ">" + monoCell
			ratio = ">" + ratio
		}
		t.Rows = append(t.Rows, []string{
			name, monoCell, seconds(ex.Stats.Duration), seconds(segDur), ratio,
		})
	}
	return t, nil
}

func genomeQueries(r *Runner) ([]*logic.UCQ, error) {
	return genome.Queries(r.world)
}
