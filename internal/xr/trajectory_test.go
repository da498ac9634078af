package xr

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/asp"
)

// TestProgramTrajectoryGolden pins the ground signature programs and the
// solver trajectories on them where the solver does real work: the
// scenarios of memoScenarios, each on a fresh exchange asked a certain
// pass and then a possible pass of its queries. Per ask it records the
// answer count and the solver-accepted count; per trace event the
// program's size and the session's work counters; per cached program
// the base and persistent programs' sizes, deletable count and a digest
// of their facts and rules as atom-id lists. A change that reorders an
// atom, a rule or a clause shows here even when no answer changes.
// Regenerate with -update-golden.
func TestProgramTrajectoryGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range memoScenarios(t) {
		fmt.Fprintf(&b, "== %s ==\n", sc.name)
		ex, err := NewExchange(sc.m, sc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, brave := range []bool{false, true} {
			for _, q := range sc.queries {
				writeAskTrajectory(t, &b, q.Name, brave, func(trace func(TraceEvent)) (*Result, error) {
					return ex.query(q, brave, Options{Trace: trace})
				})
			}
		}
		keys := make([]string, 0, len(ex.state.programs))
		for key := range ex.state.programs {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			sp := ex.state.programs[key].val.(*sigProgram)
			fmt.Fprintf(&b, "program {%s} deletable=%d base %s", key, len(sp.enc.deletable), programDigest(sp.enc.gp))
			if sp.inc != nil {
				fmt.Fprintf(&b, " persistent %s", programDigest(sp.inc.spec.gp))
			}
			b.WriteByte('\n')
		}
	}
	compareGolden(t, "program_trajectories.golden", b.String())
}

// writeAskTrajectory runs one ask with a trace hook and appends its lines:
// the ask's counts, then one line per trace event in event order.
func writeAskTrajectory(t *testing.T, b *strings.Builder, name string, brave bool, ask func(trace func(TraceEvent)) (*Result, error)) {
	t.Helper()
	var mu sync.Mutex
	var events []TraceEvent
	res, err := ask(func(ev TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("%s (possible %v): %v", name, brave, err)
	}
	mode := "certain"
	if brave {
		mode = "possible"
	}
	fmt.Fprintf(b, "%s %s: answers=%d solver_accepted=%d\n", mode, name, res.Answers.Len(), res.Stats.SolverAccepted)
	for _, ev := range events {
		fmt.Fprintf(b, "  {%s} atoms=%d rules=%d decisions=%d conflicts=%d propagations=%d candidates_tested=%d stability_fails=%d\n",
			ev.SignatureKey, ev.Atoms, ev.Rules, ev.Decisions, ev.Conflicts, ev.Propagations, ev.CandidatesTested, ev.StabilityFails)
	}
}

// programDigest summarizes a ground program: its atom and rule counts and
// a digest of its facts and rules as atom-id lists, in program order.
// Atom names are left out: only the numbering reaches the solver.
func programDigest(gp *asp.GroundProgram) string {
	h := sha256.New()
	var line []byte
	ids := func(prefix byte, atoms []asp.AtomID) {
		line = append(line, prefix)
		for _, a := range atoms {
			line = strconv.AppendInt(append(line, ' '), int64(a), 10)
		}
	}
	for _, f := range gp.Facts {
		line = strconv.AppendInt(append(line[:0], 'F', ' '), int64(f), 10)
		h.Write(append(line, '\n'))
	}
	for _, r := range gp.Rules {
		line = line[:0]
		ids('H', r.Head)
		ids('P', r.Pos)
		ids('N', r.Neg)
		h.Write(append(line, '\n'))
	}
	return fmt.Sprintf("atoms=%d rules=%d digest=%x", gp.NumAtoms(), len(gp.Rules), h.Sum(nil)[:8])
}

// compareGolden compares got with testdata/name, rewriting the file first
// under -update-golden.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d (run with -update-golden to refresh):\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d (run with -update-golden to refresh)", golden, len(gl), len(wl))
	}
}
