package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTricolorTrajectoryGolden pins the solver trajectories on the Theorem
// 3 hardness gadget, where every answer costs real search: K3 and C5 (the
// query is not certain) and K4 (it is), each on a fresh exchange asked a
// certain and then a possible pass. Per ask it records the answer count
// and the solver-accepted count, and per solved program its size and the
// session's work counters: a change that reorders an atom, a rule or a
// clause shows here even when no answer changes. Regenerate with
// -update-golden.
func TestTricolorTrajectoryGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name  string
		edges [][2]string
	}{{"K3", k3Edges}, {"C5", c5Edges}, {"K4", k4Edges}} {
		fmt.Fprintf(&b, "== %s ==\n", tc.name)
		ex, q := tricolorSetup(t, tc.edges)
		for _, possible := range []bool{false, true} {
			var events []TraceEvent
			trace := WithSolverTrace(func(ev TraceEvent) { events = append(events, ev) })
			ask, mode := ex.Answer, "certain"
			if possible {
				ask, mode = ex.Possible, "possible"
			}
			ans, err := ask(q, trace)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s: answers=%d solver_accepted=%d\n", mode, len(ans.Tuples), ans.SolverAccepted)
			for _, ev := range events {
				fmt.Fprintf(&b, "  {%s} atoms=%d rules=%d decisions=%d conflicts=%d propagations=%d candidates_tested=%d stability_fails=%d\n",
					ev.SignatureKey, ev.Atoms, ev.Rules, ev.Decisions, ev.Conflicts, ev.Propagations, ev.CandidatesTested, ev.StabilityFails)
			}
		}
	}
	golden := filepath.Join("testdata", "tricolor_trajectories.golden")
	if *updateGoldenRoot {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if b.String() != string(want) {
		t.Fatalf("solver trajectories differ from %s (run with -update-golden to refresh):\n%s", golden, b.String())
	}
}
