package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/asp"
	"repro/internal/xr"
)

// The wire format is a compatibility contract: cmd/xrserved serves these
// types over HTTP, so field names and shapes must stay stable. The golden
// files under testdata/wire pin the exact bytes; regenerate deliberately
// with `go test -run TestWire -update` after an intentional change.

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format files")

// checkGolden marshals v with stable indentation and compares it to the
// named golden file, then round-trips the bytes back into out (a pointer
// of v's type) so the caller can verify semantic equality.
func checkGolden(t *testing.T, name string, v, out interface{}) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "wire", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestWire -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire format drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	if err := json.Unmarshal(got, out); err != nil {
		t.Fatalf("%s: round-trip unmarshal: %v", name, err)
	}
}

// TestWireAnswers pins the Answers wire format, including nested
// SignatureError and Explanation entries, and checks the round trip
// preserves every field (the Degraded cause survives as a matching
// sentinel under errors.Is).
func TestWireAnswers(t *testing.T) {
	in := &Answers{
		Tuples:  [][]string{{"tx2", "7"}, {"tx9", "1"}},
		Unknown: [][]string{{"tx5", "2"}},
		Degraded: []SignatureError{
			{Signature: "2,7", Tuples: 1, Retries: 1, Err: ErrBudget},
		},
		Explanations: []Explanation{
			{
				Query:     "q",
				Tuple:     []string{"tx2", "7"},
				Verdict:   "certain",
				Signature: "2,7",
				Text:      "q(tx2, 7): certain — accepted by cautious reasoning\n",
			},
			{
				Query:   "q",
				Tuple:   []string{"tx5", "2"},
				Verdict: "unknown",
				Cause:   "budget",
				Retries: 1,
				Text:    "q(tx5, 2): unknown — signature {2,7} degraded (budget)\n",
			},
		},
		Candidates:         3,
		SafeAccepted:       1,
		SolverAccepted:     1,
		Programs:           2,
		CacheHits:          1,
		DegradedSignatures: 1,
		UnknownTuples:      1,
		Retries:            1,
		Duration:           1500 * time.Microsecond,
	}
	var out Answers
	checkGolden(t, "answers.golden.json", in, &out)

	if !reflect.DeepEqual(out.Tuples, in.Tuples) || !reflect.DeepEqual(out.Unknown, in.Unknown) {
		t.Errorf("tuples round trip: got %v / %v", out.Tuples, out.Unknown)
	}
	if !reflect.DeepEqual(out.Explanations, in.Explanations) {
		t.Errorf("explanations round trip: got %+v", out.Explanations)
	}
	if out.Duration != in.Duration || out.Candidates != in.Candidates || out.CacheHits != in.CacheHits {
		t.Errorf("stats round trip: got %+v", out)
	}
	if len(out.Degraded) != 1 {
		t.Fatalf("degraded round trip: got %+v", out.Degraded)
	}
	d := out.Degraded[0]
	if d.Signature != "2,7" || d.Tuples != 1 || d.Retries != 1 {
		t.Errorf("degraded fields: got %+v", d)
	}
	if !errors.Is(d.Err, ErrBudget) {
		t.Errorf("degraded cause: err = %v, want ErrBudget under errors.Is", d.Err)
	}
}

// TestWireSignatureErrorCauses checks every degradation cause survives the
// wire round trip as its matching sentinel.
func TestWireSignatureErrorCauses(t *testing.T) {
	for _, tc := range []struct {
		cause    string
		err      error
		sentinel error
	}{
		{"budget", ErrBudget, ErrBudget},
		{"timeout", ErrTimeout, ErrTimeout},
		{"canceled", ErrCanceled, ErrCanceled},
		{"panic", &InternalError{Op: "segmentary signature {3}", Panic: "boom"}, ErrInternal},
	} {
		in := SignatureError{Signature: "3", Tuples: 2, Retries: 1, Err: tc.err}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s: %v", tc.cause, err)
		}
		var m map[string]interface{}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if m["cause"] != tc.cause {
			t.Errorf("cause = %v, want %q (wire: %s)", m["cause"], tc.cause, b)
		}
		var out SignatureError
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(out.Err, tc.sentinel) {
			t.Errorf("%s: round-tripped err = %v, does not match sentinel", tc.cause, out.Err)
		}
		if out.Signature != in.Signature || out.Tuples != in.Tuples || out.Retries != in.Retries {
			t.Errorf("%s: fields = %+v", tc.cause, out)
		}
	}
}

// TestWireTraceEvent pins the TraceEvent wire format.
func TestWireTraceEvent(t *testing.T) {
	in := TraceEvent{
		Engine:       "segmentary",
		Query:        "q",
		Signature:    []int{2, 7},
		SignatureKey: "2,7",
		RequestID:    "req-0011aabb",
		Candidates:   3,
		Atoms:        120,
		Rules:        240,
		CacheHit:     true,
		Stats: asp.Stats{
			CandidatesTested: 5,
			StabilityFails:   1,
			LoopsLearned:     2,
			TheoryRejects:    1,
			Conflicts:        17,
			Decisions:        42,
			Propagations:     900,
			Restarts:         1,
		},
		Duration: 250 * time.Microsecond,
	}
	var out TraceEvent
	checkGolden(t, "trace_event.golden.json", in, &out)
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

// TestWireExchangeStats pins the xr.ExchangeStats wire format.
func TestWireExchangeStats(t *testing.T) {
	in := xr.ExchangeStats{
		SourceFacts:            100,
		TotalFacts:             180,
		Violations:             12,
		Clusters:               4,
		SuspectSource:          30,
		SafeDerivable:          140,
		ReduceDuration:         10 * time.Microsecond,
		ChaseDuration:          2 * time.Millisecond,
		EnvDuration:            500 * time.Microsecond,
		Duration:               3 * time.Millisecond,
		ChaseRounds:            5,
		ChaseRuleEvals:         60,
		ChaseRuleSkips:         40,
		ChaseTriggers:          200,
		ChaseDeltaFacts:        80,
		IndexProbes:            1234,
		IndexBuilds:            7,
		ChaseTgdDuration:       1500 * time.Microsecond,
		ChaseViolationDuration: 500 * time.Microsecond,
	}
	var out xr.ExchangeStats
	checkGolden(t, "exchange_stats.golden.json", in, &out)
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

// TestWireLiveAnswers marshals the result of a real degraded query and
// checks the wire round trip preserves the answer and unknown sets — the
// exact path a server response takes.
func TestWireLiveAnswers(t *testing.T) {
	sys, in, qs := setup(t)
	ex, err := sys.NewExchange(in)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ex.Answer(qs[0], WithSolveBudget(1, 0), WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Partial() {
		t.Fatal("expected a degraded run under a 1-decision budget")
	}
	b, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	var out Answers
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Tuples, ans.Tuples) || !reflect.DeepEqual(out.Unknown, ans.Unknown) {
		t.Errorf("round trip: got %v / %v, want %v / %v", out.Tuples, out.Unknown, ans.Tuples, ans.Unknown)
	}
	if len(out.Degraded) != len(ans.Degraded) {
		t.Fatalf("degraded round trip: %d vs %d", len(out.Degraded), len(ans.Degraded))
	}
	for i := range out.Degraded {
		if !errors.Is(out.Degraded[i].Err, ErrBudget) {
			t.Errorf("degraded[%d]: err = %v, want ErrBudget", i, out.Degraded[i].Err)
		}
	}
	// Empty sets stay [] on the wire, never null.
	empty, err := json.Marshal(&Answers{Tuples: [][]string{}, Unknown: [][]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(empty, []byte("null")) {
		t.Errorf("empty Answers marshals with null: %s", empty)
	}
}
