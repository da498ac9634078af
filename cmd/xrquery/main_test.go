package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func fixtureFiles(t *testing.T) (string, string, string) {
	m := writeTemp(t, "m.map", `
source A(x, v).
source B(x, v).
target T(x, v).
tgd A(x, v) -> T(x, v).
tgd B(x, v) -> T(x, v).
egd T(x, v) & T(x, w) -> v = w.
`)
	f := writeTemp(t, "i.facts", `
A(t1, 1). B(t1, 2).
A(t2, 3). B(t2, 3).
`)
	q := writeTemp(t, "q.dl", `q(x, v) :- T(x, v).`)
	return m, f, q
}

func TestRunAllEngines(t *testing.T) {
	m, f, q := fixtureFiles(t)
	for _, engine := range []string{"seg", "mono", "brute"} {
		cfg := config{engine: engine, timeout: time.Minute, parallel: 2, stats: true, trace: true, possible: engine == "seg"}
		degraded, err := run(m, f, q, cfg)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if degraded {
			t.Fatalf("engine %s: unexpectedly degraded", engine)
		}
	}
}

// TestRunWithMetrics exercises the -metrics-addr path: the registry is
// created, the HTTP server binds an ephemeral port, and the run completes
// with the telemetry summary on exit.
func TestRunWithMetrics(t *testing.T) {
	m, f, q := fixtureFiles(t)
	for _, engine := range []string{"seg", "mono", "brute"} {
		cfg := config{engine: engine, parallel: 1, metricsAddr: "127.0.0.1:0"}
		if _, err := run(m, f, q, cfg); err != nil {
			t.Fatalf("engine %s with metrics: %v", engine, err)
		}
	}
	if _, err := run(m, f, q, config{engine: "seg", parallel: 1, metricsAddr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("unusable metrics address accepted")
	}
}

func TestRunErrors(t *testing.T) {
	m, f, q := fixtureFiles(t)
	seg := config{engine: "seg", parallel: 1}
	if _, err := run(m, f, q, config{engine: "warp", parallel: 1}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := run("/nonexistent.map", f, q, seg); err == nil {
		t.Fatal("missing mapping accepted")
	}
	bad := writeTemp(t, "bad.map", "gibberish")
	if _, err := run(bad, f, q, seg); err == nil {
		t.Fatal("bad mapping accepted")
	}
	badFacts := writeTemp(t, "bad.facts", "Nope(1).")
	if _, err := run(m, badFacts, q, seg); err == nil {
		t.Fatal("bad facts accepted")
	}
}

// TestRunExplain drives -explain and -why end to end on the conflicted
// fixture (q(t1, 1) and q(t1, 2) are rejected, q(t2, 3) is safe).
func TestRunExplain(t *testing.T) {
	m, f, q := fixtureFiles(t)
	if _, err := run(m, f, q, config{engine: "seg", parallel: 2, explain: true}); err != nil {
		t.Fatalf("-explain run failed: %v", err)
	}
	if _, err := run(m, f, q, config{engine: "seg", parallel: 1, why: "q(t1, 1)"}); err != nil {
		t.Fatalf("-why run failed: %v", err)
	}
	if _, err := run(m, f, q, config{engine: "seg", parallel: 1, why: "nope(t1)"}); err == nil {
		t.Fatal("-why with an unknown query name accepted")
	}
	if _, err := run(m, f, q, config{engine: "seg", parallel: 1, why: "gibberish"}); err == nil {
		t.Fatal("-why with unparsable input accepted")
	}
}

func TestParseWhy(t *testing.T) {
	cases := []struct {
		in   string
		name string
		args []string
		ok   bool
	}{
		{"q(a, b)", "q", []string{"a", "b"}, true},
		{" q( 'a' , \"b\" ) ", "q", []string{"a", "b"}, true},
		{"boolean()", "boolean", nil, true},
		{"no-parens", "", nil, false},
		{"(a)", "", nil, false},
		{"q(a,,b)", "", nil, false},
	}
	for _, tc := range cases {
		name, args, err := parseWhy(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("parseWhy(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && (name != tc.name || !reflect.DeepEqual(args, tc.args)) {
			t.Fatalf("parseWhy(%q) = %q %v, want %q %v", tc.in, name, args, tc.name, tc.args)
		}
	}
}

// TestRunTraceOut checks the -trace-out artifact: valid Chrome trace-event
// JSON with the signature span nested (via the parent arg) under the
// query-phase span.
func TestRunTraceOut(t *testing.T) {
	m, f, q := fixtureFiles(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := run(m, f, q, config{engine: "seg", parallel: 2, traceOut: path}); err != nil {
		t.Fatalf("-trace-out run failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	queryID := ""
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "query ") {
			queryID, _ = ev.Args["id"].(string)
		}
	}
	if queryID == "" {
		t.Fatal("no query-phase span in the trace")
	}
	foundSig, foundExchange := false, false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "exchange" {
			foundExchange = true
		}
		if strings.HasPrefix(ev.Name, "signature {") {
			foundSig = true
			if parent, _ := ev.Args["parent"].(string); parent != queryID {
				t.Fatalf("signature span parented to %v, want query span %v", ev.Args["parent"], queryID)
			}
		}
	}
	if !foundSig {
		t.Fatal("no per-signature span in the trace")
	}
	if !foundExchange {
		t.Fatal("no exchange-phase span in the trace")
	}
}

// TestRunPartial drives the -partial path end to end: a one-decision
// budget exhausts on the fixture's conflicted signature, the run degrades
// instead of failing, and the degraded flag (exit code 3 in main) is set.
// The query projects T onto its key: t1 is certain without being safe, so
// no greedy repair decides it and the ask reaches the solver.
func TestRunPartial(t *testing.T) {
	m, f, _ := fixtureFiles(t)
	q := writeTemp(t, "p.dl", `p(x) :- T(x, v).`)
	strict := config{engine: "seg", parallel: 1, maxDecisions: 1}
	if _, err := run(m, f, q, strict); err == nil {
		t.Fatal("budget exhaustion without -partial should fail the run")
	}
	partial := config{engine: "seg", parallel: 1, maxDecisions: 1, partial: true, stats: true}
	degraded, err := run(m, f, q, partial)
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if !degraded {
		t.Fatal("partial run with a 1-decision budget did not degrade")
	}
}
