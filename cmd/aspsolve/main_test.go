package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the CLI golden file")

// testProgram exercises disjunction, derivation, and an even loop (two
// stable models per choice of d/e), so assumptions visibly prune the
// model space.
const testProgram = `
a | b.
c :- a.
c :- b.
d :- not e.
e :- not d.
`

// TestRunGolden runs the CLI end to end across flag combinations and
// compares the concatenated output against one golden file. The solver is
// deterministic, so the work counters printed by -stats are stable.
func TestRunGolden(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "p.lp")
	if err := os.WriteFile(prog, []byte(testProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		cfg  config
	}{
		{"enumerate-all", config{models: 0}},
		{"cautious-brave", config{cautious: true, brave: true}},
		{"assume-a-d", config{models: 0, assume: "a,d"}},
		{"assume-not-c-unsat", config{models: 0, assume: "-c"}},
		{"assume-cautious-stats", config{cautious: true, assume: "a", stats: true}},
		{"enumerate-stats", config{models: 0, stats: true}},
	}
	var out bytes.Buffer
	for _, r := range runs {
		out.WriteString("== " + r.name + "\n")
		if err := run(&out, []string{prog}, r.cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	golden := filepath.Join("testdata", "run.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("CLI output drifted from %s (rerun with -update after verifying):\n-- got --\n%s\n-- want --\n%s",
			golden, out.Bytes(), want)
	}
}

// TestAssumeErrors pins the -assume failure modes: unknown atoms are
// rejected with the atom named, and blank segments are tolerated.
func TestAssumeErrors(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "p.lp")
	if err := os.WriteFile(prog, []byte(testProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(&out, []string{prog}, config{assume: "a,zzz"})
	if err == nil || !strings.Contains(err.Error(), `"zzz"`) {
		t.Fatalf("unknown assumed atom not rejected by name: %v", err)
	}
	out.Reset()
	if err := run(&out, []string{prog}, config{models: 0, assume: " a , , -e "}); err != nil {
		t.Fatalf("whitespace/blank segments rejected: %v", err)
	}
	if !strings.Contains(out.String(), "SATISFIABLE") {
		t.Fatalf("assume a,-e should be satisfiable:\n%s", out.String())
	}
	if strings.Count(out.String(), "Answer") != 1 {
		t.Fatalf("assume a,-e should leave exactly one stable model:\n%s", out.String())
	}
}

// TestBraveLoopProgram runs -brave on a normal program whose positive loop
// a/b once made brave search find the same stable model {w} forever. The
// run gets a deadline, so a search that never ends fails the test.
func TestBraveLoopProgram(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "loop.lp")
	src := "a :- b.\nb :- a.\na :- z.\nz :- not w.\nw :- not z.\n:- z.\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = run(&out, []string{prog}, config{brave: true})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("aspsolve -brave did not return within 10s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nbrave: w\n") {
		t.Fatalf("want the line \"brave: w\":\n%s", out.String())
	}
}
