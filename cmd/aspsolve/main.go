// Command aspsolve is a standalone disjunctive answer-set solver over the
// engine in internal/asp, accepting a subset of clingo's input language.
//
// Usage:
//
//	aspsolve [-models N] [-cautious] [-brave] [-assume a,b,-c] [-stats] program.lp
//	echo "a | b. c :- a. c :- b." | aspsolve -models 0 -cautious
//
// -models N enumerates up to N stable models (0 = all). -cautious and
// -brave report the atoms true in every / some stable model. -assume pins
// ground atoms for the whole run ('-' prefix pins false), answering "what
// holds if ..." without editing the program; the atoms are CDCL
// assumptions, not facts, so an unsatisfiable pinning reports
// UNSATISFIABLE instead of deriving by contradiction. -stats prints the
// solver work counters after solving.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asp"
)

// config carries the parsed command-line flags through run.
type config struct {
	models          int
	cautious, brave bool
	assume          string
	stats           bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.models, "models", 1, "number of stable models to enumerate (0 = all)")
	flag.BoolVar(&cfg.cautious, "cautious", false, "report atoms true in every stable model")
	flag.BoolVar(&cfg.brave, "brave", false, "report atoms true in some stable model")
	flag.StringVar(&cfg.assume, "assume", "", "comma-separated atoms to pin true for the run; prefix '-' to pin false (e.g. a,b,-c)")
	flag.BoolVar(&cfg.stats, "stats", false, "print solver work counters after solving")
	flag.Parse()
	if err := run(os.Stdout, flag.Args(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "aspsolve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string, cfg config) (err error) {
	// A malformed program must exit with a diagnostic, never a crash: any
	// panic escaping the parser/grounder/solver is converted to an error.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	var text []byte
	switch len(args) {
	case 0:
		text, err = io.ReadAll(os.Stdin)
	case 1:
		text, err = os.ReadFile(args[0])
	default:
		return fmt.Errorf("at most one program file")
	}
	if err != nil {
		return err
	}
	prog, err := asp.ParseProgram(string(text))
	if err != nil {
		return err
	}
	gp, err := prog.Ground()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%% grounded: %s\n", gp.Stats())

	assumps, err := parseAssumptions(gp, cfg.assume)
	if err != nil {
		return err
	}
	// Every solver the run creates shares the assumption set, and -stats
	// sums the work counters across all of them.
	var solvers []*asp.StableSolver
	newSolver := func() *asp.StableSolver {
		s := asp.NewStableSolver(gp)
		s.SetAssumptions(assumps)
		solvers = append(solvers, s)
		return s
	}
	err = solve(w, gp, cfg, newSolver)
	if err == nil && cfg.stats {
		printStats(w, solvers)
	}
	return err
}

// parseAssumptions resolves a comma-separated -assume spec against the
// ground program's atom table. A '-' prefix pins the atom false.
func parseAssumptions(gp *asp.GroundProgram, spec string) ([]asp.AtomAssumption, error) {
	if spec == "" {
		return nil, nil
	}
	var out []asp.AtomAssumption
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		want := true
		if strings.HasPrefix(tok, "-") {
			want = false
			tok = strings.TrimSpace(tok[1:])
		}
		id, ok := gp.LookupAtom(tok)
		if !ok {
			return nil, fmt.Errorf("-assume: atom %q does not occur in the ground program", tok)
		}
		out = append(out, asp.AtomAssumption{Atom: id, True: want})
	}
	return out, nil
}

func solve(w io.Writer, gp *asp.GroundProgram, cfg config, newSolver func() *asp.StableSolver) error {
	allAtoms := make([]asp.AtomID, gp.NumAtoms())
	for i := range allAtoms {
		allAtoms[i] = asp.AtomID(i)
	}
	if cfg.cautious {
		kept, hasModel := newSolver().Cautious(allAtoms)
		if !hasModel {
			fmt.Fprintln(w, "UNSATISFIABLE")
			return nil
		}
		fmt.Fprint(w, "cautious:")
		printAtoms(w, gp, kept)
	}
	if cfg.brave {
		kept, hasModel := newSolver().Brave(allAtoms)
		if !hasModel {
			fmt.Fprintln(w, "UNSATISFIABLE")
			return nil
		}
		fmt.Fprint(w, "brave:")
		printAtoms(w, gp, kept)
	}
	if cfg.cautious || cfg.brave {
		return nil
	}

	solver := newSolver()
	n := 0
	solver.Enumerate(func(m []bool) bool {
		n++
		fmt.Fprintf(w, "Answer %d: %s\n", n, asp.FormatModel(gp, m))
		return cfg.models == 0 || n < cfg.models
	})
	if n == 0 {
		fmt.Fprintln(w, "UNSATISFIABLE")
	} else {
		fmt.Fprintf(w, "SATISFIABLE (%d model(s) shown)\n", n)
	}
	return nil
}

// printStats sums the CDCL work counters over every solver the run
// created (cautious and brave each use their own) in clingo's statistics
// spirit: one comment line, stable field order.
func printStats(w io.Writer, solvers []*asp.StableSolver) {
	var st asp.Stats
	for _, s := range solvers {
		st = st.Add(s.Stats())
	}
	fmt.Fprintf(w, "%% stats: decisions=%d conflicts=%d propagations=%d restarts=%d assumption_solves=%d reductions=%d clauses_deleted=%d\n",
		st.Decisions, st.Conflicts, st.Propagations, st.Restarts, st.AssumptionSolves, st.Reductions, st.ClausesDeleted)
}

func printAtoms(w io.Writer, gp *asp.GroundProgram, atoms []asp.AtomID) {
	for _, a := range atoms {
		fmt.Fprintf(w, " %s", gp.Name(a))
	}
	fmt.Fprintln(w)
}
