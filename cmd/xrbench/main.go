// Command xrbench regenerates the paper's evaluation tables and figures on
// the synthetic genome-browser benchmark.
//
// Usage:
//
//	xrbench [-experiment all] [-scale 0.1] [-mono-timeout 60s] [-parallel 1] [-quiet]
//	xrbench -json BENCH_S3.json [-profile S3] [-scale 0.1] [-parallel 1]
//
// Experiments: table1 table2 table3 table4 fig3a fig3b fig4a fig4b
// reduction speedup all. -scale 1 selects paper-sized instances (slow);
// the default 0.1 runs the complete grid in minutes.
//
// With -json, xrbench instead runs the segmentary pipeline on one genome
// profile (-profile, default S3) and writes a machine-readable report to
// the given path: host info, exchange-phase stats (the Table 4 columns),
// per-query wall times, and the full telemetry snapshot with solver
// counters. -metrics-addr additionally serves Prometheus/expvar/pprof
// during either mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchkit"
	"repro/internal/telemetry"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "which experiment to run (comma-separated)")
		scale       = flag.Float64("scale", 0.1, "instance scale factor (1 = paper-sized)")
		monoTimeout = flag.Duration("mono-timeout", 60*time.Second, "per-query timeout for monolithic runs")
		parallel    = flag.Int("parallel", 1, "programs solved concurrently per call (0 = GOMAXPROCS)")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		jsonPath    = flag.String("json", "", "write a machine-readable report to this path instead of running experiments")
		profile     = flag.String("profile", "S3", "genome profile for the -json report (S3, M3, L0, L3, L9, L20, F3)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus/expvar/pprof on this address during the run (empty = off)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this path")
		compare     = flag.String("compare", "", "diff a baseline benchkit report (JSON) against -against; exit 4 on regression")
		against     = flag.String("against", "", "current report for -compare (defaults to running -profile fresh)")
		threshold   = flag.Float64("threshold", 10, "regression threshold for -compare, in percent")
	)
	flag.Parse()
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *compare != "" {
		regressed, err := runCompare(*compare, *against, *scale, *monoTimeout, *parallel, *profile, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xrbench:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(4)
		}
		return
	}
	if err := run(*experiment, *scale, *monoTimeout, *parallel, *quiet, *jsonPath, *profile, *metricsAddr, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "xrbench:", err)
		os.Exit(1)
	}
}

func run(experiment string, scale float64, monoTimeout time.Duration, parallel int, quiet bool, jsonPath, profile, metricsAddr, traceOut string) error {
	r, err := benchkit.NewRunner(scale, monoTimeout)
	if err != nil {
		return err
	}
	r.Parallelism = parallel
	if !quiet {
		r.Progress = os.Stderr
	}
	if traceOut != "" {
		r.Tracer = telemetry.NewTracer()
		defer func() {
			if werr := writeTrace(r.Tracer, traceOut); werr != nil {
				fmt.Fprintln(os.Stderr, "xrbench:", werr)
			}
		}()
	}
	if metricsAddr != "" {
		r.Metrics = telemetry.NewRegistry()
		srv, err := telemetry.Serve(metricsAddr, r.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "xrbench: metrics on http://%s/metrics\n", srv.Addr())
	}
	if jsonPath != "" {
		return writeReport(r, profile, jsonPath)
	}
	type exp struct {
		name string
		run  func() (*benchkit.Table, error)
	}
	exps := []exp{
		{"reduction", r.ReductionTable},
		{"table1", r.Table1},
		{"table2", r.Table2},
		{"table3", r.Table3},
		{"table4", r.Table4},
		{"fig4a", r.Figure4Suspect},
		{"fig4b", r.Figure4Size},
		{"fig3a", r.Figure3Suspect},
		{"fig3b", r.Figure3Size},
		{"speedup", func() (*benchkit.Table, error) { return r.Speedup(benchkit.SizeProfiles) }},
		{"ablation", func() (*benchkit.Table, error) { return r.AblationFigure1(200) }},
	}
	want := map[string]bool{}
	for _, name := range strings.Split(experiment, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ran := 0
	var out io.Writer = os.Stdout
	fmt.Fprintf(out, "xrbench: scale=%.3g mono-timeout=%v parallel=%d\n\n", scale, monoTimeout, parallel)
	for _, e := range exps {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("experiment wall time %.1fs", time.Since(start).Seconds()))
		t.Render(out)
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", experiment)
	}
	return nil
}

// writeReport runs the segmentary pipeline on one profile and writes the
// machine-readable report.
func writeReport(r *benchkit.Runner, profile, path string) error {
	rep, err := r.Report(profile)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := rep.Exchange
	fmt.Fprintf(os.Stderr, "xrbench: wrote %s (profile %s, %d queries)\n", path, profile, len(rep.Queries))
	fmt.Fprintf(os.Stderr, "xrbench: exchange %.3fs (chase %.3fs: %d rounds, %d/%d rule evals/skips, %d triggers, %d new facts, %d probes, %d index builds)\n",
		st.Duration.Seconds(), st.ChaseDuration.Seconds(), st.ChaseRounds, st.ChaseRuleEvals, st.ChaseRuleSkips, st.ChaseTriggers, st.ChaseDeltaFacts, st.IndexProbes, st.IndexBuilds)
	return nil
}

// writeTrace exports the runner's span timeline as Chrome trace-event JSON.
func writeTrace(t *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xrbench: wrote trace timeline to %s\n", path)
	return nil
}

// runCompare diffs a baseline report against a current one (read from
// -against, or produced by a fresh run of -profile when -against is empty)
// and prints the per-metric deltas. It reports regressed=true when any
// wall time grew beyond the threshold percentage or any work counter
// changed (see benchkit.CompareReports).
func runCompare(basePath, againstPath string, scale float64, monoTimeout time.Duration, parallel int, profile string, threshold float64) (bool, error) {
	base, err := benchkit.LoadReport(basePath)
	if err != nil {
		return false, err
	}
	var cur *benchkit.BenchReport
	if againstPath != "" {
		if cur, err = benchkit.LoadReport(againstPath); err != nil {
			return false, err
		}
	} else {
		r, err := benchkit.NewRunner(scale, monoTimeout)
		if err != nil {
			return false, err
		}
		r.Parallelism = parallel
		r.Progress = os.Stderr
		if cur, err = r.Report(profile); err != nil {
			return false, err
		}
	}
	diff := benchkit.CompareReports(base, cur, threshold)
	diff.Render(os.Stdout)
	return diff.Regressed(), nil
}
