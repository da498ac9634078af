// Package benchkit regenerates every table and figure of the paper's
// evaluation (Section 5.2 and 6.5) against the synthetic genome-browser
// scenario: instance statistics (Tables 1–2), the query suite (Table 3),
// exchange-phase durations (Table 4), per-query runtimes of the monolithic
// (Figure 3) and segmentary (Figure 4) pipelines, the reduction-blowup
// statistic (§5.2), and the headline monolithic-vs-segmentary speedup.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/genome"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/xr"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner executes experiments with shared, cached exchange phases.
type Runner struct {
	// Scale multiplies the paper's instance sizes (1 = paper-scale,
	// default 0.1).
	Scale float64
	// MonoTimeout bounds each monolithic query (0 = none). The paper's
	// monolithic runs at large sizes are effectively unbounded; ours are
	// reported as ">timeout" when exceeded, matching its log-log reading.
	MonoTimeout time.Duration
	// Parallelism is the per-call worker count for both engines (values
	// below 2 run sequentially, matching the paper's setup).
	Parallelism int
	// Progress receives progress notes (nil = quiet).
	Progress io.Writer
	// Metrics, when non-nil, aggregates engine telemetry across every
	// exchange and query the runner executes (see internal/telemetry).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records a hierarchical span timeline of every
	// exchange and query the runner executes (see internal/telemetry).
	Tracer *telemetry.Tracer

	world     *parser.World
	exchanges map[string]*xr.Exchange
	sources   map[string]*instance.Instance
}

// NewRunner returns a runner with the given scale (0 selects the default
// 0.1) and per-query monolithic timeout.
func NewRunner(scale float64, monoTimeout time.Duration) (*Runner, error) {
	if scale == 0 {
		scale = 0.1
	}
	w, err := genome.NewWorld()
	if err != nil {
		return nil, err
	}
	return &Runner{
		Scale:       scale,
		MonoTimeout: monoTimeout,
		world:       w,
		exchanges:   make(map[string]*xr.Exchange),
		sources:     make(map[string]*instance.Instance),
	}, nil
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format+"\n", args...)
	}
}

func (r *Runner) profile(name string) (genome.Profile, error) {
	p, ok := genome.ProfileByName(name, r.Scale)
	if !ok {
		return genome.Profile{}, fmt.Errorf("benchkit: unknown profile %q", name)
	}
	return p, nil
}

func (r *Runner) source(name string) (*instance.Instance, error) {
	if in, ok := r.sources[name]; ok {
		return in, nil
	}
	p, err := r.profile(name)
	if err != nil {
		return nil, err
	}
	r.logf("generating %s (%d transcripts, %.1f%% suspect)...", name, p.Transcripts, 100*p.SuspectRate)
	in := genome.Generate(r.world, p)
	r.sources[name] = in
	return in, nil
}

func (r *Runner) exchange(name string) (*xr.Exchange, error) {
	if ex, ok := r.exchanges[name]; ok {
		return ex, nil
	}
	in, err := r.source(name)
	if err != nil {
		return nil, err
	}
	r.logf("exchange phase for %s (%d source facts)...", name, in.Len())
	// Profiling is on for every benchmark exchange: reports embed the
	// hottest signatures, and the profiler's counters land in the metrics
	// snapshot (gated as notes, not work counters, by -compare).
	ex, err := xr.NewExchangeOpts(r.world.M, in, xr.Options{Metrics: r.Metrics, Tracer: r.Tracer, Profiling: true})
	if err != nil {
		return nil, err
	}
	r.exchanges[name] = ex
	return ex, nil
}

// answer runs one segmentary query with the runner's parallelism.
func (r *Runner) answer(ex *xr.Exchange, q *logic.UCQ) (*xr.Result, error) {
	return ex.AnswerOpts(q, xr.Options{Parallelism: r.Parallelism, Metrics: r.Metrics, Tracer: r.Tracer})
}

// monoOptions returns the monolithic engine options for this runner.
func (r *Runner) monoOptions() xr.Options {
	return xr.Options{Timeout: r.MonoTimeout, Parallelism: r.Parallelism, Metrics: r.Metrics, Tracer: r.Tracer}
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// SizeProfiles is the instance-size axis (paper: S3, M3, L3, F3).
var SizeProfiles = []string{"S3", "M3", "L3", "F3"}

// SuspectProfiles is the suspect-rate axis (paper: L0, L3, L9, L20).
var SuspectProfiles = []string{"L0", "L3", "L9", "L20"}

// QueryOrder fixes the row order of the query suite, as in Table 3.
var QueryOrder = []string{"ep1", "ep2", "ep3", "ep15", "ep16", "xr1", "xr2", "xr3", "xr4", "xr5", "xr6"}
