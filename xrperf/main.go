// Command xrperf is the end-to-end benchmark of xrserved. It generates one
// workload's inputs from a seed, boots the xrserved binary built from the
// same checkout (in memory, on a loopback ephemeral port, default flags),
// drives it over HTTP from two closed-loop clients, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) followed by one JSON summary line. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupsBefore and setupsAfter are how many times an untraced run sets up
// (boot, initial loads, warm pass) from a fresh daemon before and after the
// measured phase; setup_s is the median of all of them. The last set-up
// before the phase serves it. Spreading the set-ups around the phase keeps
// a host stall of a second or two from moving every sample of a run.
const setupsBefore, setupsAfter = 3, 4

// endToEnd and perLayer name the reported metrics in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "qps", "query_p50_ms", "query_p95_ms", "load_p50_ms", "server_heap_mb"}

var perLayer = []string{
	"server.overhead_ms", "server.resp_kb", "server.load_overhead_ms",
	"parser.facts_ms", "gavreduce.reduce_ms",
	"chase.ms", "chase.triggers", "chase.facts",
	"xr.envelopes_ms", "xr.clusters",
	"cq.eval_ms", "cq.matches",
	"xr.nonsolve_ms", "xr.solve_ms", "xr.signatures",
	"xr.safe_ratio", "xr.candidates", "xr.sigcache_hit_ratio", "xr.programs",
	"asp.decisions", "asp.conflicts", "asp.propagations",
	"asp.stability_fail_ratio", "asp.candidates_tested", "asp.reuse_ratio", "asp.solver_uses",
	"xr.exchange_heap_mb", "xr.warm_heap_mb",
	"trace.overhead_pct",
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // xrserved binary
	out      string // output directory for logs, traces and run records
}

// report is one run's outcome.
type report struct {
	cfg       config
	attempted int
	failed    int
	failures  []string // first few failure reasons
	problems  []string // non-request correctness failures
	metrics   []metric
	manifest  manifest
	counters  map[string]int64 // phase work-counter deltas
	lines     []string         // human-readable report body
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// tally counts results into attempted/failed.
func (r *report) tally(results ...*result) {
	for _, res := range results {
		r.attempted++
		if res.err != "" {
			r.failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, fmt.Sprintf("%s %s (%s): %s", res.op.method, res.op.path, res.id, res.err))
			}
		}
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "target length of the measured phase; sets its fixed operation count")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.bin, "xrserved", "", "xrserved binary to benchmark (required)")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "xrperf"), "directory for daemon logs, traces and run records")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.bin == "" || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, cfg)
	cancel()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xrperf:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xrperf:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes one benchmark run. Every daemon it starts is stopped before
// it returns.
func run(ctx context.Context, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	p, err := buildPlan(cfg.workload, cfg.seed, cfg.seconds, "a")
	if err != nil {
		return nil, err
	}
	digests, err := libraryOracle(p)
	if err != nil {
		return nil, err
	}
	attachDigests(p, digests)
	var rp *replay
	if cfg.trace {
		if rp, err = runReplay(p); err != nil {
			return nil, err
		}
	}
	rep := &report{cfg: cfg, manifest: p.manifest()}
	rep.manifest.HostProbeMS = hostProbeMS()

	// Set-up: boot, initial loads and (genome-read) the warm pass, each
	// from a fresh daemon. The phase daemon's log is xrserved.log.
	var setupS []float64
	var setupRes []*result
	setUp := func(logName string) (*daemon, *daemonClient, error) {
		start := time.Now()
		d, err := startDaemon(ctx, cfg.bin, cfg.out, logName)
		if err != nil {
			return nil, nil, err
		}
		boot := time.Since(start)
		dc := newDaemonClient(d.base)
		res := dc.sequential(ctx, p.setup, 0)
		setupS = append(setupS, time.Since(start).Seconds())
		rep.printf("# set-up %d: %.4f s, boot %.4f s", len(setupS), setupS[len(setupS)-1], boot.Seconds())
		rep.tally(res...)
		setupRes = append(setupRes, res...)
		if err := ctx.Err(); err != nil {
			dc.close()
			d.stop()
			return nil, nil, err
		}
		return d, dc, nil
	}
	before, after := setupsBefore, setupsAfter
	if cfg.trace {
		before, after = 1, 0
	}
	var d *daemon
	var dc *daemonClient
	for k := 0; k < before; k++ {
		if d != nil {
			dc.close()
			d.stop()
		}
		if d, dc, err = setUp("xrserved.log"); err != nil {
			return nil, err
		}
	}
	defer d.stop()
	defer dc.close()

	daemonCPU, clientCPU := processCPU(d.cmd.Process.Pid), processCPU(os.Getpid())
	steal0, ticks0 := hostTicks()
	resA, wallA, deltaA, err := measure(ctx, dc, p.phase)
	if err != nil {
		return nil, err
	}
	rep.tally(flatten(resA)...)
	if steal1, ticks1 := hostTicks(); ticks1 > ticks0 {
		rep.manifest.HostStealPct = 100 * (steal1 - steal0) / (ticks1 - ticks0)
	}
	rep.printf("# phase: %.3f s wall, daemon %.3f s cpu, client %.3f s cpu; host probe %.1f ms, host steal %.1f%%",
		wallA.Seconds(), processCPU(d.cmd.Process.Pid)-daemonCPU, processCPU(os.Getpid())-clientCPU,
		rep.manifest.HostProbeMS, rep.manifest.HostStealPct)
	heap, err := dc.heapAfterGC(ctx)
	if err != nil {
		return nil, err
	}
	tail := dc.sequential(ctx, p.tail, 0)
	rep.tally(tail...)
	rep.counters = deltaA
	fillManifest(&rep.manifest, setupRes, resA)

	queriesA := pick(flatten(resA), opQuery)
	qpsA := float64(len(queriesA)) / wallA.Seconds()
	if !cfg.trace {
		dc.close()
		d.stop()
		for k := 0; k < after; k++ {
			d2, dc2, err := setUp("xrserved-setup.log")
			if err != nil {
				return nil, err
			}
			dc2.close()
			d2.stop()
		}
		if err := rep.endToEnd(setupS, resA, tail, qpsA, heap); err != nil {
			return nil, err
		}
		rep.checkCountersAcrossRuns()
		return rep, rep.record()
	}

	// Traced run: replay the phase on fresh tenants (genome-read: on the
	// same shared tenant) with ?trace=1 and client spans.
	pb, err := buildPlan(cfg.workload, cfg.seed, cfg.seconds, "b")
	if err != nil {
		return nil, err
	}
	attachDigests(pb, digests)
	if cfg.workload != wlGenomeRead {
		rep.tally(dc.sequential(ctx, pb.setup, 0)...)
	}
	dc.traced = true
	resB, wallB, deltaB, err := measure(ctx, dc, pb.phase)
	if err != nil {
		return nil, err
	}
	rep.tally(flatten(resB)...)
	qpsB := float64(len(pick(flatten(resB), opQuery))) / wallB.Seconds()
	rep.compareCounters("untraced phase", deltaA, "traced phase", deltaB)
	rep.perLayer(p, resA, tail, resB, rp, deltaA, qpsA, qpsB)
	return rep, rep.record()
}

// measure runs one measured phase and returns its results, wall time and
// work-counter deltas.
func measure(ctx context.Context, dc *daemonClient, seqs [clients][]op) ([clients][]*result, time.Duration, map[string]int64, error) {
	before, err := dc.counters(ctx)
	if err != nil {
		return [clients][]*result{}, 0, nil, err
	}
	res, wall := dc.phase(ctx, seqs)
	after, err := dc.counters(ctx)
	if err != nil {
		return res, wall, nil, err
	}
	return res, wall, workDeltas(before, after), ctx.Err()
}

// processCPU returns a process's user+system CPU seconds from /proc (NaN
// where unavailable). It is diagnostic only: it shows whether a slow run
// burned more CPU or got less of it.
func processCPU(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// Fields after the parenthesized command: state is field 3, utime and
	// stime are fields 14 and 15, in clock ticks (100 per second on Linux).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return math.NaN()
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return (ut + st) / 100
}

// hostTicks returns the machine's CPU time counters from /proc/stat, summed
// over CPUs: the ticks the hypervisor gave to other guests (steal) and all
// ticks (zeros where unavailable). It is diagnostic only: a phase that lost
// CPU to other guests ran slower for reasons outside the program.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func flatten(rs [clients][]*result) []*result {
	var out []*result
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// pick filters results by operation kind.
func pick(rs []*result, kind opKind) []*result {
	var out []*result
	for _, r := range rs {
		if r.op.kind == kind {
			out = append(out, r)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies returns the latency samples in ms of successful results.
func latencies(rs []*result) []float64 {
	var out []float64
	for _, r := range rs {
		if r.err == "" {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

// endToEnd fills the untraced run's metrics.
func (rep *report) endToEnd(setupS []float64, resA [clients][]*result, tail []*result, qps float64, heap uint64) error {
	all := flatten(resA)
	queries := latencies(pick(all, opQuery))
	loads := latencies(pick(append(all, tail...), opLoad))
	q95, err := p95(queries)
	if err != nil {
		return err
	}
	rep.metrics = []metric{
		{Name: "setup_s", Value: median(setupS), Unit: "s", Samples: len(setupS), Note: fmt.Sprintf("median of fresh-daemon set-ups %.4f", setupS)},
		{Name: "qps", Value: qps, Unit: "1/s", Samples: len(queries), Note: "queries / measured wall time"},
		{Name: "query_p50_ms", Value: median(queries), Unit: "ms", Samples: len(queries)},
		{Name: "query_p95_ms", Value: q95, Unit: "ms", Samples: len(queries), Note: fmt.Sprintf("%d samples beyond", beyond(len(queries), 95))},
		{Name: "load_p50_ms", Value: median(loads), Unit: "ms", Samples: len(loads), Note: "loads in and after the measured phase"},
		{Name: "server_heap_mb", Value: float64(heap) / 1e6, Unit: "MB", Samples: 1, Note: "HeapAlloc after forced GC"},
	}
	return nil
}

// workDeltas returns the phase deltas of the daemon's unlabeled engine
// counters (xr_* outside the server's per-route and per-tenant series).
func workDeltas(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range after {
		if !isWorkCounter(name) {
			continue
		}
		if dv := v - before[name]; dv != 0 {
			out[name] = dv
		}
	}
	return out
}

func isWorkCounter(name string) bool {
	return strings.HasPrefix(name, "xr_") && !strings.Contains(name, "{") &&
		!strings.HasPrefix(name, "xr_server_") && !strings.HasPrefix(name, "xr_http_")
}

// exactCounters reports whether the workload's work counters must repeat
// exactly: true when every tenant has a single client. On genome-read the
// two clients interleave sessions on shared persistent solvers, so only
// their spread is reported.
func exactCounters(workload string) bool { return workload != wlGenomeRead }

// compareCounters checks two counter-delta sets of identical work.
func (rep *report) compareCounters(nameA string, a map[string]int64, nameB string, b map[string]int64) {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	diffs := 0
	for _, n := range sorted {
		if a[n] == b[n] {
			continue
		}
		diffs++
		spread := 0.0
		if a[n] != 0 {
			spread = 100 * float64(b[n]-a[n]) / float64(a[n])
		}
		rep.printf("# counter %-44s %s=%d %s=%d (%+.2f%%)", n, nameA, a[n], nameB, b[n], spread)
	}
	switch {
	case diffs == 0:
		rep.printf("# counters: %d work-counter deltas repeat exactly (%s vs %s)", len(sorted), nameA, nameB)
	case exactCounters(rep.cfg.workload):
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d work-counter deltas differ between %s and %s", diffs, len(sorted), nameA, nameB))
	default:
		rep.printf("# counters: %d of %d deltas differ (%s vs %s): two clients share solvers, spread reported only", diffs, len(sorted), nameA, nameB)
	}
}

// checkCountersAcrossRuns compares this run's counter deltas with an
// earlier run of the same binary and requests in the same checkout, if one
// was recorded, and records this run's for the next. A run with failed
// requests did other work, so it neither compares nor records.
func (rep *report) checkCountersAcrossRuns() {
	if !rep.correct() {
		return
	}
	key := fmt.Sprintf("counters-%s-%s-%s.json", rep.cfg.workload, rep.manifest.RequestSHA256[:16], binaryID(rep.cfg.bin))
	path := filepath.Join(rep.cfg.out, key)
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if json.Unmarshal(b, &prev) == nil {
			rep.compareCounters("earlier run", prev, "this run", rep.counters)
			return
		}
	}
	if b, err := json.Marshal(rep.counters); err == nil {
		_ = os.WriteFile(path, b, 0o644) // best effort: only a later run reads it
	}
}

// binaryID identifies the daemon build by a hash of its bytes.
func binaryID(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record writes the run's manifest, metrics and counters beside each other.
func (rep *report) record() error {
	out := struct {
		Manifest manifest         `json:"inputs"`
		Metrics  []metric         `json:"metrics"`
		Counters map[string]int64 `json:"counter_deltas"`
		Report   []string         `json:"report"`
		Failures []string         `json:"failures,omitempty"`
		Problems []string         `json:"problems,omitempty"`
	}{rep.manifest, rep.metrics, rep.counters, rep.lines, rep.failures, rep.problems}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	suffix := ""
	if rep.cfg.trace {
		suffix = "-trace"
	}
	return os.WriteFile(filepath.Join(rep.cfg.out, fmt.Sprintf("run-%s-seed%d%s.json", rep.cfg.workload, rep.cfg.seed, suffix)), b, 0o644)
}

// write prints the human-readable report and, last, the JSON summary line.
func (rep *report) write(w io.Writer) error {
	mode := "end-to-end"
	if rep.cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "# xrperf %s seed=%d seconds=%d: %s metrics\n", rep.cfg.workload, rep.cfg.seed, rep.cfg.seconds, mode)
	if b, err := json.Marshal(rep.manifest); err == nil {
		fmt.Fprintf(w, "# inputs %s\n", b)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range rep.metrics {
		fmt.Fprintln(w, m.String())
	}
	fmt.Fprintf(w, "# requests: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "xrperf: failed:", f)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "xrperf: incorrect:", p)
	}
	want := endToEnd
	if rep.cfg.trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range rep.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	for _, n := range want {
		if _, ok := metrics[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(metrics) != len(want) {
		return errors.New("report carries metrics outside the declared list")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
