package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// fillManifest records the response-side inputs: chased facts and
// clusters per distinct instance loaded, and signatures (programs) per
// query group.
func fillManifest(m *manifest, setupRes []*result, resA [clients][]*result) {
	loads := map[int]*loadResponse{}
	m.Signatures = map[string]int{}
	for _, r := range append(append([]*result(nil), setupRes...), flatten(resA)...) {
		switch {
		case r.load != nil:
			loads[r.op.instance] = r.load
		case r.query != nil:
			if _, ok := m.Signatures[r.op.group]; !ok {
				m.Signatures[r.op.group] = r.query.Answers.Programs
			}
		}
	}
	for i := 0; i < m.Instances; i++ {
		if l := loads[i]; l != nil {
			m.ChasedFacts = append(m.ChasedFacts, l.Stats.TotalFacts)
			m.Clusters = append(m.Clusters, l.Clusters)
		}
	}
	m.ChasedFacts, m.Clusters = rangeOf(m.ChasedFacts), rangeOf(m.Clusters)
}

// spanSet is one query's daemon span tree, indexed.
type spanSet struct {
	nodes    []telemetry.SpanNode
	children map[telemetry.SpanID][]int
}

func indexSpans(nodes []telemetry.SpanNode) spanSet {
	s := spanSet{nodes: nodes, children: map[telemetry.SpanID][]int{}}
	for i, n := range nodes {
		s.children[n.Parent] = append(s.children[n.Parent], i)
	}
	return s
}

// selfTime is a span's duration minus the part of its interval covered by
// its children (overlapping children count once).
func selfTime(parent telemetry.SpanNode, kids []telemetry.SpanNode) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	pa, pb := parent.Start, parent.Start+parent.Dur
	for _, k := range kids {
		a, b := max(k.Start, pa), min(k.Start+k.Dur, pb)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	end = pa
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.Dur - covered
}

// querySpans extracts one query's xr-level numbers from its span tree:
// the query span's self time (rewrite, candidate collection, safe split,
// merge), the summed signature span time, the signature count, and the
// decisions the signature spans report.
func querySpans(nodes []telemetry.SpanNode) (nonsolve, solve time.Duration, sigs int, decisions int64) {
	s := indexSpans(nodes)
	for _, i := range s.children[telemetry.NoSpan] {
		root := s.nodes[i]
		if !strings.HasPrefix(root.Name, "query ") {
			continue
		}
		var kids []telemetry.SpanNode
		for _, j := range s.children[root.ID] {
			k := s.nodes[j]
			kids = append(kids, k)
			if strings.HasPrefix(k.Name, "signature ") {
				solve += k.Dur
				sigs++
				for _, a := range k.Args {
					if a.Key == "decisions" {
						v, _ := strconv.ParseInt(a.Value, 10, 64)
						decisions += v
					}
				}
			}
		}
		nonsolve += selfTime(root, kids)
	}
	return nonsolve, solve, sigs, decisions
}

// groupRow accumulates the per-group breakdown.
type groupRow struct {
	name                                         string
	latency, overhead, respKB, nonsolve, solveMS []float64
	sigs, decisions                              []float64
}

// perLayer fills the traced run's metrics and breakdown tables.
func (rep *report) perLayer(p *plan, resA [clients][]*result, tail []*result, resB [clients][]*result, rp *replay, deltaA map[string]int64, qpsA, qpsB float64) {
	allA := flatten(resA)
	queriesA := okResults(pick(allA, opQuery))
	queriesB := okResults(pick(flatten(resB), opQuery))
	loads := okResults(pick(append(allA, tail...), opLoad))

	// server: client latency minus the engine's own duration, untraced.
	var overhead, respKB, candidates, safe, programs, hits []float64
	rows := map[string]*groupRow{}
	var order []string
	row := func(name string) *groupRow {
		if rows[name] == nil {
			rows[name] = &groupRow{name: name}
			order = append(order, name)
		}
		return rows[name]
	}
	for _, r := range queriesA {
		a := r.query.Answers
		o := ms(r.latency) - float64(a.Duration)/1e6
		overhead = append(overhead, o)
		respKB = append(respKB, float64(r.bytes)/1e3)
		candidates = append(candidates, float64(a.Candidates))
		safe = append(safe, float64(a.SafeAccepted))
		programs = append(programs, float64(a.Programs))
		hits = append(hits, float64(a.CacheHits))
		g := row(r.op.group)
		g.latency = append(g.latency, ms(r.latency))
		g.overhead = append(g.overhead, o)
		g.respKB = append(g.respKB, float64(r.bytes)/1e3)
	}
	// xr: span-derived numbers from the traced phase.
	var nonsolve, solve, sigs []float64
	for _, r := range queriesB {
		ns, so, n, dec := querySpans(r.query.Trace)
		nonsolve = append(nonsolve, ms(ns))
		solve = append(solve, ms(so))
		sigs = append(sigs, float64(n))
		g := row(r.op.group)
		g.nonsolve = append(g.nonsolve, ms(ns))
		g.solveMS = append(g.solveMS, ms(so))
		g.sigs = append(g.sigs, float64(n))
		g.decisions = append(g.decisions, float64(dec))
	}
	// cq: replay time of each query sent, so the median follows the mix.
	var cqMS, cqMatches []float64
	for _, r := range queriesA {
		cqMS = append(cqMS, median(rp.cqMS[r.op.query]))
		cqMatches = append(cqMatches, median(rp.cqMatches[r.op.query]))
	}
	// Loads: exchange stats from the responses, parse from the replay.
	var parse, loadOver, reduce, chaseMS, triggers, facts, env, clusters []float64
	for _, r := range loads {
		st := r.load.Stats
		pm := rp.parseMS[r.op.instance]
		parse = append(parse, pm)
		loadOver = append(loadOver, ms(r.latency)-pm-ms(st.Duration))
		reduce = append(reduce, ms(st.ReduceDuration))
		chaseMS = append(chaseMS, ms(st.ChaseDuration))
		triggers = append(triggers, float64(st.ChaseTriggers))
		facts = append(facts, float64(st.TotalFacts))
		env = append(env, ms(st.EnvDuration))
		clusters = append(clusters, float64(r.load.Clusters))
	}
	nq := float64(len(queriesA))
	perQuery := func(name, counter string) metric {
		return metric{Name: name, Value: float64(deltaA[counter]) / nq, Unit: "count",
			Note: fmt.Sprintf("per query: %d over %d queries", deltaA[counter], len(queriesA))}
	}
	med := func(name, unit string, v []float64, note string) metric {
		return metric{Name: name, Value: median(v), Unit: unit, Samples: len(v), Note: note}
	}
	avg := func(name string, v []float64, note string) metric {
		return metric{Name: name, Value: mean(v), Unit: "count", Samples: len(v), Note: note}
	}
	sessions, builds := deltaA["xr_solver_reuse_sessions_total"], deltaA["xr_solver_reuse_builds_total"]
	rep.metrics = []metric{
		med("server.overhead_ms", "ms", overhead, "median per query: latency - answers.duration_ns"),
		med("server.resp_kb", "KB", respKB, "median response body"),
		med("server.load_overhead_ms", "ms", loadOver, "median per load: latency - parse - stats.duration_ns"),
		med("parser.facts_ms", "ms", parse, "replay: repro.Load + ParseFacts per load body"),
		med("gavreduce.reduce_ms", "ms", reduce, "stats.reduce_duration_ns"),
		med("chase.ms", "ms", chaseMS, "stats.chase_duration_ns"),
		avg("chase.triggers", triggers, "mean per load"),
		avg("chase.facts", facts, "mean total_facts per load"),
		med("xr.envelopes_ms", "ms", env, "stats.env_duration_ns"),
		avg("xr.clusters", clusters, "mean per load"),
		med("cq.eval_ms", "ms", cqMS, "replay: Compile + ForEach per rewritten query"),
		avg("cq.matches", cqMatches, "mean per query"),
		med("xr.nonsolve_ms", "ms", nonsolve, "self time of the query span"),
		med("xr.solve_ms", "ms", solve, "sum of signature spans per query"),
		avg("xr.signatures", sigs, "mean signature spans per query"),
		ratio("xr.safe_ratio", sum(safe), sum(candidates)),
		avg("xr.candidates", candidates, "base of xr.safe_ratio, mean per query"),
		ratio("xr.sigcache_hit_ratio", sum(hits), sum(programs)),
		avg("xr.programs", programs, "base of xr.sigcache_hit_ratio, mean per query"),
		perQuery("asp.decisions", "xr_solver_decisions_total"),
		perQuery("asp.conflicts", "xr_solver_conflicts_total"),
		perQuery("asp.propagations", "xr_solver_propagations_total"),
		ratio("asp.stability_fail_ratio", float64(deltaA["xr_solver_stability_fails_total"]), float64(deltaA["xr_solver_candidates_tested_total"])),
		perQuery("asp.candidates_tested", "xr_solver_candidates_tested_total"),
		ratio("asp.reuse_ratio", float64(sessions), float64(sessions+builds)),
		{Name: "asp.solver_uses", Value: float64(sessions+builds) / nq, Unit: "count",
			Note: fmt.Sprintf("base of asp.reuse_ratio, per query: %d sessions + %d builds", sessions, builds)},
		{Name: "xr.exchange_heap_mb", Value: rp.exchangeHeapMB, Unit: "MB", Samples: 1, Note: "replay: live heap across NewExchangeOpts"},
		{Name: "xr.warm_heap_mb", Value: rp.warmHeapMB, Unit: "MB", Samples: 1, Note: "replay: live heap across one query pass"},
		{Name: "trace.overhead_pct", Value: 100 * (qpsA - qpsB) / qpsA, Unit: "%",
			Note: fmt.Sprintf("qps untraced %.3f vs traced %.3f", qpsA, qpsB)},
	}

	rep.printf("# per-group breakdown (latency, overhead, resp: untraced phase; spans: traced phase; cq: replay)")
	rep.printf("# %-12s %5s %10s %10s %9s %11s %9s %8s %10s %8s", "group", "n", "p50_ms", "ovh_ms", "resp_kb", "nonsolve_ms", "solve_ms", "sigs", "decisions", "cq_ms")
	for _, name := range order {
		g := rows[name]
		cq := "-"
		if q := groupQuery(p, name); q != "" && len(rp.cqMS[q]) > 0 {
			cq = fmt.Sprintf("%.3f", median(rp.cqMS[q]))
		}
		rep.printf("# %-12s %5d %10.3f %10.3f %9.2f %11.3f %9.3f %8.1f %10.1f %8s", name, len(g.latency),
			median(g.latency), median(g.overhead), median(g.respKB), median(g.nonsolve), median(g.solveMS),
			mean(g.sigs), mean(g.decisions), cq)
	}
	path, self := rep.chromeTrace(resB, rp)
	rep.printf("# self time per layer over the traced phase (span minus what its child spans cover):")
	for _, l := range self {
		rep.printf("#   %s", l)
	}
	if path != "" {
		rep.printf("# chrome trace: %s", path)
	}
}

// groupQuery maps a breakdown group to the query it runs.
func groupQuery(p *plan, group string) string {
	var q string
	p.each(func(o *op) {
		if q == "" && o.kind == opQuery && o.group == group {
			q = o.query
		}
	})
	return q
}

func okResults(rs []*result) []*result {
	var out []*result
	for _, r := range rs {
		if r.err == "" {
			out = append(out, r)
		}
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// layerOf names the layer a span's self time belongs to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client "):
		return "server (client span minus daemon spans)"
	case strings.HasPrefix(name, "query "):
		return "xr (query span self: rewrite, candidates, split, merge)"
	case strings.HasPrefix(name, "signature "):
		return "xr+asp (signature span self: ground, solve)"
	case name == "parse":
		return "parser (replay)"
	case name == "exchange":
		return "xr (exchange, outside reduce, chase and envelopes)"
	case name == "reduce":
		return "gavreduce"
	case name == "chase":
		return "chase"
	case name == "envelopes":
		return "xr (envelopes)"
	}
	return "other (" + name + ")"
}

// chromeTrace records one client span per traced request with the daemon's
// span tree (queries) or the load's exchange stats (loads) beneath it,
// writes the Chrome trace, and returns its path and the per-layer self
// time table.
func (rep *report) chromeTrace(resB [clients][]*result, rp *replay) (string, []string) {
	t := telemetry.NewTracer()
	for c, rs := range resB {
		for _, r := range rs {
			if r.err != "" {
				continue
			}
			lane := 10 * (c + 1)
			root := t.AddSpan(telemetry.NoSpan, "client "+r.op.group, lane, r.start, r.latency,
				telemetry.SpanArg{Key: "request_id", Value: r.id}, telemetry.SpanArg{Key: "tenant", Value: r.op.tenant})
			switch {
			case r.query != nil:
				graftDaemonSpans(t, root, lane, r)
			case r.load != nil:
				st := r.load.Stats
				// Parse precedes the exchange phase inside the load handler;
				// both are placed at the end of the client span.
				exStart := r.start.Add(r.latency - st.Duration)
				pm := time.Duration(rp.parseMS[r.op.instance] * 1e6)
				t.AddSpan(root, "parse", lane, exStart.Add(-pm), pm)
				ex := t.AddSpan(root, "exchange", lane, exStart, st.Duration)
				t.AddSpan(ex, "reduce", lane, exStart, st.ReduceDuration)
				t.AddSpan(ex, "chase", lane, exStart.Add(st.ReduceDuration), st.ChaseDuration)
				t.AddSpan(ex, "envelopes", lane, exStart.Add(st.ReduceDuration+st.ChaseDuration), st.EnvDuration)
			}
		}
	}
	nodes := t.Spans()
	s := indexSpans(nodes)
	total := map[string]time.Duration{}
	count := map[string]int{}
	var wall time.Duration
	for _, n := range nodes {
		var kids []telemetry.SpanNode
		for _, j := range s.children[n.ID] {
			kids = append(kids, s.nodes[j])
		}
		l := layerOf(n.Name)
		total[l] += selfTime(n, kids)
		count[l]++
		if n.Parent == telemetry.NoSpan {
			wall += n.Dur
		}
	}
	var layers []string
	for l := range total {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return total[layers[i]] > total[layers[j]] })
	var table []string
	for _, l := range layers {
		table = append(table, fmt.Sprintf("%-58s %10.1f ms  %5.1f%% of client time  (%d spans)",
			l, ms(total[l]), 100*float64(total[l])/float64(wall), count[l]))
	}
	path := filepath.Join(rep.cfg.out, fmt.Sprintf("trace-%s-seed%d.json", rep.cfg.workload, rep.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", table
	}
	defer f.Close()
	if err := t.WriteChromeTrace(f); err != nil {
		return "", table
	}
	return path, table
}

// graftDaemonSpans copies a query's daemon span tree under its client
// span, centred in the client interval (the two clocks are not shared;
// the daemon's offsets are relative to its own request start).
func graftDaemonSpans(t *telemetry.Tracer, root telemetry.SpanID, lane int, r *result) {
	nodes := r.query.Trace
	var extent time.Duration
	for _, n := range nodes {
		extent = max(extent, n.Start+n.Dur)
	}
	var first time.Duration = -1
	for _, n := range nodes {
		if first < 0 || n.Start < first {
			first = n.Start
		}
	}
	shift := r.start.Add((r.latency - (extent - first)) / 2).Add(-first)
	// IDs follow span creation, so a parent precedes its children.
	nodes = append([]telemetry.SpanNode(nil), nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	ids := map[telemetry.SpanID]telemetry.SpanID{}
	for _, n := range nodes {
		parent, ok := ids[n.Parent]
		if !ok {
			parent = root
		}
		ids[n.ID] = t.AddSpan(parent, n.Name, lane+n.Lane, shift.Add(n.Start), n.Dur, n.Args...)
	}
}
