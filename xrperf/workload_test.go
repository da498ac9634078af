package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSameSeedGivesIdenticalRequests(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := buildPlan(wl, 7, 10, "a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(wl, 7, 10, "a")
		if err != nil {
			t.Fatal(err)
		}
		if a.requestDigest() != b.requestDigest() {
			t.Fatalf("%s: seed 7 twice gave different request sequences", wl)
		}
		var seqA, seqB [][]byte
		a.each(func(o *op) { seqA = append(seqA, append([]byte(o.method+" "+o.path+" "), o.body...)) })
		b.each(func(o *op) { seqB = append(seqB, append([]byte(o.method+" "+o.path+" "), o.body...)) })
		if !reflect.DeepEqual(seqA, seqB) {
			t.Fatalf("%s: request bodies or order differ for one seed", wl)
		}
	}
}

func TestOtherSeedGivesOtherInstancesOfTheSameShape(t *testing.T) {
	for _, wl := range workloadNames {
		a, _ := buildPlan(wl, 7, 10, "a")
		b, _ := buildPlan(wl, 8, 10, "a")
		if a.requestDigest() == b.requestDigest() {
			t.Fatalf("%s: seeds 7 and 8 gave identical requests", wl)
		}
		ma, mb := a.manifest(), b.manifest()
		if len(a.instances) != len(b.instances) || ma.PhaseQueries != mb.PhaseQueries ||
			ma.PhaseLoads != mb.PhaseLoads || ma.PhaseOps != mb.PhaseOps {
			t.Fatalf("%s: request counts depend on the seed: %+v vs %+v", wl, ma, mb)
		}
		for i := range a.instances {
			if a.instances[i].Facts == b.instances[i].Facts {
				t.Fatalf("%s: instance %d identical across seeds", wl, i)
			}
		}
		if wl == wlTricolorSolve {
			if !reflect.DeepEqual(ma.Families, mb.Families) || ma.ContainsK4 != mb.ContainsK4 {
				t.Fatalf("graph mix depends on the seed: %v vs %v", ma.Families, mb.Families)
			}
			// Set-up time must not depend on which shapes a seed puts first.
			if fa, fb := setupShapes(a), setupShapes(b); !reflect.DeepEqual(fa, fb) {
				t.Fatalf("set-up loads depend on the seed: %v vs %v", fa, fb)
			}
		} else if !reflect.DeepEqual(ma.SourceFacts, mb.SourceFacts) {
			t.Fatalf("%s: source fact counts depend on the seed: %v vs %v", wl, ma.SourceFacts, mb.SourceFacts)
		}
	}
}

// setupShapes lists the edge lists (in vertex order) of the graphs a
// tricolor plan loads in set-up, sorted.
func setupShapes(p *plan) []string {
	var out []string
	for _, o := range p.setup {
		g := p.instances[o.instance].graph
		idx := map[string]int{}
		for i, v := range g.Vertices {
			idx[v] = i
		}
		var edges []string
		for _, e := range g.Edges {
			edges = append(edges, fmt.Sprintf("%d>%d", idx[e[0]], idx[e[1]]))
		}
		out = append(out, g.Family+" "+strings.Join(edges, ","))
	}
	sort.Strings(out)
	return out
}

func TestGenomePhasesRunInPairedRounds(t *testing.T) {
	for _, wl := range []string{wlGenomeRead, wlGenomeChurn} {
		p, err := buildPlan(wl, 7, 10, "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(p.phase[0]) != len(p.phase[1]) {
			t.Fatalf("%s: clients send %d and %d requests", wl, len(p.phase[0]), len(p.phase[1]))
		}
		for k := range p.phase[0] {
			for c := range p.phase {
				o := p.phase[c][k]
				if o.kind != p.phase[0][k].kind || o.group != p.phase[0][k].group {
					t.Fatalf("%s: round %d mixes %s and %s requests", wl, k, p.phase[0][k].group, o.group)
				}
				if o.signal == nil {
					t.Fatalf("%s: client %d request %d signals nothing", wl, c, k)
				}
				var want []chan struct{}
				if k > 0 {
					for prev := range p.phase {
						want = append(want, p.phase[prev][k-1].signal)
					}
				}
				if !reflect.DeepEqual(o.await, want) {
					t.Fatalf("%s: client %d request %d does not wait for exactly round %d", wl, c, k, k-1)
				}
			}
		}
	}
}

func TestTagOnlyRenamesTenants(t *testing.T) {
	a, _ := buildPlan(wlGenomeChurn, 7, 10, "a")
	b, _ := buildPlan(wlGenomeChurn, 7, 10, "b")
	if a.requestDigest() == b.requestDigest() {
		t.Fatal("tag did not rename the tenants")
	}
	for c := range a.phase {
		for i := range a.phase[c] {
			oa, ob := a.phase[c][i], b.phase[c][i]
			if oa.kind != ob.kind || oa.group != ob.group || oa.instance != ob.instance {
				t.Fatalf("tag changed the request sequence at client %d op %d", c, i)
			}
			if oa.kind == opLoad {
				na, nb := bodyWithoutName(t, oa.body), bodyWithoutName(t, ob.body)
				if !bytes.Equal(na, nb) {
					t.Fatalf("tag changed a load body beyond the tenant name")
				}
			}
		}
	}
}

func bodyWithoutName(t *testing.T, b []byte) []byte {
	t.Helper()
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "name")
	out, _ := json.Marshal(m)
	return out
}

func TestGenomeShape(t *testing.T) {
	p, err := buildPlan(wlGenomeRead, 1, 10, "a")
	if err != nil {
		t.Fatal(err)
	}
	in := p.instances[0]
	if in.NonSuspect != 1280 || in.SourceFacts != 14134 {
		t.Fatalf("genome-read instance: %d non-suspect, %d source facts; want 1280, 14134", in.NonSuspect, in.SourceFacts)
	}
	names := genomeQueryNames()
	if len(names) != 11 || names[0] != "ep1" || names[10] != "xr6" {
		t.Fatalf("suite names = %v", names)
	}
	c, _ := buildPlan(wlGenomeChurn, 1, 10, "a")
	if got := c.instances[0]; got.NonSuspect != 328 || got.SourceFacts != 3181 {
		t.Fatalf("genome-churn instance: %d non-suspect, %d source facts; want 328, 3181", got.NonSuspect, got.SourceFacts)
	}
}

func TestGadgetMatchesExample(t *testing.T) {
	src, err := os.ReadFile("../examples/tricolor/main.go")
	if err != nil {
		t.Skip("examples/tricolor not present:", err)
	}
	s := string(src)
	i := strings.Index(s, "const gadget = `")
	if i < 0 {
		t.Fatal("examples/tricolor/main.go has no gadget constant")
	}
	rest := s[i+len("const gadget = `"):]
	if example := rest[:strings.IndexByte(rest, '`')]; example != tricolorGadget {
		t.Fatal("tricolorGadget no longer matches examples/tricolor: update the copy (this changes the workload)")
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, reported %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, reported %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if _, err := buildPlan(w, 1, 10, "a"); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w, err)
		}
	}
}
