package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeDaemon answers every query with body(r) and every load with a
// ScenarioInfo of 3 source facts.
func fakeDaemon(t *testing.T, body func(*http.Request) (int, string)) *daemonClient {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, b := body(r)
		w.WriteHeader(code)
		_, _ = w.Write([]byte(b))
	}))
	t.Cleanup(srv.Close)
	d := newDaemonClient(srv.URL)
	t.Cleanup(d.close)
	return d
}

func answerBody(tuples [][]string, partial bool, solver int) string {
	b, _ := json.Marshal(map[string]any{
		"partial": partial,
		"answers": map[string]any{"tuples": tuples, "solver_accepted": solver, "duration_ns": 1000},
	})
	return string(b)
}

func TestTamperedResponsesCountAsFailed(t *testing.T) {
	good := [][]string{{"P00001"}, {"P00002"}, {"P00003"}}
	want := &expectation{count: 3, noSolver: true}
	d := digestOf(good)
	want.digest = &d

	cases := []struct {
		name string
		code int
		body string
		fail string // substring of the failure reason; "" = must pass
	}{
		{"correct", 200, answerBody(good, false, 0), ""},
		{"reordered tuples are still correct", 200, answerBody([][]string{good[2], good[0], good[1]}, false, 0), ""},
		{"one tuple changed", 200, answerBody([][]string{{"P00001"}, {"P00002"}, {"P00004"}}, false, 0), "digest"},
		{"tuple dropped", 200, answerBody(good[:2], false, 0), "tuples, want 3"},
		{"degraded answer", 200, answerBody(good, true, 0), "partial"},
		{"solver accepted", 200, answerBody(good, false, 1), "solver_accepted"},
		{"server error", 500, `{"error":"boom"}`, "status 500"},
		{"garbage body", 200, `{"answers":`, "decoding"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dc := fakeDaemon(t, func(*http.Request) (int, string) { return c.code, c.body })
			o := queryOp("t", 0, "ep2", "certain", "ep2", want)
			rep := &report{}
			rep.tally(dc.do(context.Background(), &o, 0))
			if rep.attempted != 1 {
				t.Fatalf("attempted = %d, want 1", rep.attempted)
			}
			if c.fail == "" {
				if rep.failed != 0 || !rep.correct() {
					t.Fatalf("correct response counted as failed: %v", rep.failures)
				}
				return
			}
			if rep.failed != 1 || rep.correct() {
				t.Fatalf("tampered response not counted as failed (failed=%d)", rep.failed)
			}
			if !strings.Contains(rep.failures[0], c.fail) {
				t.Fatalf("failure %q does not name %q", rep.failures[0], c.fail)
			}
		})
	}
}

func TestTransportErrorCountsAsFailed(t *testing.T) {
	dc := newDaemonClient("http://127.0.0.1:1") // nothing listens on port 1
	defer dc.close()
	o := deleteOp("t")
	rep := &report{}
	rep.tally(dc.do(context.Background(), &o, 0))
	if rep.failed != 1 || !strings.Contains(rep.failures[0], "transport") {
		t.Fatalf("transport error not counted as failed: failed=%d %v", rep.failed, rep.failures)
	}
}

func TestTricolorOracleIsEngineIndependent(t *testing.T) {
	p, err := buildPlan(wlTricolorSolve, 3, 10, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.instances {
		g := in.graph
		// Certain exactly when the graph contains K4, i.e. (at most 6
		// edges) exactly when it has no proper 3-colouring.
		if g.K4 != (g.Colour == nil) {
			t.Fatalf("%s %v: contains K4 = %v but 3-colouring = %v", g.Family, g.Edges, g.K4, g.Colour)
		}
		if g.K4 != (g.Family == "K4") {
			t.Fatalf("family %s classified K4=%v", g.Family, g.K4)
		}
		adj := g.adjacency()
		for u, cu := range g.Colour {
			for v, cv := range g.Colour {
				if u != v && cu == cv && adj[[2]string{u, v}] {
					t.Fatalf("colouring of %v is not proper at %s-%s", g.Edges, u, v)
				}
			}
		}
	}
	p.each(func(o *op) {
		if o.kind != opQuery {
			return
		}
		g := p.instances[o.instance].graph
		want := 0
		if g.K4 || o.group == "possible" {
			want = 1
		}
		if o.want.count != want {
			t.Fatalf("%s ask on %s expects %d tuples, want %d", o.group, g.Family, o.want.count, want)
		}
	})
}
