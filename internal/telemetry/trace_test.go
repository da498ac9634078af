package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan(NoSpan, "root")
	if s != nil {
		t.Fatalf("nil tracer StartSpan = %v, want nil", s)
	}
	s.SetLane(3)
	s.Arg("k", "v")
	s.ArgInt("n", 7)
	if got := s.ID(); got != NoSpan {
		t.Fatalf("nil span ID = %d, want NoSpan", got)
	}
	s.End()
	if id := tr.AddSpan(NoSpan, "x", 0, time.Now(), time.Millisecond); id != NoSpan {
		t.Fatalf("nil tracer AddSpan = %d, want NoSpan", id)
	}
	if sp := tr.Spans(); sp != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", sp)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace not JSON: %v", err)
	}
}

func TestTracerHierarchy(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(NoSpan, "query")
	child := tr.StartSpan(root.ID(), "signature")
	child.SetLane(2)
	child.Arg("signature", "3,7")
	child.ArgInt("candidates", 4)
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "query" || spans[0].Parent != NoSpan {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Name != "signature" || spans[1].Parent != spans[0].ID {
		t.Fatalf("child span wrong: %+v (root id %d)", spans[1], spans[0].ID)
	}
	if spans[1].Lane != 2 {
		t.Fatalf("child lane = %d, want 2", spans[1].Lane)
	}
	// Args come back sorted by key.
	if len(spans[1].Args) != 2 || spans[1].Args[0].Key != "candidates" || spans[1].Args[1].Value != "3,7" {
		t.Fatalf("child args wrong: %+v", spans[1].Args)
	}
}

func TestTracerAddSpanSynthesized(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	parent := tr.AddSpan(NoSpan, "exchange", 0, start, 10*time.Millisecond)
	if parent == NoSpan {
		t.Fatal("AddSpan returned NoSpan")
	}
	tr.AddSpan(parent, "chase/tgds", 0, start, 7*time.Millisecond, SpanArg{Key: "rounds", Value: "3"})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != parent || spans[1].Dur != 7*time.Millisecond {
		t.Fatalf("synthesized child wrong: %+v", spans[1])
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(NoSpan, "query")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.StartSpan(root.ID(), "sig")
				s.SetLane(w + 1)
				s.ArgInt("i", int64(i))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Spans()
	if len(spans) != 8*50+1 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*50+1)
	}
	seen := map[SpanID]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestWriteChromeTraceFormat(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(NoSpan, "query")
	child := tr.StartSpan(root.ID(), "signature 3,7")
	child.SetLane(1)
	child.Arg("signature", "3,7")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output not JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	var sawChild bool
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Pid != 1 {
				t.Fatalf("pid = %d, want 1", ev.Pid)
			}
			if ev.Args["id"] == "" {
				t.Fatalf("complete event missing id arg: %+v", ev)
			}
			if strings.HasPrefix(ev.Name, "signature") {
				sawChild = true
				if ev.Args["parent"] == "" {
					t.Fatalf("child event missing parent arg: %+v", ev)
				}
				if ev.Tid != 1 {
					t.Fatalf("child tid = %d, want lane 1", ev.Tid)
				}
				if ev.Dur <= 0 {
					t.Fatalf("child dur = %v, want > 0", ev.Dur)
				}
				if ev.Args["signature"] != "3,7" {
					t.Fatalf("child signature arg = %q", ev.Args["signature"])
				}
			}
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event name = %q", ev.Name)
			}
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	if complete != 2 || !sawChild {
		t.Fatalf("complete=%d sawChild=%v, want 2 complete with child", complete, sawChild)
	}
	if meta != 2 { // lanes 0 and 1
		t.Fatalf("metadata events = %d, want 2", meta)
	}
}
