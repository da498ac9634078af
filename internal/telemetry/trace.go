package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the hierarchical execution trace: a Tracer collects
// SpanNodes with parent links, the engines attach one node per phase
// (exchange, chase sub-phases, query, signature program), and
// WriteChromeTrace exports the tree in the Chrome trace-event JSON format,
// loadable in about:tracing and Perfetto.
//
// Design constraints match the rest of the package:
//
//   - Nil-safe: every method on a nil *Tracer or nil *ActiveSpan is a
//     no-op, so the engines start/end spans unconditionally and a disabled
//     timeline costs a nil check per phase.
//   - Race-clean: span registration takes the tracer lock once at Start and
//     once at End; arguments are buffered on the (goroutine-local)
//     ActiveSpan and only published at End.
//
// Lanes map to trace-viewer threads ("tid"): spans carry the worker lane
// they ran on, so a parallel query phase renders as one swimlane per pool
// worker while the parent/child links (exported under args) preserve the
// logical tree regardless of lane.

// SpanID identifies one span within a Tracer. The zero value NoSpan means
// "no parent" (a root span).
type SpanID int64

// NoSpan is the parent of root spans.
const NoSpan SpanID = 0

// SpanNode is one finished span of the hierarchical trace. The JSON tags
// are a wire contract: the server returns span trees inline on ?trace=1
// and from /v1/requests/{id}/trace, so field names are pinned snake_case.
type SpanNode struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Lane is the worker lane the span ran on (0 = the caller's goroutine);
	// it becomes the Chrome trace "tid".
	Lane int `json:"lane,omitempty"`
	// Start is the offset from the tracer's epoch; Dur the span length.
	// time.Duration marshals as integer nanoseconds.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Args are sorted key/value annotations (signature keys, counters, ...).
	Args []SpanArg `json:"args,omitempty"`
}

// SpanArg is one span annotation.
type SpanArg struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer collects a hierarchical span tree. The zero value is not usable;
// construct with NewTracer. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	epoch time.Time

	mu        sync.Mutex
	next      int64
	requestID string
	spans     []SpanNode
}

// NewTracer returns an empty tracer whose epoch is "now"; span start
// offsets are relative to it.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetRequestID associates the tracer with one HTTP request; exports stamp
// the ID so traces from concurrent tenants stay distinguishable. Safe on a
// nil tracer.
func (t *Tracer) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.requestID = id
	t.mu.Unlock()
}

// RequestID returns the ID set by SetRequestID ("" on a nil tracer).
func (t *Tracer) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requestID
}

// ActiveSpan is an in-flight span; call End to record it. A nil *ActiveSpan
// (from a nil tracer) is a no-op.
type ActiveSpan struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	lane   int
	start  time.Time
	args   []SpanArg
}

// StartSpan opens a span under parent (NoSpan for a root). Safe on a nil
// tracer, returning a nil no-op span.
func (t *Tracer) StartSpan(parent SpanID, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := SpanID(t.next)
	t.mu.Unlock()
	return &ActiveSpan{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// ID returns the span's id (NoSpan on a nil span), for parenting children.
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return NoSpan
	}
	return s.id
}

// SetLane assigns the worker lane the span runs on (default 0).
func (s *ActiveSpan) SetLane(lane int) {
	if s != nil {
		s.lane = lane
	}
}

// Arg attaches one key/value annotation. Safe on a nil span.
func (s *ActiveSpan) Arg(key, value string) {
	if s != nil {
		s.args = append(s.args, SpanArg{Key: key, Value: value})
	}
}

// ArgInt attaches one integer annotation. Safe on a nil span.
func (s *ActiveSpan) ArgInt(key string, value int64) {
	s.Arg(key, strconv.FormatInt(value, 10))
}

// End records the span into its tracer. Safe on a nil span.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.add(SpanNode{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Lane:   s.lane,
		Start:  s.start.Sub(s.t.epoch),
		Dur:    time.Since(s.start),
		Args:   s.args,
	})
}

// AddSpan records a synthesized span with explicit timing — used for
// sub-phases measured by code that is not tracer-aware (e.g. the chase's
// tgd/violation split, reconstructed from its Stats). It returns the new
// span's id so further children can hang off it. Safe on a nil tracer.
func (t *Tracer) AddSpan(parent SpanID, name string, lane int, start time.Time, dur time.Duration, args ...SpanArg) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	t.next++
	id := SpanID(t.next)
	t.mu.Unlock()
	t.add(SpanNode{ID: id, Parent: parent, Name: name, Lane: lane, Start: start.Sub(t.epoch), Dur: dur, Args: args})
	return id
}

func (t *Tracer) add(n SpanNode) {
	sort.Slice(n.Args, func(i, j int) bool { return n.Args[i].Key < n.Args[j].Key })
	t.mu.Lock()
	t.spans = append(t.spans, n)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans, sorted by start offset with
// ties broken by id (stable for concurrent recorders). Nil tracer: nil.
func (t *Tracer) Spans() []SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanNode, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event, "M" =
// metadata). Field names are fixed by the trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format (the form
// Perfetto and about:tracing both accept).
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace exports the span tree in Chrome trace-event JSON.
// Every span becomes one complete ("X") event: ts/dur in microseconds,
// pid 1, tid = lane, and the span's id, parent id, and annotations under
// args — so the logical tree survives even when parallel spans render on
// different lanes. Lanes get thread_name metadata ("main", "worker-N").
// Safe on a nil tracer (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	reqID := t.RequestID()
	lanes := map[int]bool{}
	out := chromeTrace{TraceEvents: []chromeEvent{}}
	for _, s := range spans {
		lanes[s.Lane] = true
		args := make(map[string]string, len(s.Args)+3)
		for _, a := range s.Args {
			args[a.Key] = a.Value
		}
		args["id"] = strconv.FormatInt(int64(s.ID), 10)
		if s.Parent != NoSpan {
			args["parent"] = strconv.FormatInt(int64(s.Parent), 10)
		}
		if reqID != "" {
			args["request_id"] = reqID
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "xr",
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Lane,
		})
		out.TraceEvents[len(out.TraceEvents)-1].Args = args
	}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		name := "main"
		if l > 0 {
			name = "worker-" + strconv.Itoa(l)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l,
			Args: map[string]string{"name": name},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
