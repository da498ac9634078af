package server

import (
	"encoding/json"
	"net/http"

	"repro"
	"repro/internal/xr"
)

// NDJSON framing for streamed query answers: one JSON object per line,
// each carrying a "frame" discriminator. Frame order is deterministic —
// header, rows (certain answers), unknowns (?-marked), degraded
// signatures, explanations, stats, end — so clients can act on answers
// as they arrive and still detect truncation (a stream without an "end"
// frame was cut). All framing types are part of the wire contract
// (DESIGN.md §14).

// StreamHeader opens a stream: the query identity and shape.
type StreamHeader struct {
	Frame    string `json:"frame"` // "header"
	Scenario string `json:"scenario"`
	Query    string `json:"query"`
	Mode     string `json:"mode"`
	Arity    int    `json:"arity"`
	Partial  bool   `json:"partial"`
}

// StreamRow is one certain answer tuple.
type StreamRow struct {
	Frame string   `json:"frame"` // "row"
	Tuple []string `json:"tuple"`
}

// StreamUnknown is one undecided tuple, marked "?" per the paper's
// convention for answers that hold in some but possibly not all repairs
// of the degraded signatures.
type StreamUnknown struct {
	Frame string   `json:"frame"` // "unknown"
	Mark  string   `json:"mark"`  // always "?"
	Tuple []string `json:"tuple"`
}

// StreamDegraded reports one skipped signature group.
type StreamDegraded struct {
	Frame     string               `json:"frame"` // "degraded"
	Signature repro.SignatureError `json:"signature"`
}

// StreamExplanation carries one rendered explanation (explain=true only).
type StreamExplanation struct {
	Frame       string            `json:"frame"` // "explanation"
	Explanation repro.Explanation `json:"explanation"`
}

// StreamStats closes the answer section with the per-query measurements,
// marshaled inline after the frame tag exactly as in Answers.
type StreamStats struct {
	Frame string `json:"frame"` // "stats"
	xr.QueryStats
}

// StreamEnd terminates a stream; its counts let clients verify they saw
// every frame.
type StreamEnd struct {
	Frame   string `json:"frame"` // "end"
	Rows    int    `json:"rows"`
	Unknown int    `json:"unknown"`
}

// streamAnswers writes ans as NDJSON frames, flushing after every line so
// rows reach slow consumers incrementally.
func streamAnswers(w http.ResponseWriter, scenario, query, mode string, arity int, ans *repro.Answers) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(v interface{}) {
		_ = enc.Encode(v) // Encode appends the newline
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(StreamHeader{Frame: "header", Scenario: scenario, Query: query, Mode: mode, Arity: arity, Partial: ans.Partial()})
	for _, t := range ans.Tuples {
		emit(StreamRow{Frame: "row", Tuple: t})
	}
	for _, t := range ans.Unknown {
		emit(StreamUnknown{Frame: "unknown", Mark: "?", Tuple: t})
	}
	for _, d := range ans.Degraded {
		emit(StreamDegraded{Frame: "degraded", Signature: d})
	}
	for _, e := range ans.Explanations {
		emit(StreamExplanation{Frame: "explanation", Explanation: e})
	}
	emit(StreamStats{Frame: "stats", QueryStats: ans.QueryStats})
	emit(StreamEnd{Frame: "end", Rows: len(ans.Tuples), Unknown: len(ans.Unknown)})
}
