// Package explain defines per-tuple explanations for XR-Certain query
// answering: why a candidate tuple was accepted, rejected, or left unknown
// by the segmentary engine.
//
// The engine (internal/xr) produces Explanation values; this package only
// holds the data model and a deterministic text renderer. The witness
// inside a rejected explanation is a concrete counterexample
// exchange-repair extracted from one stable model of the tuple's signature
// program (see DESIGN.md §13): the source facts it drops, the suspect facts
// it keeps, and the target facts that disappear with the dropped sources.
// Because one stable model of Π_sig corresponds to one repair of the
// signature's sub-world — and disjoint clusters are independent — the
// witness extends to a full source repair whose solution misses the tuple.
//
// Rendering is deterministic: all fact lists are sorted by FactID before
// they reach the renderer, and the renderer itself introduces no
// nondeterminism, so output is byte-identical across runs, parallelism
// levels, and signature-cache states.
package explain

import (
	"strconv"
	"strings"

	"repro/internal/chase"
	"repro/internal/symtab"
)

// Verdict classifies one candidate tuple's outcome.
type Verdict string

const (
	// Safe: accepted without solving — some support lies entirely in the
	// safe part, so the tuple holds in every XR-solution (Proposition 3).
	Safe Verdict = "safe"
	// Certain: accepted by the solver — the signature program constrained
	// to refute the tuple has no stable model, i.e. no counterexample
	// repair exists.
	Certain Verdict = "certain"
	// Rejected: a counterexample exchange-repair exists (see Witness).
	Rejected Verdict = "rejected"
	// Possible: brave reasoning — a supporting exchange-repair exists
	// (the Witness is the supporting repair, not a counterexample).
	Possible Verdict = "possible"
	// Impossible: brave reasoning — no exchange-repair satisfies the tuple.
	Impossible Verdict = "impossible"
	// Unknown: the tuple's signature group degraded (budget, timeout, or a
	// contained panic) under partial-results mode; Cause and Retries say why.
	Unknown Verdict = "unknown"
	// NoSupport: the tuple has no support in the quasi-solution at all —
	// it is not a candidate, hence trivially not an XR-certain answer.
	NoSupport Verdict = "no-support"
)

// ClusterInfo summarizes one violation cluster touched by a tuple's
// signature.
type ClusterInfo struct {
	ID            int // cluster index — the digits of the signature key
	Violations    int // violated ground egds in the cluster
	EnvelopeSize  int // source facts in the cluster's repair envelope
	InfluenceSize int // facts in the cluster's influence (target half)
}

// Witness is one concrete exchange-repair extracted from a stable model of
// the signature program. For a Rejected tuple it is a counterexample: a
// repair of the signature's sub-world whose solution does not contain the
// tuple. For a Possible tuple it is a supporting repair. All slices are
// sorted by FactID.
type Witness struct {
	// DroppedSource lists the suspect source facts the repair deletes.
	DroppedSource []chase.FactID
	// KeptSuspect lists the suspect source facts the repair keeps (the safe
	// part is kept by every repair and is not listed).
	KeptSuspect []chase.FactID
	// MissingTarget lists the derived facts of the sub-world that disappear
	// from the repair's solution once the dropped sources are gone.
	MissingTarget []chase.FactID
}

// Explanation is the full account of one candidate tuple's outcome.
type Explanation struct {
	Query   string
	Tuple   []symtab.Value
	Verdict Verdict
	// Signature is the canonical cluster-signature key ("2,7"); it matches
	// TraceEvent.SignatureKey and SignatureError.Signature, so -explain
	// output and -trace lines cross-reference by the same vocabulary.
	// Empty for tuples that never reached a signature program.
	Signature string
	Clusters  []ClusterInfo
	// Support is the support closure of the tuple's candidate supports:
	// every fact (source and derived) grounding the tuple in the
	// quasi-solution, sorted by FactID.
	Support []chase.FactID
	// Witness is set for Rejected and Possible verdicts.
	Witness *Witness
	// ModelsExamined counts the classical models tested for stability while
	// searching for the witness (0 for Safe/Unknown/NoSupport).
	ModelsExamined int
	// Cause classifies an Unknown verdict: "budget", "timeout", "panic",
	// "canceled", or "error". Deliberately a stable token, not the raw
	// error text (panic stacks are nondeterministic).
	Cause string
	// Retries counts the budget-doubling retries spent before degrading.
	Retries int
}

// Renderer turns explanations into deterministic text. FormatFact and
// FormatValue supply the symbol tables (the engine layer has them; this
// package does not).
type Renderer struct {
	FormatFact  func(chase.FactID) string
	FormatValue func(symtab.Value) string
	// MaxFacts caps each rendered fact list; 0 means the default (16).
	// Truncated lists end with "... (+N more)". The cap keeps genome-scale
	// explanations readable; the Explanation value itself is never truncated.
	MaxFacts int
}

func (r *Renderer) maxFacts() int {
	if r.MaxFacts > 0 {
		return r.MaxFacts
	}
	return 16
}

func (r *Renderer) tuple(e *Explanation) string {
	parts := make([]string, len(e.Tuple))
	for i, v := range e.Tuple {
		parts[i] = r.FormatValue(v)
	}
	return e.Query + "(" + strings.Join(parts, ", ") + ")"
}

func (r *Renderer) facts(ids []chase.FactID) string {
	n := len(ids)
	shown := n
	if shown > r.maxFacts() {
		shown = r.maxFacts()
	}
	parts := make([]string, 0, shown+1)
	for _, f := range ids[:shown] {
		parts = append(parts, r.FormatFact(f))
	}
	if n > shown {
		parts = append(parts, "... (+"+strconv.Itoa(n-shown)+" more)")
	}
	return strings.Join(parts, "; ")
}

// Render produces the explanation's text block (multi-line, trailing
// newline). Output is a pure function of the Explanation value.
func (r *Renderer) Render(e *Explanation) string {
	var b strings.Builder
	b.WriteString(r.tuple(e))
	b.WriteString(": ")
	b.WriteString(string(e.Verdict))
	switch e.Verdict {
	case Safe:
		b.WriteString(" — every support avoids all violation clusters; the tuple holds in every XR-solution")
	case Certain:
		b.WriteString(" — no counterexample repair exists")
	case Rejected:
		b.WriteString(" — a counterexample exchange-repair exists")
	case Possible:
		b.WriteString(" — a supporting exchange-repair exists")
	case Impossible:
		b.WriteString(" — no exchange-repair satisfies the tuple")
	case Unknown:
		b.WriteString(" — signature undecided (cause: ")
		b.WriteString(e.Cause)
		b.WriteString(", retries: ")
		b.WriteString(strconv.Itoa(e.Retries))
		b.WriteString(")")
	case NoSupport:
		b.WriteString(" — no support in the quasi-solution; not a candidate answer")
	}
	if e.Signature != "" {
		b.WriteString(" [signature {")
		b.WriteString(e.Signature)
		b.WriteString("}")
		if e.ModelsExamined > 0 {
			b.WriteString("; ")
			b.WriteString(strconv.Itoa(e.ModelsExamined))
			b.WriteString(" model")
			if e.ModelsExamined != 1 {
				b.WriteString("s")
			}
			b.WriteString(" examined")
		}
		b.WriteString("]")
	}
	b.WriteString("\n")
	if len(e.Clusters) > 0 {
		b.WriteString("  clusters:")
		for _, c := range e.Clusters {
			b.WriteString(" #")
			b.WriteString(strconv.Itoa(c.ID))
			b.WriteString(" (")
			b.WriteString(strconv.Itoa(c.Violations))
			b.WriteString(" violation")
			if c.Violations != 1 {
				b.WriteString("s")
			}
			b.WriteString(", envelope ")
			b.WriteString(strconv.Itoa(c.EnvelopeSize))
			b.WriteString(", influence ")
			b.WriteString(strconv.Itoa(c.InfluenceSize))
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	if len(e.Support) > 0 {
		b.WriteString("  support closure: ")
		b.WriteString(r.facts(e.Support))
		b.WriteString("\n")
	}
	if w := e.Witness; w != nil {
		label := "counterexample repair"
		if e.Verdict == Possible {
			label = "supporting repair"
		}
		if len(w.DroppedSource) > 0 {
			b.WriteString("  ")
			b.WriteString(label)
			b.WriteString(" drops: ")
			b.WriteString(r.facts(w.DroppedSource))
			b.WriteString("\n")
		}
		if len(w.KeptSuspect) > 0 {
			b.WriteString("  keeps (suspect): ")
			b.WriteString(r.facts(w.KeptSuspect))
			b.WriteString("\n")
		}
		if len(w.MissingTarget) > 0 {
			b.WriteString("  target facts lost: ")
			b.WriteString(r.facts(w.MissingTarget))
			b.WriteString("\n")
		}
	}
	return b.String()
}
