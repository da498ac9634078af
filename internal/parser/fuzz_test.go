package parser

import "testing"

// Fuzz targets: the parsers must never panic, and accepted inputs must
// survive a render/reparse round trip where applicable. Run with
// `go test -fuzz=FuzzParseMapping ./internal/parser` for real fuzzing;
// plain `go test` replays the seed corpus.

// The seed corpora. TestLexerMatchesRuneLexer lexes them too.
var (
	mappingSeeds = []string{
		"source R(a). target S(a). tgd R(x) -> S(x).",
		"source R(a, b).\ntarget T(a).\negd k: T(x) & T(y) -> x = y.",
		"tgd -> .",
		"source R(a). tgd R('qu\\'oted) -> R(x).",
		"# only a comment",
		"source R(a). target S(a). tgd R(x) & R(y) -> S(x) & S(y).",
	}
	factSeeds  = []string{"R('a', 'b').", "R(1, -2).\nR(x, 'y').", "R(", "."}
	querySeeds = []string{"q(x) :- S(x).", "q() :- S(x), S(y).\nq2(x,x) :- S(x).", "q(x) :-"}
)

func FuzzParseMapping(f *testing.F) {
	for _, s := range mappingSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseMapping(src)
		if err != nil {
			return
		}
		// Accepted mappings must validate.
		if err := w.M.Validate(); err != nil {
			t.Fatalf("parsed mapping fails validation: %v\ninput: %q", err, src)
		}
	})
}

func FuzzParseFacts(f *testing.F) {
	for _, s := range factSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseMapping("source R(a, b). target S(a).")
		if err != nil {
			t.Fatal(err)
		}
		in, err := ParseFacts(src, w)
		if err != nil {
			return
		}
		// Round trip must preserve the instance.
		text := FormatFacts(in, w.Cat, w.U)
		back, err := ParseFacts(text, w)
		if err != nil {
			t.Fatalf("round trip parse failed: %v\nrendered: %q", err, text)
		}
		if !back.Equal(in) {
			t.Fatalf("round trip changed the instance\ninput: %q", src)
		}
	})
}

func FuzzParseQueries(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseMapping("source R(a). target S(a).")
		if err != nil {
			t.Fatal(err)
		}
		qs, err := ParseQueries(src, w)
		if err != nil {
			return
		}
		for _, q := range qs {
			if err := q.Validate(); err != nil {
				t.Fatalf("parsed query fails validation: %v\ninput: %q", err, src)
			}
		}
	})
}
