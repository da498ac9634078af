package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// runeLexer is the lexer as it was before it scanned the source in place:
// it copies the whole source into a []rune and builds every quoted
// constant rune by rune. TestLexerMatchesRuneLexer holds the production
// lexer to its token stream.

type runeLexer struct {
	src  []rune
	pos  int
	line int
}

func newRuneLexer(src string) *runeLexer {
	return &runeLexer{src: []rune(src), line: 1}
}

func (l *runeLexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *runeLexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.line
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == '.':
		l.pos++
		return token{tokDot, ".", start}, nil
	case c == '&':
		l.pos++
		return token{tokAmp, "&", start}, nil
	case c == '=':
		l.pos++
		return token{tokEq, "=", start}, nil
	case c == '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.pos += 2
			return token{tokArrow, "->", start}, nil
		}
		// Negative number?
		if l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1]) {
			return l.number()
		}
		return token{}, l.errf("unexpected '-'")
	case c == ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			l.pos += 2
			return token{tokRuleDef, ":-", start}, nil
		}
		l.pos++
		return token{tokColon, ":", start}, nil
	case c == '\'' || c == '"':
		return l.quoted(c)
	case unicode.IsDigit(c):
		return l.number()
	case c == '_' && (l.pos+1 >= len(l.src) || !isIdentRune(l.src[l.pos+1])):
		l.pos++
		return token{tokUnder, "_", start}, nil
	case isIdentStart(c):
		j := l.pos
		for j < len(l.src) && isIdentRune(l.src[j]) {
			j++
		}
		text := string(l.src[l.pos:j])
		l.pos = j
		return token{tokIdent, text, start}, nil
	default:
		return token{}, l.errf("unexpected character %q", c)
	}
}

func (l *runeLexer) quoted(q rune) (token, error) {
	start := l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == q {
			l.pos++
			return token{tokString, b.String(), start}, nil
		}
		if c == '\n' {
			return token{}, l.errf("unterminated string")
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteRune(c)
		l.pos++
	}
	return token{}, l.errf("unterminated string")
}

func (l *runeLexer) number() (token, error) {
	start := l.line
	j := l.pos
	if l.src[j] == '-' {
		j++
	}
	for j < len(l.src) && (unicode.IsDigit(l.src[j]) || l.src[j] == '.') {
		// A trailing '.' is the statement terminator, not a decimal point,
		// unless followed by a digit.
		if l.src[j] == '.' && (j+1 >= len(l.src) || !unicode.IsDigit(l.src[j+1])) {
			break
		}
		j++
	}
	text := string(l.src[l.pos:j])
	l.pos = j
	return token{tokNumber, text, start}, nil
}

// lexAll returns the token stream of a lexer, ending with its EOF token or
// its error.
func lexAll(next func() (token, error)) ([]token, string) {
	var toks []token
	for {
		tok, err := next()
		if err != nil {
			return toks, err.Error()
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, ""
		}
	}
}

// TestLexerMatchesRuneLexer: the in-place lexer yields the rune lexer's
// tokens (kind, text, line) and errors on the fuzz seed corpora, the
// sample mapping, and random inputs mixing the token alphabet with
// multi-byte letters and digits, escapes and invalid UTF-8.
func TestLexerMatchesRuneLexer(t *testing.T) {
	inputs := []string{sampleMapping}
	inputs = append(inputs, mappingSeeds...)
	inputs = append(inputs, factSeeds...)
	inputs = append(inputs, querySeeds...)
	pieces := []string{
		"R", "x", "_", "_a", "a-b", "é", "ж", "٣", "7", "-", "->", ":", ":-", ".", "1.5", "2.", "(", ")", ",",
		"&", "=", "'", "\"", "\\", "\\'", " ", "\t", "\n", "\u00a0", "\u0085", "#", "\xff", "\xc3", "\xe2\x82",
		"\xed\xa0\x80", "\ufffd", "$", "'ok'", "'a\\'b'", "\"q\\\"\"", "'é\xffz'",
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		inputs = append(inputs, b.String())
	}
	for _, in := range inputs {
		want, wantErr := lexAll(newRuneLexer(in).next)
		got, gotErr := lexAll(newLexer(in).next)
		if gotErr != wantErr || len(got) != len(want) {
			t.Fatalf("input %q: %d tokens, error %q; rune lexer %d tokens, error %q", in, len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("input %q: token %d is %+v, rune lexer %+v", in, i, got[i], want[i])
			}
		}
	}
}
