// Package parser reads the textual formats used by the command-line tools
// and examples: schema mappings (source/target declarations, tgds, egds),
// Datalog-style queries, and fact files.
//
// Conventions: relation names and variables are identifiers; constants are
// quoted strings ('chr1' or "chr1") or bare numbers; `_` is an anonymous
// variable (fresh at every occurrence); `#` starts a line comment.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString // quoted constant
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokColon
	tokArrow   // ->
	tokRuleDef // :-
	tokAmp     // &
	tokEq      // =
	tokUnder   // _
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokColon:
		return "':'"
	case tokArrow:
		return "'->'"
	case tokRuleDef:
		return "':-'"
	case tokAmp:
		return "'&'"
	case tokEq:
		return "'='"
	case tokUnder:
		return "'_'"
	}
	return "?"
}

type token struct {
	kind tokKind
	text string
	line int
}

// lexer scans the source string in place: token text is a substring of
// src, and only a quoted constant with an escape or an invalid UTF-8 byte
// is built anew. The source decodes as a rune sequence would: each byte of
// invalid UTF-8 reads as one U+FFFD.
type lexer struct {
	src  string
	pos  int // byte offset
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i, returning it and its width;
// past the end it returns -1 and width 0.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return -1, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c, w := l.runeAt(l.pos)
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos += w
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
	c, w := l.runeAt(l.pos)
	next, _ := l.runeAt(l.pos + w)
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
		if next == '>' {
			l.pos += 2
			return token{tokArrow, "->", start}, nil
		}
		// Negative number?
		if unicode.IsDigit(next) {
			return l.number()
		}
		return token{}, l.errf("unexpected '-'")
	case c == ':':
		if next == '-' {
			l.pos += 2
			return token{tokRuleDef, ":-", start}, nil
		}
		l.pos++
		return token{tokColon, ":", start}, nil
	case c == '\'' || c == '"':
		return l.quoted(c)
	case unicode.IsDigit(c):
		return l.number()
	case c == '_' && !isIdentRune(next):
		l.pos++
		return token{tokUnder, "_", start}, nil
	case isIdentStart(c):
		j := l.pos + w
		for {
			r, rw := l.runeAt(j)
			if !isIdentRune(r) {
				break
			}
			j += rw
		}
		text := l.src[l.pos:j]
		l.pos = j
		return token{tokIdent, text, start}, nil
	default:
		return token{}, l.errf("unexpected character %q", c)
	}
}

// quoted scans a constant quoted by q. Its text is the source between the
// quotes until an escape or an invalid UTF-8 byte turns up; from there on
// it is built rune by rune, a backslash taking the next rune literally and
// each invalid byte reading as U+FFFD.
func (l *lexer) quoted(q rune) (token, error) {
	start := l.line
	l.pos++ // opening quote
	body := l.pos
	var b *strings.Builder // nil while the text is a substring
	for l.pos < len(l.src) {
		c, w := l.runeAt(l.pos)
		if c == q {
			l.pos++
			if b != nil {
				return token{tokString, b.String(), start}, nil
			}
			return token{tokString, l.src[body : l.pos-1], start}, nil
		}
		if c == '\n' {
			return token{}, l.errf("unterminated string")
		}
		if b == nil && (c == '\\' || c == utf8.RuneError && w == 1) {
			b = new(strings.Builder)
			b.WriteString(l.src[body:l.pos])
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c, w = l.runeAt(l.pos)
		}
		if b != nil {
			b.WriteRune(c)
		}
		l.pos += w
	}
	return token{}, l.errf("unterminated string")
}

func (l *lexer) number() (token, error) {
	start := l.line
	j := l.pos
	if l.src[j] == '-' {
		j++
	}
	for {
		c, w := l.runeAt(j)
		if c == '.' {
			// A trailing '.' is the statement terminator, not a decimal
			// point, unless followed by a digit.
			if d, _ := l.runeAt(j + 1); !unicode.IsDigit(d) {
				break
			}
		} else if !unicode.IsDigit(c) {
			break
		}
		j += w
	}
	text := l.src[l.pos:j]
	l.pos = j
	return token{tokNumber, text, start}, nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-'
}
