package asp

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseProgram reads a symbolic disjunctive logic program in a subset of
// clingo's input language:
//
//	node(v1). edge(v1, v2).                      % facts
//	col(X,r) | col(X,g) | col(X,b) :- node(X).   % disjunctive rule
//	:- edge(X,Y), col(X,C), col(Y,C).            % constraint
//	reach(Y) :- reach(X), edge(X,Y), not cut(X, Y), X != Y.
//
// Identifiers beginning with an uppercase letter are variables; lowercase
// identifiers and numbers are constants (clingo convention). `%` and `#`
// start line comments. Supported body built-ins: `X != Y`.
func ParseProgram(text string) (*SymProgram, error) {
	p := &lpParser{src: []rune(text), line: 1}
	prog := &SymProgram{}
	for {
		p.skipSpace()
		if p.eof() {
			return prog, nil
		}
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
}

type lpParser struct {
	src  []rune
	pos  int
	line int
}

func (p *lpParser) eof() bool { return p.pos >= len(p.src) }

func (p *lpParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *lpParser) skipSpace() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case unicode.IsSpace(c):
			p.pos++
		case c == '%' || c == '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *lpParser) peek() rune {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *lpParser) consume(s string) bool {
	p.skipSpace()
	if p.pos+len(s) > len(p.src) {
		return false
	}
	if string(p.src[p.pos:p.pos+len(s)]) != s {
		return false
	}
	// Keyword boundaries: "not" must not swallow "nothing(...)".
	if isWordRune(rune(s[len(s)-1])) && p.pos+len(s) < len(p.src) && isWordRune(p.src[p.pos+len(s)]) {
		return false
	}
	p.pos += len(s)
	return true
}

// startsUpper decodes the first rune of an identifier (which may be
// multi-byte) and reports whether it is upper case; indexing name[0] would
// misclassify non-ASCII identifiers by testing a UTF-8 lead byte.
func startsUpper(name string) bool {
	r, _ := utf8.DecodeRuneInString(name)
	return unicode.IsUpper(r)
}

func isWordRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func (p *lpParser) ident() (string, error) {
	p.skipSpace()
	if p.eof() || !(unicode.IsLetter(p.src[p.pos]) || unicode.IsDigit(p.src[p.pos]) || p.src[p.pos] == '_') {
		return "", p.errf("expected identifier")
	}
	j := p.pos
	for j < len(p.src) && isWordRune(p.src[j]) {
		j++
	}
	out := string(p.src[p.pos:j])
	p.pos = j
	return out, nil
}

// term parses a variable or constant.
func (p *lpParser) term() (SymTerm, error) {
	name, err := p.ident()
	if err != nil {
		return SymTerm{}, err
	}
	if startsUpper(name) {
		return SV(name), nil
	}
	return SC(name), nil
}

// atom parses pred or pred(t1, ..., tk).
func (p *lpParser) atom() (SymAtom, error) {
	name, err := p.ident()
	if err != nil {
		return SymAtom{}, err
	}
	if startsUpper(name) {
		return SymAtom{}, p.errf("predicate %q must start lowercase", name)
	}
	a := SymAtom{Pred: name}
	if !p.consume("(") {
		return a, nil
	}
	for {
		t, err := p.term()
		if err != nil {
			return SymAtom{}, err
		}
		a.Args = append(a.Args, t)
		if p.consume(",") {
			continue
		}
		if p.consume(")") {
			return a, nil
		}
		return SymAtom{}, p.errf("expected ',' or ')' in %s", name)
	}
}

// statement parses one fact, rule, or constraint terminated by '.'.
func (p *lpParser) statement(prog *SymProgram) error {
	var rule SymRule
	// Head (may be empty for a constraint).
	if !p.peekRuleDef() {
		for {
			a, err := p.atom()
			if err != nil {
				return err
			}
			rule.Head = append(rule.Head, a)
			if p.consume("|") || p.consume(";") {
				continue
			}
			break
		}
	}
	hasBody := p.consume(":-")
	if hasBody {
		for {
			p.skipSpace()
			if p.consume("not") {
				a, err := p.atom()
				if err != nil {
					return err
				}
				rule.Neg = append(rule.Neg, a)
			} else {
				// Either an atom or an inequality "T1 != T2".
				save := p.pos
				t1, err := p.term()
				if err == nil && p.consume("!=") {
					t2, err2 := p.term()
					if err2 != nil {
						return err2
					}
					rule.Neq = append(rule.Neq, [2]SymTerm{t1, t2})
				} else {
					p.pos = save
					a, err := p.atom()
					if err != nil {
						return err
					}
					rule.Pos = append(rule.Pos, a)
				}
			}
			if p.consume(",") {
				continue
			}
			break
		}
	}
	if !p.consume(".") {
		return p.errf("expected '.' to end statement")
	}
	// A ground, body-free, single-head rule is a fact.
	if !hasBody && len(rule.Head) == 1 && groundAtom(rule.Head[0]) {
		prog.Facts = append(prog.Facts, rule.Head[0])
		return nil
	}
	if len(rule.Head) == 0 && !hasBody {
		return p.errf("empty statement")
	}
	prog.Rules = append(prog.Rules, rule)
	return nil
}

func (p *lpParser) peekRuleDef() bool {
	p.skipSpace()
	return p.pos+1 < len(p.src) && p.src[p.pos] == ':' && p.src[p.pos+1] == '-'
}

func groundAtom(a SymAtom) bool {
	for _, t := range a.Args {
		if t.Var != "" {
			return false
		}
	}
	return true
}

// FormatModel renders the true atoms of a model over a ground program,
// sorted, clingo-style.
func FormatModel(gp *GroundProgram, m []bool) string {
	var names []string
	for a := 0; a < gp.NumAtoms(); a++ {
		if m[a] {
			names = append(names, gp.Name(AtomID(a)))
		}
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
