package parser

import (
	"fmt"
	"strconv"

	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// World is a parsed schema mapping together with its catalog and universe.
type World struct {
	Cat *schema.Catalog
	U   *symtab.Universe
	M   *mapping.Mapping
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lx   *lexer
	tok  token
	u    *symtab.Universe
	cat  *schema.Catalog
	anon int
}

func newParser(src string, cat *schema.Catalog, u *symtab.Universe) (*parser, error) {
	p := &parser{lx: newLexer(src), cat: cat, u: u}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, fmt.Errorf("line %d: expected %s, got %s %q", p.tok.line, k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) freshAnon() string {
	p.anon++
	return fmt.Sprintf("_anon%d", p.anon)
}

// term parses a variable, anonymous variable, or constant.
func (p *parser) term() (logic.Term, error) {
	switch p.tok.kind {
	case tokIdent:
		v := p.tok.text
		return logic.V(v), p.advance()
	case tokUnder:
		return logic.V(p.freshAnon()), p.advance()
	case tokString, tokNumber:
		c := p.u.Const(p.tok.text)
		return logic.C(c), p.advance()
	default:
		return logic.Term{}, fmt.Errorf("line %d: expected term, got %s %q", p.tok.line, p.tok.kind, p.tok.text)
	}
}

// atom parses Rel(t1, ..., tk) and checks arity against the catalog.
func (p *parser) atom() (logic.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return logic.Atom{}, err
	}
	rel, ok := p.cat.ByName(name.text)
	if !ok {
		return logic.Atom{}, fmt.Errorf("line %d: undeclared relation %s", name.line, name.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return logic.Atom{}, err
	}
	var terms []logic.Term
	if p.tok.kind != tokRParen {
		for {
			t, err := p.term()
			if err != nil {
				return logic.Atom{}, err
			}
			terms = append(terms, t)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return logic.Atom{}, err
	}
	if len(terms) != rel.Arity {
		return logic.Atom{}, fmt.Errorf("line %d: %s expects %d arguments, got %d", name.line, rel.Name, rel.Arity, len(terms))
	}
	return logic.Atom{Rel: rel.ID, Terms: terms}, nil
}

// atoms parses atom (& atom)* or atom (, atom)* depending on sep.
func (p *parser) atoms(sep tokKind) ([]logic.Atom, error) {
	var out []logic.Atom
	for {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if p.tok.kind != sep {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// ParseMapping parses a complete mapping file:
//
//	source R(attr, ...).          # declares a source relation
//	target T(attr, ...).          # declares a target relation
//	tgd [label:] body -> head.    # body/head atoms joined with &
//	egd [label:] body -> x = y.
func ParseMapping(src string) (*World, error) {
	cat := schema.NewCatalog()
	u := symtab.NewUniverse()
	m := mapping.New(cat, u)
	p, err := newParser(src, cat, u)
	if err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "source", "target":
			name, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			var attrs []string
			if p.tok.kind != tokRParen {
				for {
					at, err := p.expect(tokIdent)
					if err != nil {
						return nil, err
					}
					attrs = append(attrs, at.text)
					if p.tok.kind != tokComma {
						break
					}
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			rel, err := cat.Add(name.text, len(attrs), attrs...)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", name.line, err)
			}
			if kw.text == "source" {
				m.Source.Add(rel)
			} else {
				m.Target.Add(rel)
			}
		case "tgd":
			label, err := p.optionalLabel()
			if err != nil {
				return nil, err
			}
			body, err := p.atoms(tokAmp)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokArrow); err != nil {
				return nil, err
			}
			head, err := p.atoms(tokAmp)
			if err != nil {
				return nil, err
			}
			d := &logic.TGD{Body: body, Head: head, Label: label}
			if err := d.Validate(); err != nil {
				return nil, err
			}
			if allIn(m.Source, body) && allIn(m.Target, head) {
				m.ST = append(m.ST, d)
			} else if allIn(m.Target, body) && allIn(m.Target, head) {
				m.TTgds = append(m.TTgds, d)
			} else {
				return nil, fmt.Errorf("line %d: tgd %s is neither source-to-target nor target", kw.line, label)
			}
		case "egd":
			label, err := p.optionalLabel()
			if err != nil {
				return nil, err
			}
			body, err := p.atoms(tokAmp)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokArrow); err != nil {
				return nil, err
			}
			l, err := p.term()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokEq); err != nil {
				return nil, err
			}
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			d := &logic.EGD{Body: body, L: l, R: r, Label: label}
			if err := d.Validate(); err != nil {
				return nil, err
			}
			if !allIn(m.Target, body) {
				return nil, fmt.Errorf("line %d: egd %s must range over the target schema", kw.line, label)
			}
			m.TEgds = append(m.TEgds, d)
		default:
			return nil, fmt.Errorf("line %d: expected source/target/tgd/egd, got %q", kw.line, kw.text)
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &World{Cat: cat, U: u, M: m}, nil
}

// optionalLabel parses "name:" if present (lookahead on ':').
func (p *parser) optionalLabel() (string, error) {
	if p.tok.kind != tokIdent {
		return "", nil
	}
	// Peek: identifier followed by ':' is a label; otherwise it is the
	// first atom's relation name. We must look ahead without consuming.
	save := *p.lx
	saveTok := p.tok
	name := p.tok.text
	if err := p.advance(); err != nil {
		return "", err
	}
	if p.tok.kind == tokColon {
		return name, p.advance()
	}
	*p.lx = save
	p.tok = saveTok
	return "", nil
}

func allIn(s *schema.Schema, atoms []logic.Atom) bool {
	for _, a := range atoms {
		if !s.Contains(a.Rel) {
			return false
		}
	}
	return true
}

// ParseQueries parses a query file against an existing world:
//
//	query ep2(protacc) :- refLink(s, _, acc, protacc), kgXref(u, _, s).
//
// Clauses sharing a name form a UCQ. The "query" keyword is optional.
func ParseQueries(src string, w *World) ([]*logic.UCQ, error) {
	p, err := newParser(src, w.Cat, w.U)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*logic.UCQ)
	var order []string
	for p.tok.kind != tokEOF {
		if p.tok.kind == tokIdent && p.tok.text == "query" {
			// Optional keyword, but only when followed by "name(" — a
			// relation named "query" would be ambiguous; we disallow it.
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var head []logic.Term
		if p.tok.kind != tokRParen {
			for {
				t, err := p.term()
				if err != nil {
					return nil, err
				}
				head = append(head, t)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRuleDef); err != nil {
			return nil, err
		}
		body, err := p.atoms(tokComma)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		for _, a := range body {
			if !w.M.Target.Contains(a.Rel) {
				return nil, fmt.Errorf("query %s: body relation %s is not a target relation",
					name.text, w.Cat.ByID(a.Rel).Name)
			}
		}
		q, ok := byName[name.text]
		if !ok {
			q = &logic.UCQ{Name: name.text, Arity: len(head)}
			byName[name.text] = q
			order = append(order, name.text)
		}
		if q.Arity != len(head) {
			return nil, fmt.Errorf("query %s: clauses with different arities (%d vs %d)", name.text, q.Arity, len(head))
		}
		q.Clauses = append(q.Clauses, logic.CQ{Head: head, Body: body})
	}
	out := make([]*logic.UCQ, 0, len(order))
	for _, n := range order {
		q := byName[n]
		if err := q.Validate(); err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// ParseFacts parses a fact file ("R('a', 'b')." or "R(a, b)." — in fact
// files, bare identifiers and numbers are constants) into an instance over
// the world's source schema.
func ParseFacts(src string, w *World) (*instance.Instance, error) {
	p, err := newParser(src, w.Cat, w.U)
	if err != nil {
		return nil, err
	}
	in := instance.New(w.Cat)
	for p.tok.kind != tokEOF {
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		rel, ok := w.Cat.ByName(name.text)
		if !ok {
			return nil, fmt.Errorf("line %d: undeclared relation %s", name.line, name.text)
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		args := make([]symtab.Value, 0, rel.Arity)
		if p.tok.kind != tokRParen {
			for {
				switch p.tok.kind {
				case tokIdent, tokString, tokNumber:
					args = append(args, w.U.Const(p.tok.text))
				default:
					return nil, fmt.Errorf("line %d: expected constant, got %s", p.tok.line, p.tok.kind)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		if _, err := in.Insert(rel.ID, args); err != nil {
			return nil, fmt.Errorf("line %d: %v", name.line, err)
		}
	}
	return in, nil
}

// FormatFacts renders an instance as a fact file (constants quoted),
// sorted for reproducible output.
func FormatFacts(in *instance.Instance, cat *schema.Catalog, u *symtab.Universe) string {
	var b []byte
	for _, f := range in.Facts() {
		b = append(b, cat.ByID(f.Rel).Name...)
		b = append(b, '(')
		for i, v := range f.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendQuote(b, u.Name(v))
		}
		b = append(b, ").\n"...)
	}
	return string(b)
}
