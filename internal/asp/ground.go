package asp

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements a relational grounder for symbolic (non-ground)
// disjunctive programs: rules are instantiated over the candidate-atom set
// computed by a positive fixpoint (negation ignored, all disjuncts assumed
// derivable), which over-approximates every stable model. Negative literals
// on atoms outside the candidate set are simplified to true.

// SymTerm is a symbolic term: a variable (Var != "") or a string constant.
type SymTerm struct {
	Var   string
	Const string
}

// SV returns a symbolic variable term.
func SV(name string) SymTerm { return SymTerm{Var: name} }

// SC returns a symbolic constant term.
func SC(c string) SymTerm { return SymTerm{Const: c} }

// SymAtom is a symbolic atom Pred(t1, ..., tk).
type SymAtom struct {
	Pred string
	Args []SymTerm
}

func (a SymAtom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.Var != "" {
			parts[i] = t.Var
		} else {
			parts[i] = t.Const
		}
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// SymRule is a symbolic disjunctive rule with optional inequality built-ins.
type SymRule struct {
	Head []SymAtom
	Pos  []SymAtom
	Neg  []SymAtom
	Neq  [][2]SymTerm // each pair must ground to distinct constants
}

// SymProgram is a symbolic disjunctive logic program.
type SymProgram struct {
	Rules []SymRule
	Facts []SymAtom // ground atoms asserted true
}

// AddFact appends a ground fact (all terms must be constants).
func (sp *SymProgram) AddFact(pred string, consts ...string) {
	args := make([]SymTerm, len(consts))
	for i, c := range consts {
		args[i] = SC(c)
	}
	sp.Facts = append(sp.Facts, SymAtom{Pred: pred, Args: args})
}

// AddRule appends a rule.
func (sp *SymProgram) AddRule(r SymRule) { sp.Rules = append(sp.Rules, r) }

// groundAtomName renders a ground atom canonically.
func groundAtomName(pred string, args []string) string {
	if len(args) == 0 {
		return pred
	}
	return pred + "(" + strings.Join(args, ",") + ")"
}

// candidateSet holds the grounder's over-approximation of derivable atoms,
// indexed per predicate and per (predicate, position, constant).
type candidateSet struct {
	tuples map[string]map[string][]string // pred -> tupleKey -> args
	index  map[string][][]string          // pred -> list of tuples
}

func newCandidateSet() *candidateSet {
	return &candidateSet{tuples: map[string]map[string][]string{}}
}

func (cs *candidateSet) add(pred string, args []string) bool {
	m, ok := cs.tuples[pred]
	if !ok {
		m = map[string][]string{}
		cs.tuples[pred] = m
	}
	k := strings.Join(args, "\x00")
	if _, dup := m[k]; dup {
		return false
	}
	m[k] = args
	cs.index = nil
	return true
}

func (cs *candidateSet) has(pred string, args []string) bool {
	m, ok := cs.tuples[pred]
	if !ok {
		return false
	}
	_, present := m[strings.Join(args, "\x00")]
	return present
}

func (cs *candidateSet) of(pred string) [][]string {
	var out [][]string
	for _, t := range cs.tuples[pred] {
		out = append(out, t)
	}
	return out
}

// matchBody enumerates substitutions making every atom of body a candidate,
// calling fn with the environment. Variables bind in atom order.
func (cs *candidateSet) matchBody(body []SymAtom, env map[string]string, i int, fn func(map[string]string) bool) bool {
	if i == len(body) {
		return fn(env)
	}
	a := body[i]
	for _, tup := range cs.of(a.Pred) {
		if len(tup) != len(a.Args) {
			continue
		}
		var bound []string
		ok := true
		for j, t := range a.Args {
			want := tup[j]
			switch {
			case t.Const != "" || t.Var == "":
				if t.Const != want {
					ok = false
				}
			default:
				if prev, has := env[t.Var]; has {
					if prev != want {
						ok = false
					}
				} else {
					env[t.Var] = want
					bound = append(bound, t.Var)
				}
			}
			if !ok {
				break
			}
		}
		if ok && !cs.matchBody(body, env, i+1, fn) {
			return false
		}
		for _, v := range bound {
			delete(env, v)
		}
	}
	return true
}

func substAtom(a SymAtom, env map[string]string) (string, []string, error) {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		switch {
		case t.Const != "" || t.Var == "":
			args[i] = t.Const
		default:
			v, ok := env[t.Var]
			if !ok {
				return "", nil, fmt.Errorf("asp: unsafe variable %s in %s", t.Var, a)
			}
			args[i] = v
		}
	}
	return a.Pred, args, nil
}

func substTerm(t SymTerm, env map[string]string) (string, error) {
	if t.Var == "" {
		return t.Const, nil
	}
	v, ok := env[t.Var]
	if !ok {
		return "", fmt.Errorf("asp: unsafe variable %s in inequality", t.Var)
	}
	return v, nil
}

// validate checks rule safety: every variable occurring in the head, in a
// negative literal, or in an inequality must occur in the positive body.
func (r *SymRule) validate() error {
	posVars := map[string]bool{}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			if t.Var != "" {
				posVars[t.Var] = true
			}
		}
	}
	check := func(where string, atoms []SymAtom) error {
		for _, a := range atoms {
			for _, t := range a.Args {
				if t.Var != "" && !posVars[t.Var] {
					return fmt.Errorf("asp: unsafe rule: variable %s in %s not bound by positive body", t.Var, where)
				}
			}
		}
		return nil
	}
	if err := check("head", r.Head); err != nil {
		return err
	}
	if err := check("negative body", r.Neg); err != nil {
		return err
	}
	for _, pair := range r.Neq {
		for _, t := range pair {
			if t.Var != "" && !posVars[t.Var] {
				return fmt.Errorf("asp: unsafe rule: inequality variable %s not bound by positive body", t.Var)
			}
		}
	}
	return nil
}

// Ground instantiates the symbolic program into a GroundProgram.
func (sp *SymProgram) Ground() (*GroundProgram, error) {
	for i := range sp.Rules {
		if err := sp.Rules[i].validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
	}
	// Phase 1: candidate fixpoint (negation and inequalities ignored for
	// derivability would under-approximate? No: ignoring body restrictions
	// only ADDS candidates, which is the safe direction; inequalities are
	// respected since they never make more atoms derivable when dropped...
	// dropping them adds candidates, still safe).
	cs := newCandidateSet()
	for _, f := range sp.Facts {
		pred, args, err := substAtom(f, nil)
		if err != nil {
			return nil, fmt.Errorf("non-ground fact %s", f)
		}
		cs.add(pred, args)
	}
	for changed := true; changed; {
		changed = false
		for ri := range sp.Rules {
			r := &sp.Rules[ri]
			var firings [][2]interface{}
			cs.matchBody(r.Pos, map[string]string{}, 0, func(env map[string]string) bool {
				for _, h := range r.Head {
					pred, args, err := substAtom(h, env)
					if err != nil {
						return true
					}
					if !cs.has(pred, args) {
						cp := make([]string, len(args))
						copy(cp, args)
						firings = append(firings, [2]interface{}{pred, cp})
					}
				}
				return true
			})
			for _, f := range firings {
				if cs.add(f[0].(string), f[1].([]string)) {
					changed = true
				}
			}
		}
	}
	// Phase 2: emit ground rules.
	gp := NewGroundProgram()
	for _, f := range sp.Facts {
		pred, args, _ := substAtom(f, nil)
		gp.AddFact(gp.Atom(groundAtomName(pred, args)))
	}
	seenRule := map[string]bool{}
	for ri := range sp.Rules {
		r := &sp.Rules[ri]
		var groundErr error
		cs.matchBody(r.Pos, map[string]string{}, 0, func(env map[string]string) bool {
			// Inequalities.
			for _, pair := range r.Neq {
				l, err := substTerm(pair[0], env)
				if err != nil {
					groundErr = err
					return false
				}
				rr, err := substTerm(pair[1], env)
				if err != nil {
					groundErr = err
					return false
				}
				if l == rr {
					return true // constraint unsatisfied; rule instance vacuous
				}
			}
			var head, pos, neg []AtomID
			for _, h := range r.Head {
				pred, args, err := substAtom(h, env)
				if err != nil {
					groundErr = err
					return false
				}
				head = append(head, gp.Atom(groundAtomName(pred, args)))
			}
			for _, b := range r.Pos {
				pred, args, _ := substAtom(b, env)
				pos = append(pos, gp.Atom(groundAtomName(pred, args)))
			}
			for _, n := range r.Neg {
				pred, args, err := substAtom(n, env)
				if err != nil {
					groundErr = err
					return false
				}
				if !cs.has(pred, args) {
					continue // atom never derivable: ¬atom is true, drop literal
				}
				neg = append(neg, gp.Atom(groundAtomName(pred, args)))
			}
			key := ruleKey(head, pos, neg)
			if !seenRule[key] {
				seenRule[key] = true
				gp.AddRule(head, pos, neg)
			}
			return true
		})
		if groundErr != nil {
			return nil, groundErr
		}
	}
	return gp, nil
}

func ruleKey(head, pos, neg []AtomID) string {
	enc := func(ids []AtomID) string {
		cp := append([]AtomID(nil), ids...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		b := make([]byte, 0, len(cp)*4)
		for _, id := range cp {
			b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(b)
	}
	return enc(head) + "|" + enc(pos) + "|" + enc(neg)
}
