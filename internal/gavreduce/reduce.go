package gavreduce

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/schema"
	"repro/internal/symtab"
)

// Reduction is the result of compiling a glav+(wa-glav, egd) mapping into a
// gav+(gav, egd) mapping.
type Reduction struct {
	Orig *mapping.Mapping
	// M is the reduced mapping. It shares the source schema, catalog and
	// universe with Orig; its target schema consists of shaped relations
	// and EQ relations.
	M *mapping.Mapping
	// Identity is true when Orig was already gav+(gav, egd) and M == Orig.
	Identity bool

	shapes  *shapeTable
	nextSym int

	rules []*skRule

	vecSeen   map[schema.RelID]map[string]shapeVec // original target rel -> registered vecs
	shapedRel map[string]*schema.Relation          // relName@vecKey -> shaped relation
	eqRelByK  map[string]*schema.Relation          // eqKey(s1,s2) -> EQ relation
	eqShapes  map[*Shape]bool

	emitted map[string]bool // dedup of emitted dependencies
}

// skTerm is a skolemized head term: a variable, a constant, or a skolem
// application over frontier variables.
type skTerm struct {
	v   string
	val symtab.Value
	sk  *skolemSym
}

// skRule is a single-head skolemized tgd.
type skRule struct {
	srcBody bool // body ranges over the source schema (no shapes)
	body    []logic.Atom
	headRel schema.RelID
	head    []skTerm
	label   string
}

// Reduce compiles m. It returns an error if m's target tgds are not weakly
// acyclic (the reduction, like the chase, need not terminate otherwise).
func Reduce(m *mapping.Mapping) (*Reduction, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !m.IsWeaklyAcyclic() {
		return nil, fmt.Errorf("gavreduce: target tgds are not weakly acyclic")
	}
	if m.IsGAV() {
		return &Reduction{Orig: m, M: m, Identity: true}, nil
	}
	r := &Reduction{
		Orig:      m,
		shapes:    newShapeTable(),
		vecSeen:   make(map[schema.RelID]map[string]shapeVec),
		shapedRel: make(map[string]*schema.Relation),
		eqRelByK:  make(map[string]*schema.Relation),
		eqShapes:  make(map[*Shape]bool),
		emitted:   make(map[string]bool),
	}
	r.M = mapping.New(m.Cat, m.U)
	r.M.Source = m.Source

	r.skolemize()
	r.shapeFixpoint()
	r.emitTgds()
	r.emitEgds()
	r.emitEqClosure()
	if err := r.M.Validate(); err != nil {
		return nil, fmt.Errorf("gavreduce: reduced mapping invalid: %w", err)
	}
	if !r.M.IsGAV() {
		return nil, fmt.Errorf("gavreduce: internal error: reduced mapping is not GAV")
	}
	return r, nil
}

// skolemize splits every tgd into single-head rules with skolem terms for
// existential variables.
func (r *Reduction) skolemize() {
	add := func(d *logic.TGD, srcBody bool, idx int) {
		syms := make(map[string]*skolemSym)
		frontier := d.FrontierVars()
		for _, y := range d.ExistentialVars() {
			r.nextSym++
			syms[y] = &skolemSym{
				id:       r.nextSym,
				name:     fmt.Sprintf("sk%d_%s", r.nextSym, y),
				frontier: frontier,
			}
		}
		for hi, h := range d.Head {
			head := make([]skTerm, len(h.Terms))
			for i, t := range h.Terms {
				switch {
				case !t.IsVar():
					head[i] = skTerm{val: t.Val}
				case syms[t.Var] != nil:
					head[i] = skTerm{sk: syms[t.Var]}
				default:
					head[i] = skTerm{v: t.Var}
				}
			}
			r.rules = append(r.rules, &skRule{
				srcBody: srcBody,
				body:    d.Body,
				headRel: h.Rel,
				head:    head,
				label:   fmt.Sprintf("%s#%d.%d", d.Label, idx, hi),
			})
		}
	}
	for i, d := range r.Orig.ST {
		add(d, true, i)
	}
	for i, d := range r.Orig.TTgds {
		add(d, false, i)
	}
}

func (r *Reduction) registerVec(rel schema.RelID, vec shapeVec) bool {
	m, ok := r.vecSeen[rel]
	if !ok {
		m = make(map[string]shapeVec)
		r.vecSeen[rel] = m
	}
	k := vec.key()
	if _, dup := m[k]; dup {
		return false
	}
	m[k] = vec
	return true
}

// expansion is one shape-resolved instantiation of a dependency body.
type expansion struct {
	atoms    []logic.Atom
	home     map[string]*Shape
	homeVars map[string][]logic.Term
	fresh    int
}

func (e *expansion) freshVars(n int) []logic.Term {
	out := make([]logic.Term, n)
	for i := range out {
		e.fresh++
		out[i] = logic.V(fmt.Sprintf("u%d", e.fresh))
	}
	return out
}

// expandBody enumerates the shape-resolved expansions of a dependency body.
// Source bodies expand trivially (every variable has the constant shape);
// target bodies range over every registered shape vector per atom, with
// repeated variables and constants joined through EQ whenever a labeled
// null could occur.
func (r *Reduction) expandBody(body []logic.Atom, srcBody bool, yield func(*expansion)) {
	if srcBody {
		e := &expansion{
			atoms:    body,
			home:     make(map[string]*Shape),
			homeVars: make(map[string][]logic.Term),
		}
		for _, a := range body {
			for _, t := range a.Terms {
				if t.IsVar() && e.home[t.Var] == nil {
					e.home[t.Var] = r.shapes.konst
					e.homeVars[t.Var] = []logic.Term{t}
				}
			}
		}
		yield(e)
		return
	}
	e := &expansion{home: make(map[string]*Shape), homeVars: make(map[string][]logic.Term)}
	r.expandFrom(body, 0, e, yield)
}

func (r *Reduction) expandFrom(body []logic.Atom, i int, e *expansion, yield func(*expansion)) {
	if i == len(body) {
		cp := &expansion{
			atoms:    append([]logic.Atom(nil), e.atoms...),
			home:     make(map[string]*Shape, len(e.home)),
			homeVars: make(map[string][]logic.Term, len(e.homeVars)),
			fresh:    e.fresh,
		}
		for k, v := range e.home {
			cp.home[k] = v
		}
		for k, v := range e.homeVars {
			cp.homeVars[k] = v
		}
		yield(cp)
		return
	}
	a := body[i]
	vecs := r.vecSeen[a.Rel]
	keys := make([]string, 0, len(vecs))
	for k := range vecs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vec := vecs[k]
		savedAtoms := len(e.atoms)
		savedFresh := e.fresh
		var newHomes []string

		flat := make([]logic.Term, 0, vec.width())
		for j, t := range a.Terms {
			s := vec[j]
			switch {
			case !t.IsVar():
				if s.IsConst() {
					flat = append(flat, t)
				} else {
					// A constant matched against a skolem-shaped position:
					// join through EQ[s|c].
					xs := e.freshVars(s.width)
					flat = append(flat, xs...)
					eqArgs := append(append([]logic.Term{}, xs...), t)
					e.atoms = append(e.atoms, logic.Atom{Rel: r.eqRel(s, r.shapes.konst).ID, Terms: eqArgs})
				}
			default:
				h, seen := e.home[t.Var]
				switch {
				case !seen:
					xs := e.freshVars(s.width)
					e.home[t.Var] = s
					e.homeVars[t.Var] = xs
					newHomes = append(newHomes, t.Var)
					flat = append(flat, xs...)
				case h.IsConst() && s.IsConst():
					flat = append(flat, e.homeVars[t.Var][0])
				default:
					xs := e.freshVars(s.width)
					flat = append(flat, xs...)
					eqArgs := append(append([]logic.Term{}, e.homeVars[t.Var]...), xs...)
					e.atoms = append(e.atoms, logic.Atom{Rel: r.eqRel(h, s).ID, Terms: eqArgs})
				}
			}
		}
		e.atoms = append(e.atoms, logic.Atom{Rel: r.shapedRelFor(a.Rel, vec).ID, Terms: flat})
		r.expandFrom(body, i+1, e, yield)
		// Undo.
		e.atoms = e.atoms[:savedAtoms]
		e.fresh = savedFresh
		for _, v := range newHomes {
			delete(e.home, v)
			delete(e.homeVars, v)
		}
	}
}

// headShape computes the shape of one head term under an expansion.
func (r *Reduction) headShape(t skTerm, e *expansion) *Shape {
	switch {
	case t.sk != nil:
		children := make([]*Shape, len(t.sk.frontier))
		for i, fv := range t.sk.frontier {
			children[i] = e.home[fv]
		}
		return r.shapes.intern(t.sk, children)
	case t.v != "":
		return e.home[t.v]
	default:
		return r.shapes.konst
	}
}

// headFlat renders one head term's flat columns under an expansion.
func headFlat(t skTerm, e *expansion) []logic.Term {
	switch {
	case t.sk != nil:
		var out []logic.Term
		for _, fv := range t.sk.frontier {
			out = append(out, e.homeVars[fv]...)
		}
		return out
	case t.v != "":
		return e.homeVars[t.v]
	default:
		return []logic.Term{logic.C(t.val)}
	}
}

// shapeFixpoint registers every reachable (relation, shape vector) pair.
func (r *Reduction) shapeFixpoint() {
	for changed := true; changed; {
		changed = false
		for _, rule := range r.rules {
			r.expandBody(rule.body, rule.srcBody, func(e *expansion) {
				vec := make(shapeVec, len(rule.head))
				for i, t := range rule.head {
					vec[i] = r.headShape(t, e)
				}
				if r.registerVec(rule.headRel, vec) {
					changed = true
				}
			})
		}
	}
}

// shapedRelFor returns (declaring on demand) the shaped relation for
// (rel, vec) and adds it to the reduced target schema.
func (r *Reduction) shapedRelFor(rel schema.RelID, vec shapeVec) *schema.Relation {
	name := r.Orig.Cat.ByID(rel).Name + "@" + vec.key()
	if sr, ok := r.shapedRel[name]; ok {
		return sr
	}
	// A previous reduction of the same mapping may already have declared
	// the relation in the shared catalog; reuse it (shapes are
	// deterministic, so the arity matches).
	sr, ok := r.Orig.Cat.ByName(name)
	if !ok {
		sr = r.Orig.Cat.MustAdd(name, vec.width())
	}
	r.shapedRel[name] = sr
	r.M.Target.Add(sr)
	return sr
}

func eqKey(a, b *Shape) string { return a.name + "||" + b.name }

// eqRel returns (declaring on demand) the EQ relation between two shapes.
func (r *Reduction) eqRel(a, b *Shape) *schema.Relation {
	k := eqKey(a, b)
	if er, ok := r.eqRelByK[k]; ok {
		return er
	}
	er, ok := r.Orig.Cat.ByName("EQ@" + k)
	if !ok {
		er = r.Orig.Cat.MustAdd("EQ@"+k, a.width+b.width)
	}
	r.eqRelByK[k] = er
	r.M.Target.Add(er)
	r.eqShapes[a] = true
	r.eqShapes[b] = true
	return er
}

// emitTGD appends a tgd to the reduced mapping with string-keyed dedup.
func (r *Reduction) emitTGD(d *logic.TGD, st bool) {
	key := d.String(r.Orig.Cat, nil)
	if r.emitted[key] {
		return
	}
	r.emitted[key] = true
	if st {
		r.M.ST = append(r.M.ST, d)
	} else {
		r.M.TTgds = append(r.M.TTgds, d)
	}
}

// emitTgds emits the shaped GAV tgds for every rule expansion.
func (r *Reduction) emitTgds() {
	for _, rule := range r.rules {
		rule := rule
		r.expandBody(rule.body, rule.srcBody, func(e *expansion) {
			vec := make(shapeVec, len(rule.head))
			var flat []logic.Term
			for i, t := range rule.head {
				vec[i] = r.headShape(t, e)
				flat = append(flat, headFlat(t, e)...)
			}
			head := logic.Atom{Rel: r.shapedRelFor(rule.headRel, vec).ID, Terms: flat}
			r.emitTGD(&logic.TGD{
				Body:  e.atoms,
				Head:  []logic.Atom{head},
				Label: rule.label,
			}, rule.srcBody)
		})
	}
}

// emitEgds compiles every original egd. Expansions where both sides are
// constant-shaped become plain egds of the reduced mapping — keeping their
// violations local to the grounding, exactly as in the original mapping.
// Expansions with a skolem-shaped side become EQ-derivation tgds; the only
// way such an equality can be violated is transitively, through the master
// egd on EQ[const|const].
func (r *Reduction) emitEgds() {
	for i, d := range r.Orig.TEgds {
		d := d
		label := fmt.Sprintf("%s#egd%d", d.Label, i)
		r.expandBody(d.Body, false, func(e *expansion) {
			ls, lflat := r.egdSide(d.L, e)
			rs, rflat := r.egdSide(d.R, e)
			if ls.IsConst() && rs.IsConst() {
				r.emitEGD(&logic.EGD{Body: e.atoms, L: lflat[0], R: rflat[0], Label: label})
				return
			}
			eqAtom := logic.Atom{
				Rel:   r.eqRel(ls, rs).ID,
				Terms: append(append([]logic.Term{}, lflat...), rflat...),
			}
			r.emitTGD(&logic.TGD{Body: e.atoms, Head: []logic.Atom{eqAtom}, Label: label}, false)
		})
	}
}

// emitEGD appends an egd to the reduced mapping with string-keyed dedup.
func (r *Reduction) emitEGD(d *logic.EGD) {
	key := d.String(r.Orig.Cat, nil)
	if r.emitted[key] {
		return
	}
	r.emitted[key] = true
	r.M.TEgds = append(r.M.TEgds, d)
}

func (r *Reduction) egdSide(t logic.Term, e *expansion) (*Shape, []logic.Term) {
	if t.IsVar() {
		return e.home[t.Var], e.homeVars[t.Var]
	}
	return r.shapes.konst, []logic.Term{t}
}

// emitEqClosure declares EQ relations over every relevant shape pair and
// emits symmetry, transitivity and reflexivity rules, plus the master egd
// EQ[c|c](x, y) → x = y.
func (r *Reduction) emitEqClosure() {
	// Relevant shapes: every shape already involved in an EQ relation, plus
	// every skolem shape occurring in a registered vector (a query variable
	// may have any of these as home shape), plus the constant shape.
	shapes := map[*Shape]bool{r.shapes.konst: true}
	for s := range r.eqShapes {
		shapes[s] = true
	}
	for _, vecs := range r.vecSeen {
		for _, vec := range vecs {
			for _, s := range vec {
				if !s.IsConst() {
					shapes[s] = true
				}
			}
		}
	}
	list := make([]*Shape, 0, len(shapes))
	for s := range shapes {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })

	flatVars := func(prefix string, w int) []logic.Term {
		out := make([]logic.Term, w)
		for i := range out {
			out[i] = logic.V(fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}

	// Symmetry and transitivity over all pairs/triples.
	for _, a := range list {
		for _, b := range list {
			xa := flatVars("x", a.width)
			yb := flatVars("y", b.width)
			eqAB := logic.Atom{Rel: r.eqRel(a, b).ID, Terms: append(append([]logic.Term{}, xa...), yb...)}
			eqBA := logic.Atom{Rel: r.eqRel(b, a).ID, Terms: append(append([]logic.Term{}, yb...), xa...)}
			r.emitTGD(&logic.TGD{Body: []logic.Atom{eqAB}, Head: []logic.Atom{eqBA}, Label: "eq-sym"}, false)
			if b.IsConst() {
				// Transitivity through a constant middle term is redundant:
				// whenever a chain forces two distinct constants equal, a
				// sub-chain with labeled-null intermediates already does
				// (shortest-path argument), and that sub-chain's endpoint
				// equality is derived without constant hops. Dropping these
				// rules keeps EQ[c|c] facts local to their derivations
				// instead of saturating across unrelated values.
				continue
			}
			for _, c := range list {
				zc := flatVars("z", c.width)
				eqBC := logic.Atom{Rel: r.eqRel(b, c).ID, Terms: append(append([]logic.Term{}, yb...), zc...)}
				eqAC := logic.Atom{Rel: r.eqRel(a, c).ID, Terms: append(append([]logic.Term{}, xa...), zc...)}
				r.emitTGD(&logic.TGD{
					Body:  []logic.Atom{eqAB, eqBC},
					Head:  []logic.Atom{eqAC},
					Label: "eq-trans",
				}, false)
			}
		}
	}

	// Reflexivity for skolem shapes, seeded from every shaped-relation
	// position carrying that shape, in relation order: the chase fires
	// tgds in emission order, so it must not follow map order.
	rels := make([]schema.RelID, 0, len(r.vecSeen))
	for rel := range r.vecSeen {
		rels = append(rels, rel)
	}
	slices.Sort(rels)
	for _, rel := range rels {
		vecs := r.vecSeen[rel]
		keys := make([]string, 0, len(vecs))
		for k := range vecs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vec := vecs[k]
			sr := r.shapedRelFor(rel, vec)
			cols := flatVars("x", vec.width())
			off := 0
			for _, s := range vec {
				if !s.IsConst() {
					span := cols[off : off+s.width]
					eqSS := logic.Atom{Rel: r.eqRel(s, s).ID, Terms: append(append([]logic.Term{}, span...), span...)}
					r.emitTGD(&logic.TGD{
						Body:  []logic.Atom{{Rel: sr.ID, Terms: cols}},
						Head:  []logic.Atom{eqSS},
						Label: "eq-refl",
					}, false)
				}
				off += s.width
			}
		}
	}

	// Master egd: two constants forced equal is the (only) inconsistency.
	cc := r.eqRel(r.shapes.konst, r.shapes.konst)
	r.M.TEgds = append(r.M.TEgds, &logic.EGD{
		Body:  []logic.Atom{{Rel: cc.ID, Terms: []logic.Term{logic.V("x"), logic.V("y")}}},
		L:     logic.V("x"),
		R:     logic.V("y"),
		Label: "eq-master",
	})
}
