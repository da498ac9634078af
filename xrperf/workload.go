package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/genome"
	"repro/internal/parser"
)

// Workload names accepted by -workload.
const (
	wlGenomeRead    = "genome-read"
	wlTricolorSolve = "tricolor-solve"
	wlGenomeChurn   = "genome-churn"
)

var workloadNames = []string{wlGenomeRead, wlTricolorSolve, wlGenomeChurn}

// clients is the closed-loop client count of every workload.
const clients = 2

// Workload sizes. The measured phase runs a fixed number of operations
// derived from -seconds (never a deadline), so two runs with the same
// arguments send exactly the same requests; the per-second rates below are
// calibrated so the phase lasts about -seconds on a 2-core host.
const (
	// genome-read: the L20 shape (20% suspect transcripts) at scale 0.05.
	// Scale 0.1 answers about 6-8 queries/s on 2 cores, too few for 200
	// queries per run; halving the instance keeps the shape and doubles
	// the rate.
	readTranscripts    = 1600
	readSuspect        = 0.20
	readPassesPerSec   = 0.85 // suite passes per client per second
	readTailLoads      = 32   // loads of the instance after the phase
	churnTranscripts   = 360
	churnSuspect       = 0.09
	churnInstances     = 6   // distinct seeded instances cycled by the tenants
	churnWindow        = 2   // tenants each client keeps resident
	churnTenantsPerS   = 4.0 // tenants per client per second
	tricolorBlocksPerS = 0.8 // blocks of tricolorBlock graphs per second
)

// opKind is the HTTP operation class; only queries count toward qps.
type opKind int

const (
	opLoad opKind = iota
	opQuery
	opDelete
)

// op is one pre-encoded request of a run.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	tenant string
	query  string // query name (queries only)
	// group labels the request in per-layer breakdowns: the query name for
	// genome, the ask (cold, possible, reask) for tricolor, "load" or
	// "delete" otherwise.
	group string
	// instance identifies the load body's content (for parse replay and
	// expected source-fact counts).
	instance int
	want     *expectation
	// Every channel in await must be closed before the request is sent;
	// signal, when set, is closed once it completed. They order one
	// client's requests after the other's.
	await  []chan struct{}
	signal chan struct{}
}

// expectation is what a correct response carries.
type expectation struct {
	// count is the exact answer-tuple count (-1 = not checked by count).
	count int
	// digest, when set, is the library's own answer computed in process.
	digest    *tupleDigest
	noSolver  bool // solver_accepted must be 0
	sourceFcs int  // loads: expected source_facts
}

// instanceInput is one generated scenario body's content.
type instanceInput struct {
	Mapping string
	Facts   string
	Queries string
	// SourceFacts is the generator's fact count; NonSuspect the number of
	// transcripts the generator left consistent (genome only).
	SourceFacts int
	NonSuspect  int
	// graph is set for tricolor instances.
	graph *graph
}

// plan is a run's full, seed-determined request sequence.
type plan struct {
	workload  string
	seed      int64
	instances []instanceInput
	// setup is sent by one client after boot: the initial loads and, on
	// genome-read, one untimed suite pass.
	setup []op
	// phase holds each client's measured sequence.
	phase [clients][]op
	// tail is sent by one client after the measured phase and the heap
	// reading, on the same daemon. Genome-read times its loads there: its
	// phase has none.
	tail []op
}

// scaled returns max(min, round(rate*seconds)).
func scaled(rate float64, seconds, min int) int {
	n := int(math.Round(rate * float64(seconds)))
	if n < min {
		n = min
	}
	return n
}

// buildPlan generates the workload's inputs and request sequence from the
// seed. tag distinguishes tenant names of repeated phases in one daemon
// (the traced run replays the sequence on fresh tenants).
func buildPlan(workload string, seed int64, seconds int, tag string) (*plan, error) {
	p := &plan{workload: workload, seed: seed}
	switch workload {
	case wlGenomeRead:
		return p, p.genomeRead(seconds)
	case wlGenomeChurn:
		return p, p.genomeChurn(seconds, tag)
	case wlTricolorSolve:
		return p, p.tricolorSolve(seconds, tag)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// genomeInstance generates one genome source instance.
func genomeInstance(transcripts int, suspect float64, seed int64) (instanceInput, error) {
	w, err := genome.NewWorld()
	if err != nil {
		return instanceInput{}, err
	}
	prof := genome.Profile{Name: "xrperf", Transcripts: transcripts, SuspectRate: suspect, Seed: seed}
	src := genome.Generate(w, prof)
	nSuspect := int(float64(transcripts)*suspect + 0.5)
	return instanceInput{
		Mapping:     genome.MappingText,
		Facts:       parser.FormatFacts(src, w.Cat, w.U),
		Queries:     genome.QueriesText,
		SourceFacts: src.Len(),
		NonSuspect:  transcripts - nSuspect,
	}, nil
}

// genomeQueryNames lists the Table 3 suite in its canonical order.
func genomeQueryNames() []string {
	var names []string
	for _, line := range strings.Split(genome.QueriesText, "\n") {
		if i := strings.IndexByte(line, '('); i > 0 {
			names = append(names, strings.TrimSpace(line[:i]))
		}
	}
	return names
}

// countChecked are the genome queries whose answer count the generator
// fixes independently of the engine: one tuple per non-suspect transcript.
var countChecked = map[string]bool{"ep2": true, "xr2": true, "xr5": true}

func loadBody(name string, in instanceInput) []byte {
	b, err := json.Marshal(struct {
		Name    string `json:"name"`
		Mapping string `json:"mapping"`
		Facts   string `json:"facts"`
		Queries string `json:"queries,omitempty"`
	}{name, in.Mapping, in.Facts, in.Queries})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

func loadOp(name string, instance int, in instanceInput) op {
	return op{kind: opLoad, method: "POST", path: "/v1/scenarios", body: loadBody(name, in),
		tenant: name, group: "load", instance: instance, want: &expectation{count: -1, sourceFcs: in.SourceFacts}}
}

func queryOp(tenant string, instance int, query, mode, group string, want *expectation) op {
	body := fmt.Sprintf(`{"name":%q}`, query)
	if mode != "certain" {
		body = fmt.Sprintf(`{"name":%q,"mode":%q}`, query, mode)
	}
	return op{kind: opQuery, method: "POST", path: "/v1/scenarios/" + tenant + "/query",
		body: []byte(body), tenant: tenant, query: query, group: group, instance: instance, want: want}
}

func deleteOp(tenant string) op {
	return op{kind: opDelete, method: "DELETE", path: "/v1/scenarios/" + tenant, tenant: tenant, group: "delete"}
}

// genomeExpect is the engine-independent part of a genome query's
// expectation; oracle digests are attached later.
func genomeExpect(query string, in instanceInput) *expectation {
	e := &expectation{count: -1, noSolver: true}
	if countChecked[query] {
		e.count = in.NonSuspect
	}
	return e
}

func (p *plan) genomeRead(seconds int) error {
	in, err := genomeInstance(readTranscripts, readSuspect, p.seed)
	if err != nil {
		return err
	}
	p.instances = []instanceInput{in}
	const tenant = "genome"
	names := genomeQueryNames()
	want := map[string]*expectation{}
	for _, q := range names {
		want[q] = genomeExpect(q, in)
	}
	p.setup = append(p.setup, loadOp(tenant, 0, in))
	for _, q := range names {
		p.setup = append(p.setup, queryOp(tenant, 0, q, "certain", q, want[q]))
	}
	// Both clients send the suite in one seeded order, in paired rounds:
	// both send the same query together (see lockstep).
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < scaled(readPassesPerSec, seconds, 10); i++ {
		for _, j := range rng.Perm(len(names)) {
			for c := range p.phase {
				p.phase[c] = append(p.phase[c], queryOp(tenant, 0, names[j], "certain", names[j], want[names[j]]))
			}
		}
	}
	p.lockstep()
	for k := 0; k < readTailLoads; k++ {
		name := fmt.Sprintf("genome-load%d", k)
		p.tail = append(p.tail, loadOp(name, 0, in), deleteOp(name))
	}
	return nil
}

// lockstep makes the clients send their measured phase in paired rounds:
// request k of each client is sent once request k-1 of every client
// completed. The clients' sequences must have equal lengths. Left to drift
// apart, two clients settle for many requests at a time into either
// alternating or parallel execution: a query blocks for one solver lane
// and then takes every free one, so whichever mode holds keeps holding,
// and a single-threaded part of a query then idles the second core. On
// genome-read identical inputs gave 19.9 or 29.5 qps. Paired rounds
// redraw that race every round, while concurrent requests still contend
// for the lanes, the CPU and (on a shared tenant) the signature locks.
func (p *plan) lockstep() {
	var prev []chan struct{}
	for k := range p.phase[0] {
		done := make([]chan struct{}, 0, clients)
		for c := range p.phase {
			o := &p.phase[c][k]
			o.await = append(o.await, prev...)
			o.signal = make(chan struct{})
			done = append(done, o.signal)
		}
		prev = done
	}
}

// windowed lays out one client's tenant cycle: the first window tenants
// load in set-up; in the phase each tenant runs its queries, then (while
// tenants remain) is deleted and replaced by the next one, so window
// tenants stay resident throughout and after the phase.
func (p *plan) windowed(c int, tenants []string, window int, load func(int) op, queries func(int) []op) {
	for j := 0; j < window && j < len(tenants); j++ {
		p.setup = append(p.setup, load(j))
	}
	for j := range tenants {
		p.phase[c] = append(p.phase[c], queries(j)...)
		if j+window < len(tenants) {
			p.phase[c] = append(p.phase[c], deleteOp(tenants[j]), load(j+window))
		}
	}
}

func (p *plan) genomeChurn(seconds int, tag string) error {
	for i := 0; i < churnInstances; i++ {
		in, err := genomeInstance(churnTranscripts, churnSuspect, p.seed*1000+int64(i))
		if err != nil {
			return err
		}
		p.instances = append(p.instances, in)
	}
	names := genomeQueryNames()
	per := scaled(churnTenantsPerS, seconds, 10)
	for c := 0; c < clients; c++ {
		tenants := make([]string, per)
		inst := make([]int, per)
		for j := range tenants {
			tenants[j] = fmt.Sprintf("churn%s-c%d-%03d", tag, c, j)
			inst[j] = (c*per + j) % churnInstances
		}
		p.windowed(c, tenants, churnWindow,
			func(j int) op { return loadOp(tenants[j], inst[j], p.instances[inst[j]]) },
			func(j int) []op {
				in := p.instances[inst[j]]
				ops := make([]op, 0, len(names))
				for _, q := range names {
					ops = append(ops, queryOp(tenants[j], inst[j], q, "certain", q, genomeExpect(q, in)))
				}
				return ops
			})
	}
	// Both clients load, ask and delete in step, each on its own tenants,
	// so the work counters still repeat exactly.
	p.lockstep()
	return nil
}

// ---------------------------------------------------------------------------
// tricolor-solve: Theorem 3 gadget instances.

// family is one graph shape of the tricolor mix.
type family struct {
	name  string
	edges [][2]int
}

// tricolorBlock is the per-block family mix. Cold-solve cost depends on
// the family (K4 about 1 s, the 4-edge graphs 20-90 ms) and, within a
// family, on chain order and orientation (K4 minus an edge 40-400 ms).
// Colourable graphs with 5-6 edges other than K4-e are left out: their
// cold and re-ask costs spread over 0.05-7 s with orientation.
var tricolorBlock = []family{
	{"K4", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
	{"K4-e", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}},
	{"C4", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{"C4", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{"K3+pendant", [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 0}}},
	{"K3+pendant", [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 0}}},
}

// graph is one generated tricolor graph: oriented, numbered edges over
// named vertices.
type graph struct {
	Family   string
	Vertices []string
	Edges    [][2]string // in chain order, oriented x -> y
	K4       bool
	Colour   map[string]int // a proper 3-colouring when !K4
}

// shape is a family's edges in chain order and orientation, over vertex
// indices.
type shape struct {
	family string
	nv     int
	edges  [][2]int
}

// orient draws a chain order and orientation of a family from rng, subject
// to every vertex having an outgoing edge (the gadget's requirement, see
// examples/tricolor).
func orient(rng *rand.Rand, f family) shape {
	s := shape{family: f.name}
	for _, e := range f.edges {
		s.nv = max(s.nv, e[0]+1, e[1]+1)
	}
	for {
		s.edges = s.edges[:0]
		hasOut := map[int]bool{}
		for _, j := range rng.Perm(len(f.edges)) {
			x, y := f.edges[j][0], f.edges[j][1]
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			hasOut[x] = true
			s.edges = append(s.edges, [2]int{x, y})
		}
		if len(hasOut) == s.nv {
			return s
		}
	}
}

// name builds the graph with fresh vertex names drawn from rng.
func (s shape) name(rng *rand.Rand) *graph {
	g := &graph{Family: s.family, Vertices: make([]string, s.nv)}
	used := map[string]bool{}
	for i := range g.Vertices {
		for {
			n := fmt.Sprintf("v%c%c%c", 'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26))
			if !used[n] {
				used[n] = true
				g.Vertices[i] = n
				break
			}
		}
	}
	for _, e := range s.edges {
		g.Edges = append(g.Edges, [2]string{g.Vertices[e[0]], g.Vertices[e[1]]})
	}
	g.K4 = containsK4(g)
	g.Colour = threeColouring(g)
	return g
}

// adjacency returns the undirected edge set.
func (g *graph) adjacency() map[[2]string]bool {
	adj := map[[2]string]bool{}
	for _, e := range g.Edges {
		adj[e] = true
		adj[[2]string{e[1], e[0]}] = true
	}
	return adj
}

// containsK4 checks every 4-vertex subset: the engine-independent oracle
// (a graph with at most 6 edges is 3-colourable unless it contains K4).
func containsK4(g *graph) bool {
	adj := g.adjacency()
	v := g.Vertices
	n := len(v)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := c + 1; d < n; d++ {
					q := []string{v[a], v[b], v[c], v[d]}
					all := true
					for i := 0; i < 4 && all; i++ {
						for j := i + 1; j < 4; j++ {
							if !adj[[2]string{q[i], q[j]}] {
								all = false
								break
							}
						}
					}
					if all {
						return true
					}
				}
			}
		}
	}
	return false
}

// threeColouring finds a proper 3-colouring by backtracking, or nil.
func threeColouring(g *graph) map[string]int {
	adj := g.adjacency()
	col := map[string]int{}
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(g.Vertices) {
			return true
		}
		v := g.Vertices[i]
		for c := 0; c < 3; c++ {
			ok := true
			for u, cu := range col {
				if cu == c && adj[[2]string{u, v}] {
					ok = false
					break
				}
			}
			if ok {
				col[v] = c
				if try(i + 1) {
					return true
				}
				delete(col, v)
			}
		}
		return false
	}
	if !try(0) {
		return nil
	}
	return col
}

// facts renders the gadget instance I_G.
func (g *graph) facts() string {
	var b strings.Builder
	for i, e := range g.Edges {
		fmt.Fprintf(&b, "E(%s, %s, n%d, n%d).\n", e[0], e[1], i+1, i+2)
	}
	for _, v := range g.Vertices {
		fmt.Fprintf(&b, "Cr(%s). Cg(%s). Cb(%s).\n", v, v, v)
	}
	fmt.Fprintf(&b, "F(n%d, n1).\n", len(g.Edges)+1)
	return b.String()
}

// tricolorQuery is the boolean membership query: certain iff F(n,1) is in
// every source repair iff the graph is not 3-colourable.
const tricolorQuery = "inAllRepairs"

// tricolorSolve splits the two clients into a provisioner and an asker.
// Two askers make throughput depend on a race in the daemon's lane pool: a
// query leases every free lane for its whole run although a one-signature
// query uses one, so two askers flip between running in parallel and
// strictly alternating, and a run's qps landed anywhere in 7-15 on
// identical inputs. With one asker the solver is the blocking step and the
// rate follows solver work. The provisioner keeps one block of tenants
// loaded ahead of the asker and deletes each one once asked, the last ones
// too, so the phase ends with no tenant resident.
//
// Every block repeats one set of shapes: chain order and orientation are
// drawn once from a fixed stream, so every run does the same solver work
// and each shape's asks form one tight cluster of latencies. Drawn anew per
// block, the shapes spread the re-ask latencies so thinly that the median
// of a run hopped between families, by 20% from run to run. The seed draws
// the vertex names and the order of the tenants within each block. So the
// set-up, which loads the first block, always loads one graph per shape;
// loading the first two tenants of a shuffle over all blocks made set-up
// time depend on the seed's first families.
func (p *plan) tricolorSolve(seconds int, tag string) error {
	structure := rand.New(rand.NewSource(1))
	block := make([]shape, len(tricolorBlock))
	for i, f := range tricolorBlock {
		block[i] = orient(structure, f)
	}
	rng := rand.New(rand.NewSource(p.seed))
	var tenants []string
	for b := 0; b < scaled(tricolorBlocksPerS, seconds, 2); b++ {
		for _, i := range rng.Perm(len(block)) {
			g := block[i].name(rng)
			p.instances = append(p.instances, instanceInput{
				Mapping:     tricolorGadget,
				Facts:       g.facts(),
				Queries:     fmt.Sprintf("%s() :- Fsrc(n%d, n1).\n", tricolorQuery, len(g.Edges)+1),
				SourceFacts: len(g.Edges) + 3*len(g.Vertices) + 1,
				graph:       g,
			})
			tenants = append(tenants, fmt.Sprintf("tc%s-%03d", tag, len(tenants)))
		}
	}
	window := len(block)
	const provisioner, asker = 0, 1
	loaded := make([]chan struct{}, len(tenants))
	asked := make([]chan struct{}, len(tenants))
	for j := range tenants {
		loaded[j], asked[j] = make(chan struct{}), make(chan struct{})
		if j < window {
			p.setup = append(p.setup, loadOp(tenants[j], j, p.instances[j]))
			close(loaded[j])
		}
	}
	for j, t := range tenants {
		certain := 0
		if p.instances[j].graph.K4 {
			certain = 1
		}
		asks := []op{
			queryOp(t, j, tricolorQuery, "certain", "cold", &expectation{count: certain}),
			queryOp(t, j, tricolorQuery, "possible", "possible", &expectation{count: 1}),
			queryOp(t, j, tricolorQuery, "certain", "reask", &expectation{count: certain}),
		}
		asks[0].await, asks[2].signal = []chan struct{}{loaded[j]}, asked[j]
		p.phase[asker] = append(p.phase[asker], asks...)
		del := deleteOp(t)
		del.await = []chan struct{}{asked[j]}
		p.phase[provisioner] = append(p.phase[provisioner], del)
		if next := j + window; next < len(tenants) {
			load := loadOp(tenants[next], next, p.instances[next])
			load.signal = loaded[next]
			p.phase[provisioner] = append(p.phase[provisioner], load)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Manifest: the inputs a run measured, recorded beside its metrics.

type manifest struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Clients       int            `json:"clients"`
	Instances     int            `json:"distinct_instances"`
	SourceFacts   []int          `json:"source_facts"`
	BodyBytes     []int          `json:"load_body_bytes"`
	SetupOps      int            `json:"setup_requests"`
	PhaseOps      [clients]int   `json:"phase_requests"`
	PhaseQueries  int            `json:"phase_queries"`
	PhaseLoads    int            `json:"phase_loads"`
	Families      map[string]int `json:"graph_families,omitempty"`
	GraphEdges    map[int]int    `json:"graph_edges,omitempty"`
	Colourable    int            `json:"colourable,omitempty"`
	ContainsK4    int            `json:"contains_k4,omitempty"`
	RequestSHA256 string         `json:"request_sha256"`
	HostProbeMS   float64        `json:"host_probe_ms"`
	HostStealPct  float64        `json:"host_steal_pct"` // share of CPU time stolen during the phase
	// Filled from responses: chased facts and clusters per distinct
	// instance, and signatures per query (programs solved) per group.
	ChasedFacts []int          `json:"chased_facts,omitempty"`
	Clusters    []int          `json:"clusters,omitempty"`
	Signatures  map[string]int `json:"signatures_per_query,omitempty"`
}

func (p *plan) manifest() manifest {
	m := manifest{Workload: p.workload, Seed: p.seed, Clients: clients, Instances: len(p.instances),
		SetupOps: len(p.setup), RequestSHA256: p.requestDigest()}
	for _, in := range p.instances {
		m.SourceFacts = append(m.SourceFacts, in.SourceFacts)
		if g := in.graph; g != nil {
			if m.Families == nil {
				m.Families, m.GraphEdges = map[string]int{}, map[int]int{}
			}
			m.Families[g.Family]++
			m.GraphEdges[len(g.Edges)]++
			if g.K4 {
				m.ContainsK4++
			} else {
				m.Colourable++
			}
		}
	}
	seen := map[int]bool{}
	p.each(func(o *op) {
		if o.kind == opLoad && !seen[o.instance] {
			seen[o.instance] = true
			m.BodyBytes = append(m.BodyBytes, len(o.body))
		}
	})
	for c := range p.phase {
		m.PhaseOps[c] = len(p.phase[c])
		for _, o := range p.phase[c] {
			switch o.kind {
			case opQuery:
				m.PhaseQueries++
			case opLoad:
				m.PhaseLoads++
			}
		}
	}
	// Tricolor has one body per tenant: keep the ranges only.
	m.SourceFacts, m.BodyBytes = rangeOf(m.SourceFacts), rangeOf(m.BodyBytes)
	return m
}

// rangeOf reduces more than 8 values to [min, max].
func rangeOf(v []int) []int {
	if len(v) <= 8 {
		return v
	}
	s := append([]int(nil), v...)
	sort.Ints(s)
	return []int{s[0], s[len(s)-1]}
}

// each visits every request of the plan in send order per client: set-up
// first, then client 0's phase, then client 1's, then the tail.
func (p *plan) each(fn func(*op)) {
	for i := range p.setup {
		fn(&p.setup[i])
	}
	for c := range p.phase {
		for i := range p.phase[c] {
			fn(&p.phase[c][i])
		}
	}
	for i := range p.tail {
		fn(&p.tail[i])
	}
}

// requestDigest hashes every request's method, path and body in order:
// equal seeds must give equal digests.
func (p *plan) requestDigest() string {
	h := sha256.New()
	p.each(func(o *op) {
		fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
		h.Write(o.body)
	})
	return hex.EncodeToString(h.Sum(nil))
}
