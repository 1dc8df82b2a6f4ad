package rules

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/similarity"
)

// OutcomeKind classifies the result of evaluating a rule on a tuple.
type OutcomeKind uint8

const (
	// NoMatch: the rule says nothing about the tuple.
	NoMatch OutcomeKind = iota
	// Positive: proof positive — evidence and positive node matched;
	// the touched cells are correct (§II-C case 1).
	Positive
	// Repair: proof negative and correction — evidence plus negative
	// node matched and the KB supplies at least one replacement value
	// (§II-C cases 2–3).
	Repair
)

func (k OutcomeKind) String() string {
	switch k {
	case Positive:
		return "positive"
	case Repair:
		return "repair"
	default:
		return "no-match"
	}
}

// CanonCell is one evidence cell to rewrite to its canonical KB
// spelling.
type CanonCell struct {
	Col   int    // schema column index
	Value string // canonical instance name
}

// Outcome is the verdict of one rule on one tuple.
type Outcome struct {
	Kind OutcomeKind
	// MarkCols are the columns proven correct (evidence ∪ {p}), and
	// MarkIdx their schema indexes. Both are shared by every outcome of
	// the rule: treat them as read-only.
	MarkCols []string
	MarkIdx  []int
	// RepairCol is the column to rewrite and RepairIdx its schema index
	// (only for Kind == Repair).
	RepairCol string
	RepairIdx int
	// Repairs holds the candidate correct values drawn from the KB,
	// deduplicated and ordered most-similar first. More than one entry
	// is a multi-version repair (§IV-C).
	Repairs []string
	// Witness maps rule-node names to the KB instance names of one
	// instance-level matching graph behind the verdict — the
	// "white-box" provenance of the decision. For a Repair via proof
	// negative, the negative node's binding is the instance the wrong
	// value matched; path nodes appear under their declared names.
	// Engines fill it only while an explanation is being recorded.
	Witness map[string]string
	// Canonical lists matched evidence cells whose tuple value matched
	// only fuzzily (a typo within the node's similarity threshold),
	// with the canonical KB instance name. Applying the rule rewrites
	// these cells so that, regardless of which rule marks a cell first,
	// the fixpoint carries the KB's spelling — without this, marking a
	// typo'd evidence value would freeze the typo and break the
	// Church-Rosser property.
	Canonical []CanonCell
}

// Matcher evaluates one detective rule against tuples of one schema
// using one KB.
type Matcher struct {
	Rule   *DR
	Cat    *Catalog
	Schema *relation.Schema

	plan
	ids atomic.Pointer[resolvedIDs] // type/predicate IDs of the last graph seen
}

// plan is a DR compiled for slot-indexed matching. Every rule node
// owns a slot: the evidence nodes first in rule order, then the
// positive node, the negative node (if any) and the path nodes. An
// instance-level matching graph is a []kb.ID indexed by slot.
type plan struct {
	nodes    []Node   // per slot
	cols     []int    // per slot: schema column, -1 for path nodes
	rels     []string // distinct edge labels, resolved once per graph
	pos, neg int32    // slots of the positive and negative node (neg -1 if none)
	capped   bool     // path nodes exist: pole searches are bounded walks

	ev      search // evidence nodes and the edges among them
	posSide search // evidence ∪ path ∪ {pos}, value-driven
	negSide search // evidence ∪ path ∪ {neg}, value-driven
	posPole search // positive side seeded with an evidence assignment
	negPole search // negative side seeded with an evidence assignment
	posFix  search // positive side seeded with a negative-side assignment

	markCols []string
	markIdx  []int
}

// arc is one rule edge seen from one of its endpoints.
type arc struct {
	other int32 // slot at the far end
	rel   int32 // index into plan.rels
	subj  bool  // the near end is the edge's subject (From)
}

// search is one compiled instance-level matching problem over a
// subset of the slots: the column-bound slots, whose candidates come
// from the catalog, and the column-less slots, attached in a static
// order such that each has an already-bound neighbour. Slots of the
// subset in neither list are seeded from a given assignment.
type search struct {
	cols []int32 // column-bound slots in rule order
	lazy []int32 // column-less slots in attach order
	arcs [][]arc // per slot: the search's edges incident to it
	ok   bool    // false when some column-less slot can never attach
}

// resolvedIDs are a plan's type and predicate names resolved against
// one graph. IDs differ between graphs (snapshot reloads, deltas), so
// they are keyed on the graph's identity and generation. The identity
// is the graph's address, compared but never dereferenced, so a graph
// swapped out of the store is not kept alive by its matchers.
type resolvedIDs struct {
	g   uintptr
	gen int64
	cls []kb.ID // per slot
	rel []kb.ID // per plan.rels entry
}

// NewMatcher validates the rule against the schema and compiles its
// match plan.
func NewMatcher(rule *DR, cat *Catalog, schema *relation.Schema) (*Matcher, error) {
	if err := rule.Validate(schema); err != nil {
		return nil, err
	}
	allNodes := append(append([]Node(nil), rule.Evidence...), rule.Pos)
	if rule.Neg != nil {
		allNodes = append(allNodes, *rule.Neg)
	}
	for _, n := range allNodes {
		if n.Sim.Op == similarity.OpED && n.Sim.K > MaxEDThreshold {
			return nil, fmt.Errorf("rules: %s: node %s: ED threshold %d exceeds supported maximum %d",
				rule.Name, n.Name, n.Sim.K, MaxEDThreshold)
		}
	}
	m := &Matcher{Rule: rule, Cat: cat, Schema: schema}
	m.compile()
	return m, nil
}

// compile lays out the slots and compiles every search the two
// evaluation strategies run.
func (m *Matcher) compile() {
	r := m.Rule
	m.nodes = append(append([]Node(nil), r.Evidence...), r.Pos)
	m.pos, m.neg = int32(len(r.Evidence)), -1
	if r.Neg != nil {
		m.neg = int32(len(m.nodes))
		m.nodes = append(m.nodes, *r.Neg)
	}
	for _, p := range r.Path {
		m.nodes = append(m.nodes, p.asNode())
	}
	m.capped = len(r.Path) > 0
	slot := make(map[string]int32, len(m.nodes))
	m.cols = make([]int, len(m.nodes))
	for i, n := range m.nodes {
		slot[n.Name] = int32(i)
		m.cols[i] = m.Schema.Col(n.Col)
	}
	for _, c := range append(r.EvidenceCols(), r.Pos.Col) {
		m.markCols = append(m.markCols, c)
		m.markIdx = append(m.markIdx, m.Schema.Col(c))
	}
	relIdx := make(map[string]int32)

	// compile builds the search over gr. seeded == nil matches every
	// column-bound node from its cell; otherwise the named nodes are
	// seeded and all others resolved through edges (the caller applies
	// the pole's sim).
	compile := func(gr Graph, seeded map[string]bool) search {
		s := search{arcs: make([][]arc, len(m.nodes)), ok: true}
		placed := make(map[string]bool, len(gr.Nodes))
		var lazy []string
		for _, n := range gr.Nodes {
			switch {
			case seeded != nil && seeded[n.Name]:
				placed[n.Name] = true
			case seeded == nil && n.Col != "":
				s.cols = append(s.cols, slot[n.Name])
				placed[n.Name] = true
			default:
				lazy = append(lazy, n.Name)
			}
		}
		for _, e := range gr.Edges {
			ri, ok := relIdx[e.Rel]
			if !ok {
				ri = int32(len(m.rels))
				relIdx[e.Rel] = ri
				m.rels = append(m.rels, e.Rel)
			}
			f, t := slot[e.From], slot[e.To]
			s.arcs[f] = append(s.arcs[f], arc{other: t, rel: ri, subj: true})
			s.arcs[t] = append(s.arcs[t], arc{other: f, rel: ri, subj: false})
		}
		// Attach column-less nodes one at a time, always the first that
		// touches an already placed node.
		for len(lazy) > 0 {
			k := slices.IndexFunc(lazy, func(name string) bool {
				return slices.ContainsFunc(gr.Edges, func(e Edge) bool {
					return e.From == name && placed[e.To] || e.To == name && placed[e.From]
				})
			})
			if k < 0 {
				s.ok = false // disconnected from the anchored part
				break
			}
			placed[lazy[k]] = true
			s.lazy = append(s.lazy, slot[lazy[k]])
			lazy = slices.Delete(lazy, k, k+1)
		}
		return s
	}

	evidence := make(map[string]bool, len(r.Evidence))
	for _, n := range r.Evidence {
		evidence[n.Name] = true
	}
	pg := r.positiveGraph()
	m.ev = compile(Graph{Nodes: r.Evidence, Edges: r.evidenceEdges()}, nil)
	m.posSide = compile(pg, nil)
	m.posPole = compile(pg, evidence)
	if ng, ok := r.negativeGraph(); ok {
		m.negSide = compile(ng, nil)
		m.negPole = compile(ng, evidence)
		fix := make(map[string]bool, len(ng.Nodes))
		for _, n := range ng.Nodes {
			fix[n.Name] = true
		}
		m.posFix = compile(pg, fix)
	}
}

// resolve returns the plan's IDs on g, resolving them on the first
// evaluation against a new graph or generation.
func (m *Matcher) resolve(g *kb.Graph) *resolvedIDs {
	addr := uintptr(unsafe.Pointer(g))
	if r := m.ids.Load(); r != nil && r.g == addr && r.gen == g.Generation() {
		return r
	}
	r := &resolvedIDs{g: addr, gen: g.Generation(), cls: make([]kb.ID, len(m.nodes)), rel: make([]kb.ID, len(m.rels))}
	for i, n := range m.nodes {
		r.cls[i] = g.Lookup(n.Type)
	}
	for i, name := range m.rels {
		r.rel[i] = g.Lookup(name)
	}
	m.ids.Store(r)
	return r
}

// MarkColIdx returns the schema indexes of the columns a successful
// application marks.
func (m *Matcher) MarkColIdx() []int { return m.markIdx }

// assignmentCap bounds the number of instance-level matching graphs
// enumerated per rule per tuple. Evidence matches are near-functional
// in practice (the user picks such rules, §III-B), so this is purely
// defensive.
const assignmentCap = 64

// Pole searches through path nodes stop after maxPole distinct pole
// instances or maxExpansions tried path bindings.
const (
	maxPole       = 256
	maxExpansions = 8192
)

// Scratch is the working memory of plan evaluation. Engines keep one
// per pooled per-tuple state so the evaluate path allocates only the
// outcome's own data; the zero value is ready to use. A Scratch must
// not be used by two evaluations at once.
type Scratch struct {
	row    []kb.ID   // the binding being extended, one ID per slot
	as     []kb.ID   // found assignments, len(nodes) IDs each
	cands  [][]kb.ID // per slot: catalog candidates of column-bound slots
	order  []int32   // bind order of the current search
	next   []int     // per depth: index of the next option to try
	opts   [][]kb.ID // per depth: the options being tried
	lazy   [][]kb.ID // per depth: buffers for column-less options
	poles  []kb.ID   // positive-pole candidates of every assignment, concatenated
	off    []int     // poles[off[i]:off[i+1]] belongs to assignment i
	negs   []kb.ID   // pole candidates of one assignment
	sel    []int32   // selected assignment indexes
	fuzzy  []int32   // assignments with only a fuzzy positive match
	names  []string  // repair candidate names
	ranked []rankedName
}

type rankedName struct {
	dist int
	name string
}

func (sc *Scratch) grow(n int) {
	sc.row = slices.Grow(sc.row[:0], n)[:n]
	if len(sc.cands) < n {
		sc.cands = make([][]kb.ID, n)
		sc.next = make([]int, n)
		sc.opts = make([][]kb.ID, n)
		sc.lazy = make([][]kb.ID, n)
	}
}

// scratchPool backs standalone Evaluate calls.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Evaluate applies the rule's semantics to t (read-only): proof
// positive first, then proof negative + correction, mirroring
// Algorithm 1 lines 3–7.
//
// One refinement beyond the letter of Algorithm 1: when the positive
// node matches only *fuzzily* (the cell value is within the node's
// similarity threshold of a KB instance but not equal to it — a typo),
// Evaluate reports a Repair that rewrites the cell to the canonical
// instance name instead of a bare Positive. This is how the paper's
// experiments repair typo errors ("repair an error to the most
// similar candidate", §V-B Exp-2(B)).
//
// Two equivalent strategies are implemented. The *value-driven* one
// (used with scan retrieval, i.e. by the basic algorithm) matches the
// full positive/negative graphs with candidate sets retrieved from the
// tuple values — the paper's Algorithm 1 cost model. The *edge-driven*
// one (the fast engine) first matches the evidence nodes, then derives
// positive/negative node candidates through the KB edges from the
// matched evidence instances, which avoids value-driven retrieval over
// large or low-entropy class extents entirely.
func (m *Matcher) Evaluate(t *relation.Tuple) Outcome {
	sc := scratchPool.Get().(*Scratch)
	out := m.EvaluateWith(m.Cat.Graph(), t, sc, false, true)
	scratchPool.Put(sc)
	return out
}

// EvaluateWith is Evaluate against an explicitly pinned graph, with
// caller-owned scratch, a retrieval mode and the witness built only
// when explain is set. Callers repairing a whole tuple (or table) pin
// the store's graph once and evaluate every rule on it, so a
// concurrent hot swap never mixes two KBs within one tuple. scan=true
// replaces the signature indexes with the basic algorithm's full
// class-extent scans, its per-node cost model.
func (m *Matcher) EvaluateWith(g *kb.Graph, t *relation.Tuple, sc *Scratch, scan, explain bool) Outcome {
	sc.grow(len(m.nodes))
	x := evaluation{Matcher: m, g: g, ids: m.resolve(g), sc: sc, t: t, explain: explain}
	if !scan && len(m.Rule.Evidence) > 0 {
		return x.edgeDriven()
	}
	return x.valueDriven(scan)
}

// EvidenceCheckOn reports whether t can match evidence node i at the
// value level on g: some KB instance of the node's type matches the
// cell under the node's sim. It is the unit the fast repair engine
// memoizes across rules (Figure 5 node keys).
func (m *Matcher) EvidenceCheckOn(g *kb.Graph, t *relation.Tuple, i int) bool {
	return len(m.Cat.LookupID(g, m.resolve(g).cls[i], m.nodes[i].Sim, t.Values[m.cols[i]], false)) > 0
}

// evaluation is one rule evaluation on one tuple.
type evaluation struct {
	*Matcher
	g       *kb.Graph
	ids     *resolvedIDs
	sc      *Scratch
	t       *relation.Tuple
	explain bool
}

// edgeDriven matches evidence first and resolves the positive and
// negative nodes through their incident edges.
func (x *evaluation) edgeDriven() Outcome {
	sc := x.sc
	if !x.fetch(&x.ev, false) {
		return Outcome{}
	}
	na := x.search(&x.ev)
	if na == 0 {
		return Outcome{}
	}
	value := x.t.Values[x.cols[x.pos]]

	// (1) Proof positive: a positive-node instance consistent with the
	// evidence whose name matches the cell value under sim(p).
	sim := x.nodes[x.pos].Sim
	sc.poles, sc.off = sc.poles[:0], append(sc.off[:0], 0)
	sc.names, sc.sel, sc.fuzzy = sc.names[:0], sc.sel[:0], sc.fuzzy[:0]
	for i := range na {
		x.poleCands(&x.posPole, x.assignment(i), x.pos, &sc.poles)
		sc.off = append(sc.off, len(sc.poles))
		exact, fuzzy := false, false
		for _, xp := range sc.poles[sc.off[i]:] {
			name := x.g.Name(xp)
			if !sim.Match(value, name) {
				continue
			}
			if name == value {
				exact = true
			} else {
				sc.names = append(sc.names, name)
				fuzzy = true
			}
		}
		switch {
		case exact:
			sc.sel = append(sc.sel, int32(i))
		case fuzzy:
			sc.fuzzy = append(sc.fuzzy, int32(i))
		}
	}
	if len(sc.sel) > 0 {
		return Outcome{Kind: Positive, MarkCols: x.markCols, MarkIdx: x.markIdx,
			Canonical: x.canonical(sc.sel), Witness: x.witness(&x.ev, sc.sel[0], -1, kb.Invalid)}
	}
	if len(sc.fuzzy) > 0 {
		return x.repair(sc.fuzzy, x.witness(&x.ev, sc.fuzzy[0], -1, kb.Invalid))
	}

	// (2) Proof negative + (3) correction.
	if x.neg < 0 {
		return Outcome{}
	}
	nsim := x.nodes[x.neg].Sim
	sc.names, sc.sel = sc.names[:0], sc.sel[:0]
	first, firstXn := int32(-1), kb.Invalid
	for i := range na {
		sc.negs = sc.negs[:0]
		x.poleCands(&x.negPole, x.assignment(i), x.neg, &sc.negs)
		xns := sc.negs[:0]
		for _, xn := range sc.negs {
			if nsim.Match(value, x.g.Name(xn)) {
				xns = append(xns, xn)
			}
		}
		if len(xns) == 0 {
			continue
		}
		sc.sel = append(sc.sel, int32(i))
		repaired := false
		for _, xp := range sc.poles[sc.off[i]:sc.off[i+1]] {
			if _, wrong := slices.BinarySearch(xns, xp); wrong {
				continue // paper requires xp != xn
			}
			sc.names = append(sc.names, x.g.Name(xp))
			repaired = true
		}
		if repaired && first < 0 {
			first, firstXn = int32(i), xns[0]
		}
	}
	if len(sc.names) == 0 {
		return Outcome{}
	}
	return x.repair(sc.sel, x.witness(&x.ev, first, x.neg, firstXn))
}

// valueDriven matches the full positive (then negative) graph with
// value-retrieved candidate sets per node.
func (x *evaluation) valueDriven(scan bool) Outcome {
	sc := x.sc
	sc.names, sc.sel = sc.names[:0], sc.sel[:0]
	// (1) Proof positive.
	if x.fetch(&x.posSide, scan) {
		if na := x.search(&x.posSide); na > 0 {
			positive := false
			for i := range na {
				name := x.g.Name(x.assignment(i)[x.pos])
				positive = positive || name == x.t.Values[x.cols[x.pos]]
				sc.names = append(sc.names, name)
				sc.sel = append(sc.sel, int32(i))
			}
			if positive {
				return Outcome{Kind: Positive, MarkCols: x.markCols, MarkIdx: x.markIdx,
					Canonical: x.canonical(sc.sel), Witness: x.witness(&x.posSide, 0, -1, kb.Invalid)}
			}
			return x.repair(sc.sel, nil)
		}
	}
	// (2) Proof negative + (3) correction: for every match of
	// evidence ∪ {neg}, draw replacement instances for the positive
	// node from the KB.
	if x.neg < 0 || !x.fetch(&x.negSide, scan) {
		return Outcome{}
	}
	na := x.search(&x.negSide)
	for i := range na {
		a := x.assignment(i)
		sc.sel = append(sc.sel, int32(i))
		sc.negs = sc.negs[:0]
		x.poleCands(&x.posFix, a, x.pos, &sc.negs)
		for _, xp := range sc.negs {
			if xp != a[x.neg] { // paper requires xp != xn
				sc.names = append(sc.names, x.g.Name(xp))
			}
		}
	}
	if len(sc.names) == 0 {
		// Proof negative held but the KB offers no correction: stay
		// conservative and do nothing (the paper repairs only when the
		// evidence is sufficient).
		return Outcome{}
	}
	return x.repair(sc.sel, nil)
}

// repair assembles a Repair outcome from the candidate names collected
// in the scratch and the assignments sel behind them.
func (x *evaluation) repair(sel []int32, witness map[string]string) Outcome {
	return Outcome{Kind: Repair, MarkCols: x.markCols, MarkIdx: x.markIdx,
		RepairCol: x.Rule.Pos.Col, RepairIdx: x.cols[x.pos],
		Repairs: x.repairs(), Canonical: x.canonical(sel), Witness: witness}
}

// assignment returns the i-th assignment the last search found.
func (x *evaluation) assignment(i int) []kb.ID {
	n := len(x.nodes)
	return x.sc.as[i*n : (i+1)*n]
}

// fetch retrieves the candidates of every column-bound slot of s; it
// reports false as soon as one has none.
func (x *evaluation) fetch(s *search, scan bool) bool {
	for _, sl := range s.cols {
		c := x.Cat.LookupID(x.g, x.ids.cls[sl], x.nodes[sl].Sim, x.t.Values[x.cols[sl]], scan)
		if len(c) == 0 {
			return false
		}
		x.sc.cands[sl] = c
	}
	return true
}

// search enumerates the assignments of s into the scratch (after
// fetch) and returns how many it found.
func (x *evaluation) search(s *search) int {
	sc := x.sc
	sc.as = sc.as[:0]
	if !s.ok {
		return 0
	}
	for i := range sc.row {
		sc.row[i] = kb.Invalid
	}
	x.walk(s, -1, &sc.as)
	return len(sc.as) / len(x.nodes)
}

// poleCands appends to dst, in ascending ID order, the instances that
// can stand as slot pole given assignment a, resolved through the
// edges of pole search s. Without path nodes this is the direct
// edge-neighbourhood intersection; with path nodes the side graph is
// walked existentially (the §II-C path extension).
func (x *evaluation) poleCands(s *search, a []kb.ID, pole int32, dst *[]kb.ID) {
	copy(x.sc.row, a)
	for _, sl := range s.lazy {
		x.sc.row[sl] = kb.Invalid
	}
	if !s.ok {
		return
	}
	if !x.capped {
		*dst = x.neighbours(s, pole, *dst)
		return
	}
	start := len(*dst)
	x.walk(s, pole, dst)
	slices.Sort((*dst)[start:])
}

// walk backtracks over the bindings of s from the scratch row, whose
// seeded slots are already set. Column-bound slots are bound cheapest
// candidate list first (ties in rule order) and each candidate must
// satisfy the edges to the slots already bound; column-less slots
// follow in attach order with options computed from their bound
// neighbours. With pole < 0 every complete binding is appended to dst
// until assignmentCap; otherwise the distinct bindings of slot pole
// are, until maxPole of them or maxExpansions tried options.
func (x *evaluation) walk(s *search, pole int32, dst *[]kb.ID) {
	sc := x.sc
	order := append(sc.order[:0], s.cols...)
	slices.SortFunc(order, func(a, b int32) int { return len(sc.cands[a]) - len(sc.cands[b]) })
	order = append(order, s.lazy...)
	sc.order = order
	if len(order) == 0 {
		return
	}
	start, expansions := len(*dst), 0
	x.enter(s, 0)
	for d := 0; d >= 0; {
		sl, opts := order[d], sc.opts[d]
		bound := false
		for sc.next[d] < len(opts) && !bound {
			inst := opts[sc.next[d]]
			sc.next[d]++
			if d >= len(s.cols) || x.arcsHold(s.arcs[sl], inst) {
				sc.row[sl] = inst
				bound = true
			}
		}
		if !bound {
			sc.row[sl] = kb.Invalid
			d--
			continue
		}
		if pole >= 0 {
			if expansions++; expansions >= maxExpansions || len(*dst)-start >= maxPole {
				return
			}
		}
		if d+1 < len(order) {
			d++
			x.enter(s, d)
			continue
		}
		if pole < 0 {
			if *dst = append(*dst, sc.row...); len(*dst) >= assignmentCap*len(sc.row) {
				return
			}
		} else if !slices.Contains((*dst)[start:], sc.row[pole]) {
			*dst = append(*dst, sc.row[pole])
		}
	}
}

// enter prepares the options of depth d of the current walk.
func (x *evaluation) enter(s *search, d int) {
	sc := x.sc
	sc.next[d] = 0
	if sl := sc.order[d]; d < len(s.cols) {
		sc.opts[d] = sc.cands[sl]
	} else {
		sc.lazy[d] = x.neighbours(s, sl, sc.lazy[d][:0])
		sc.opts[d] = sc.lazy[d]
	}
}

// arcsHold reports whether binding inst satisfies every arc whose far
// end is bound.
func (x *evaluation) arcsHold(arcs []arc, inst kb.ID) bool {
	for _, a := range arcs {
		o := x.sc.row[a.other]
		if o == kb.Invalid {
			continue
		}
		rel := x.ids.rel[a.rel]
		if rel == kb.Invalid {
			return false
		}
		if a.subj && !x.g.HasEdge(inst, rel, o) || !a.subj && !x.g.HasEdge(o, rel, inst) {
			return false
		}
	}
	return true
}

// neighbours appends to dst, in ascending ID order, the instances of
// slot sl's type that every bound neighbour reaches over its arc —
// the intersection of their relationship neighbourhoods. No bound
// neighbour, an unknown type or an unknown predicate yields none.
func (x *evaluation) neighbours(s *search, sl int32, dst []kb.ID) []kb.ID {
	cls := x.ids.cls[sl]
	if cls == kb.Invalid {
		return dst
	}
	start, first := len(dst), true
	for _, a := range s.arcs[sl] {
		o := x.sc.row[a.other]
		if o == kb.Invalid {
			continue
		}
		rel := x.ids.rel[a.rel]
		if rel == kb.Invalid {
			return dst[:start]
		}
		var neigh []kb.ID
		if a.subj {
			neigh = x.g.Subjects(rel, o)
		} else {
			neigh = x.g.Objects(o, rel)
		}
		if first {
			for _, y := range neigh {
				if x.g.HasType(y, cls) {
					dst = append(dst, y)
				}
			}
			slices.Sort(dst[start:])
			dst = dst[:start+len(slices.Compact(dst[start:]))]
			first = false
		} else {
			keep := dst[start:start]
			for _, y := range dst[start:] {
				if slices.Contains(neigh, y) {
					keep = append(keep, y)
				}
			}
			dst = dst[:start+len(keep)]
		}
		if len(dst) == start {
			return dst
		}
	}
	return dst
}

// witness renders assignment i of search s (plus an optional extra
// binding) as node-name -> instance-name provenance; nil unless the
// evaluation is explaining.
func (x *evaluation) witness(s *search, i int32, extra int32, inst kb.ID) map[string]string {
	if !x.explain {
		return nil
	}
	a := x.assignment(int(i))
	w := make(map[string]string, len(s.cols)+len(s.lazy)+1)
	for _, slots := range [2][]int32{s.cols, s.lazy} {
		for _, sl := range slots {
			w[x.nodes[sl].Name] = x.g.Name(a[sl])
		}
	}
	if extra >= 0 {
		w[x.nodes[extra].Name] = x.g.Name(inst)
	}
	return w
}

// canonical derives, for each evidence node whose tuple value matched
// a KB instance only fuzzily, the canonical instance name — if it is
// unique across the assignments sel. Ambiguous matches are left
// untouched.
func (x *evaluation) canonical(sel []int32) []CanonCell {
	var out []CanonCell
	for i, n := range x.Rule.Evidence {
		if !n.Sim.Fuzzy() {
			continue
		}
		value := x.t.Values[x.cols[i]]
		unique, ambiguous := "", false
		for _, ai := range sel {
			name := x.g.Name(x.assignment(int(ai))[i])
			if name == value {
				// The raw value itself is a KB instance: keep it.
				ambiguous = true
				break
			}
			if unique == "" {
				unique = name
			} else if unique != name {
				ambiguous = true
				break
			}
		}
		if !ambiguous && unique != "" {
			out = append(out, CanonCell{Col: x.cols[i], Value: unique})
		}
	}
	return out
}

// repairs returns the distinct candidate names collected in the
// scratch, ordered by ascending edit distance to the current (wrong)
// value, ties broken lexically, so Repairs[0] is the "most similar
// candidate" the paper's single-version experiments repair to (§V-B
// Exp-2(B)).
func (x *evaluation) repairs() []string {
	sc := x.sc
	slices.Sort(sc.names)
	names := slices.Compact(sc.names)
	if len(names) > 1 {
		value := x.t.Values[x.cols[x.pos]]
		r := sc.ranked[:0]
		for _, s := range names {
			r = append(r, rankedName{similarity.ED(value, s), s})
		}
		slices.SortFunc(r, func(a, b rankedName) int {
			if a.dist != b.dist {
				return a.dist - b.dist
			}
			return strings.Compare(a.name, b.name)
		})
		for i := range r {
			names[i] = r[i].name
		}
		sc.ranked = r
	}
	return slices.Clone(names)
}

// EdgeKey is the shared-computation identity of an edge check — the
// Figure 5 edge keys ("Name, worksAt, Institution"), refined with the
// endpoint node keys so that two rules share a check only when it is
// genuinely the same predicate over the same (col, type, sim) pairs.
func EdgeKey(from Node, rel string, to Node) string {
	return from.Key() + "\x01" + rel + "\x01" + to.Key()
}
