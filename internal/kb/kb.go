// Package kb implements an in-memory RDF-style knowledge graph, the
// substrate that detective rules draw evidence from. It models the
// fragment of RDFS the paper relies on: classes, instances, literals,
// relationships (instance→instance edges) and properties
// (instance→literal edges), plus a subClassOf taxonomy.
//
// All node names are interned to dense int32 IDs so that the indexes
// used by rule matching (type index, subject–predicate index,
// predicate–object index) are cheap lookups over small keys. The store
// is append-only: triples can be added at any time, and the derived
// type closures (transitive class membership, counting subClassOf) are
// rebuilt lazily, as span tables of ascending IDs, by one builder
// shared by every storage form.
package kb

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// ID is a dense interned identifier for a node (instance, class or
// literal) or a predicate in the graph. The zero graph has no valid
// IDs; Invalid is returned by lookups that miss.
type ID int32

// Invalid is the sentinel returned when a name is not in the graph.
const Invalid ID = -1

// Kind classifies a node.
type Kind uint8

const (
	// KindUnknown marks nodes seen only as predicate labels or not yet
	// classified.
	KindUnknown Kind = iota
	// KindInstance is an entity, e.g. "Avram Hershko".
	KindInstance
	// KindClass is a concept, e.g. "city".
	KindClass
	// KindLiteral is a string/date/number value, e.g. "1937-12-31".
	KindLiteral
)

func (k Kind) String() string {
	switch k {
	case KindInstance:
		return "instance"
	case KindClass:
		return "class"
	case KindLiteral:
		return "literal"
	default:
		return "unknown"
	}
}

// Edge is one outgoing (or incoming) labelled edge of a node.
type Edge struct {
	Pred ID // relationship or property label
	To   ID // the other endpoint
}

// Graph is an in-memory RDF graph with the indexes rule matching
// needs. It is not safe for concurrent mutation; concurrent reads are
// safe once loading has finished and Freeze has been called (or after
// any read has forced the lazy closures).
//
// A graph has one of two storage forms. Mutable graphs (built by New
// or Parse) keep names and assertions in Go maps and accept Add*
// calls. Snapshot-backed graphs (loaded from a DKBS snapshot, read
// into one buffer or mmap'd in place) keep the same data in
// pointer-free arenas — nameBlob/nameOffs/nameTab for the name table,
// idListIndex span tables for the type and taxonomy assertions — and
// are read-only: every mutator panics. All read accessors pick the
// live form, so the two storages are indistinguishable to callers.
// The type closures behind HasType, TypesOf and InstancesOf have a
// single form, idListIndex span tables, whichever storage the graph
// uses.
type Graph struct {
	names  []string
	byName map[string]ID
	kinds  []Kind

	types   map[ID][]ID // instance -> direct classes
	superOf map[ID][]ID // class -> direct superclasses
	subOf   map[ID][]ID // class -> direct subclasses
	instOf  map[ID][]ID // class -> direct instances

	// Snapshot-backed forms of the name table and assertion maps
	// (see snapshot2.go). Valid iff byName == nil.
	nameBlob                                  string    // concatenated name bytes
	nameOffs                                  []uint32  // node i's name = nameBlob[nameOffs[i]:nameOffs[i+1]]
	nameTab                                   nameTable // open-addressing name -> ID index
	nameExtBlob                               string    // names of delta-added nodes (see delta.go)
	nameExtOffs                               []uint32  // local offsets; node len(nameOffs)-1+i = nameExtBlob[nameExtOffs[i]:nameExtOffs[i+1]]
	nameExtTab                                nameTable // name -> LOCAL ext index (global = local + len(nameOffs)-1)
	typesIdx, instOfIdx, superOfIdx, subOfIdx idListIndex
	mapped                                    *mapping // non-nil when the arenas live in an mmap'd file

	out edgeIndex  // subject -> outgoing edges
	in  edgeIndex  // object -> incoming edges
	sp  *pairTable // (subject, predicate) -> objects
	po  *pairTable // (predicate, object) -> subjects

	preds       map[ID]struct{}
	tripleCount int
	gen         int64 // content mutations; see Generation

	closed       bool        // typeClosure/instClosure are current; see ensureClosures
	typeClosure  idListIndex // instance -> all classes (incl. superclasses), ascending
	instClosure  idListIndex // class -> all instances (incl. via subclasses), ascending
	literalClass ID          // interned "literal" pseudo-class

	fp atomic.Pointer[fpMemo] // cached content fingerprint; see delta.go
}

// LiteralClass is the reserved type name that matches any literal
// node, mirroring the paper's "type: literal" rule nodes.
const LiteralClass = "literal"

// New returns an empty graph.
func New() *Graph {
	g := &Graph{
		byName:  make(map[string]ID),
		types:   make(map[ID][]ID),
		superOf: make(map[ID][]ID),
		subOf:   make(map[ID][]ID),
		instOf:  make(map[ID][]ID),
		sp:      newPairTable(0, 0),
		po:      newPairTable(0, 0),
		preds:   make(map[ID]struct{}),
	}
	g.literalClass = g.intern(LiteralClass, KindClass)
	return g
}

// mustMutable panics when the graph is snapshot-backed: its arenas may
// be mmap'd read-only file pages, so in-place mutation is both a
// correctness and a memory-safety error. Rebuild via Encode + Parse to
// get a mutable copy.
func (g *Graph) mustMutable() {
	if g.byName == nil {
		panic("kb: graph is read-only (loaded from a DKBS snapshot); re-parse its text encoding to mutate")
	}
}

// ReadOnly reports whether the graph is snapshot-backed and therefore
// rejects mutation.
func (g *Graph) ReadOnly() bool { return g.byName == nil }

// intern returns the ID for name, creating it with the given kind if
// absent. If the node exists with KindUnknown, the kind is upgraded.
func (g *Graph) intern(name string, kind Kind) ID {
	g.mustMutable()
	if id, ok := g.byName[name]; ok {
		if g.kinds[id] == KindUnknown && kind != KindUnknown {
			g.kinds[id] = kind
		}
		return id
	}
	id := ID(len(g.names))
	g.names = append(g.names, name)
	g.kinds = append(g.kinds, kind)
	g.out.addNode()
	g.in.addNode()
	g.byName[name] = id
	g.gen++
	return id
}

// Intern interns name as an instance node and returns its ID.
func (g *Graph) Intern(name string) ID { return g.intern(name, KindInstance) }

// InternLiteral interns name as a literal node and returns its ID.
func (g *Graph) InternLiteral(name string) ID { return g.intern(name, KindLiteral) }

// InternClass interns name as a class node and returns its ID.
func (g *Graph) InternClass(name string) ID { return g.intern(name, KindClass) }

// InternPred interns name as a predicate label and returns its ID.
func (g *Graph) InternPred(name string) ID {
	id := g.intern(name, KindUnknown)
	g.preds[id] = struct{}{}
	return id
}

// Lookup returns the ID of name, or Invalid if the graph has never
// seen it.
func (g *Graph) Lookup(name string) ID {
	if g.byName != nil {
		if id, ok := g.byName[name]; ok {
			return id
		}
		return Invalid
	}
	if id := g.nameTab.lookup(g.nameBlob, g.nameOffs, name); id != Invalid {
		return id
	}
	if g.nameExtOffs != nil {
		if local := g.nameExtTab.lookup(g.nameExtBlob, g.nameExtOffs, name); local != Invalid {
			return local + ID(len(g.nameOffs)-1)
		}
	}
	return Invalid
}

// Name returns the string form of id. It panics on Invalid.
func (g *Graph) Name(id ID) string {
	if g.names != nil {
		return g.names[id]
	}
	if base := len(g.nameOffs) - 1; int(id) >= base {
		local := int(id) - base
		return g.nameExtBlob[g.nameExtOffs[local]:g.nameExtOffs[local+1]]
	}
	return g.nameBlob[g.nameOffs[id]:g.nameOffs[id+1]]
}

// KindOf reports the kind of id.
func (g *Graph) KindOf(id ID) Kind { return g.kinds[id] }

// NumNodes returns the number of interned nodes (including predicates
// and the reserved literal class).
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumTriples returns the number of relationship/property triples added
// (type and subclass assertions are not counted).
func (g *Graph) NumTriples() int { return g.tripleCount }

// NumClasses returns the number of class nodes, excluding the reserved
// "literal" pseudo-class.
func (g *Graph) NumClasses() int {
	n := 0
	for id, k := range g.kinds {
		if k == KindClass && ID(id) != g.literalClass {
			n++
		}
	}
	return n
}

// Predicates returns all predicate IDs in deterministic order.
func (g *Graph) Predicates() []ID {
	out := make([]ID, 0, len(g.preds))
	for p := range g.preds {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumPredicates returns the number of distinct relationship/property
// labels.
func (g *Graph) NumPredicates() int { return len(g.preds) }

// Generation counts content mutations (triples, type and subclass
// assertions, new interned nodes). It identifies the graph's content
// for derived-structure invalidation: once loading is done and Freeze
// has been called, the generation is stable, so caches keyed on it
// never go stale under the concurrent-read contract.
func (g *Graph) Generation() int64 { return g.gen }

// AddTriple records the triple (s, p, o) with o an instance. Both
// endpoints and the predicate are interned on demand.
func (g *Graph) AddTriple(s, p, o string) {
	g.AddTripleID(g.Intern(s), g.InternPred(p), g.Intern(o))
}

// AddPropertyTriple records the triple (s, p, o) with o a literal.
func (g *Graph) AddPropertyTriple(s, p, o string) {
	g.AddTripleID(g.Intern(s), g.InternPred(p), g.InternLiteral(o))
}

// AddTripleID records the triple (s, p, o) over already-interned IDs.
// Duplicate triples are ignored.
func (g *Graph) AddTripleID(s, p, o ID) {
	g.mustMutable()
	key := pairKey(s, p)
	for _, ex := range g.sp.get(key) {
		if ex == o {
			return
		}
	}
	g.out.add(s, Edge{Pred: p, To: o})
	g.in.add(o, Edge{Pred: p, To: s})
	g.sp.add(key, o)
	g.po.add(pairKey(p, o), s)
	g.preds[p] = struct{}{}
	g.tripleCount++
	g.gen++
}

// AddType asserts that instance inst has class cls.
func (g *Graph) AddType(inst, cls string) {
	g.AddTypeID(g.Intern(inst), g.InternClass(cls))
}

// AddTypeID asserts type membership over interned IDs.
func (g *Graph) AddTypeID(inst, cls ID) {
	g.mustMutable()
	for _, c := range g.types[inst] {
		if c == cls {
			return
		}
	}
	g.types[inst] = append(g.types[inst], cls)
	g.instOf[cls] = append(g.instOf[cls], inst)
	g.closed = false
	g.gen++
}

// AddSubclass asserts sub ⊆ super in the taxonomy.
func (g *Graph) AddSubclass(sub, super string) {
	g.AddSubclassID(g.InternClass(sub), g.InternClass(super))
}

// AddSubclassID asserts the subclass edge over interned IDs.
func (g *Graph) AddSubclassID(sub, super ID) {
	g.mustMutable()
	for _, s := range g.superOf[sub] {
		if s == super {
			return
		}
	}
	g.superOf[sub] = append(g.superOf[sub], super)
	g.subOf[super] = append(g.subOf[super], sub)
	g.closed = false
	g.gen++
}

// Objects returns all o with (s, p, o) in the graph. The returned
// slice is shared; callers must not mutate it.
func (g *Graph) Objects(s, p ID) []ID { return g.sp.get(pairKey(s, p)) }

// Subjects returns all s with (s, p, o) in the graph. The returned
// slice is shared; callers must not mutate it.
func (g *Graph) Subjects(p, o ID) []ID { return g.po.get(pairKey(p, o)) }

// HasEdge reports whether the triple (s, p, o) is in the graph.
func (g *Graph) HasEdge(s, p, o ID) bool {
	for _, x := range g.sp.get(pairKey(s, p)) {
		if x == o {
			return true
		}
	}
	return false
}

// Out returns the outgoing edges of s (shared slice). Like a map
// lookup, out-of-range IDs (e.g. Invalid) yield nil.
func (g *Graph) Out(s ID) []Edge { return g.out.view(s) }

// In returns the incoming edges of o (shared slice). Like a map
// lookup, out-of-range IDs (e.g. Invalid) yield nil.
func (g *Graph) In(o ID) []Edge { return g.in.view(o) }

// DirectTypes returns the directly asserted classes of inst (shared
// slice).
func (g *Graph) DirectTypes(inst ID) []ID { return g.directTypes(inst) }

// The direct* accessors bridge the two storage forms: Go maps on
// mutable graphs, span-table views on snapshot-backed ones.

func (g *Graph) directTypes(inst ID) []ID {
	if g.byName != nil {
		return g.types[inst]
	}
	return g.typesIdx.view(inst)
}

func (g *Graph) directInstances(cls ID) []ID {
	if g.byName != nil {
		return g.instOf[cls]
	}
	return g.instOfIdx.view(cls)
}

func (g *Graph) directSupers(cls ID) []ID {
	if g.byName != nil {
		return g.superOf[cls]
	}
	return g.superOfIdx.view(cls)
}

func (g *Graph) directSubs(cls ID) []ID {
	if g.byName != nil {
		return g.subOf[cls]
	}
	return g.subOfIdx.view(cls)
}

// forEachTyped calls fn once per instance with at least one directly
// asserted class, in unspecified order.
func (g *Graph) forEachTyped(fn func(inst ID, classes []ID)) {
	if g.byName != nil {
		for inst, classes := range g.types {
			fn(inst, classes)
		}
		return
	}
	for i := range g.typesIdx.spans {
		if vs := g.typesIdx.view(ID(i)); len(vs) > 0 {
			fn(ID(i), vs)
		}
	}
}

// forEachSubclassed calls fn once per class with at least one direct
// superclass, in unspecified order.
func (g *Graph) forEachSubclassed(fn func(sub ID, supers []ID)) {
	if g.byName != nil {
		for sub, supers := range g.superOf {
			fn(sub, supers)
		}
		return
	}
	for i := range g.superOfIdx.spans {
		if vs := g.superOfIdx.view(ID(i)); len(vs) > 0 {
			fn(ID(i), vs)
		}
	}
}

// Freeze forces recomputation of the lazy closures. Calling it after
// bulk loading makes subsequent reads safe for concurrent use.
func (g *Graph) Freeze() { g.ensureClosures() }

// ensureClosures builds the two type closures as span tables, for
// every storage form alike: typeClosure maps each instance to its
// ascending ancestor classes, found by walking directTypes and then
// directSupers with a stamp array (so taxonomy cycles terminate), and
// instClosure is its inverse, ascending by construction. The tables
// are always freshly allocated, so a graph derived from this one may
// share them read-only.
func (g *Graph) ensureClosures() {
	if g.closed {
		return
	}
	n := len(g.kinds)
	stamp := make([]ID, n) // stamp[c] == inst+1: c already reached from inst
	spans := make([]pairSpan, n)
	var ids, stack []ID
	for inst := ID(0); int(inst) < n; inst++ {
		direct := g.directTypes(inst)
		if len(direct) == 0 {
			continue
		}
		start := len(ids)
		stack = append(stack[:0], direct...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if stamp[c] == inst+1 {
				continue
			}
			stamp[c] = inst + 1
			ids = append(ids, c)
			stack = append(stack, g.directSupers(c)...)
		}
		slices.Sort(ids[start:])
		k := uint32(len(ids) - start)
		spans[inst] = pairSpan{off: uint32(start), n: k, cap: k}
	}
	isp, iids, _ := invertIDList(n, spans, ids)
	g.typeClosure = idListIndex{spans, ids}
	g.instClosure = idListIndex{isp, iids}
	g.closed = true
}

// InstancesOf returns every instance whose type closure contains cls,
// i.e. direct members plus members of all (transitive) subclasses, in
// ascending ID order. For the reserved "literal" class it returns
// every literal node. The returned slice is shared; callers must not
// mutate it.
func (g *Graph) InstancesOf(cls ID) []ID {
	if cls == g.literalClass {
		return g.literals()
	}
	g.ensureClosures()
	return g.instClosure.view(cls)
}

func (g *Graph) literals() []ID {
	// Literals are rare query targets; scan on demand.
	var out []ID
	for id, k := range g.kinds {
		if k == KindLiteral {
			out = append(out, ID(id))
		}
	}
	return out
}

// HasType reports whether inst is a (transitive) member of cls. Any
// literal node is a member of the reserved "literal" class.
func (g *Graph) HasType(inst, cls ID) bool {
	if cls == g.literalClass {
		return g.kinds[inst] == KindLiteral
	}
	g.ensureClosures()
	for _, c := range g.typeClosure.view(inst) {
		if c >= cls {
			return c == cls
		}
	}
	return false
}

// TypesOf returns every class inst belongs to, including superclasses
// through the taxonomy, in ascending ID order. Literals yield only the
// reserved "literal" class. The returned slice is shared; callers must
// not mutate it.
func (g *Graph) TypesOf(inst ID) []ID {
	if g.kinds[inst] == KindLiteral {
		return []ID{g.literalClass}
	}
	g.ensureClosures()
	return g.typeClosure.view(inst)
}

// Subclasses returns the direct subclasses of cls (shared slice).
func (g *Graph) Subclasses(cls ID) []ID { return g.directSubs(cls) }

// Superclasses returns the direct superclasses of cls (shared slice).
func (g *Graph) Superclasses(cls ID) []ID { return g.directSupers(cls) }

// TaxonomyDepth returns the length of the longest superclass chain
// starting at cls (0 for a root class). It is used only for KB
// statistics and must be called on an acyclic taxonomy.
func (g *Graph) TaxonomyDepth(cls ID) int {
	best := 0
	for _, s := range g.directSupers(cls) {
		if d := g.TaxonomyDepth(s) + 1; d > best {
			best = d
		}
	}
	return best
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("kb.Graph{nodes=%d classes=%d preds=%d triples=%d}",
		g.NumNodes(), g.NumClasses(), g.NumPredicates(), g.NumTriples())
}
