// Package rules implements the paper's core contribution: schema-level
// matching graphs, instance-level matching, and detective rules (DRs).
//
// A schema-level matching graph (§II-B) explains how a subset of a
// relation's columns is semantically linked through a KB: each node
// binds a column to a KB type under a matching operation, and each
// edge labels a pair of columns with a KB relationship or property.
//
// A detective rule (§II-C) merges two schema-level matching graphs
// that differ in exactly one node over the same column: the *positive*
// node p captures what a correct value looks like, the *negative* node
// n captures how a wrong value is connected to the correct evidence
// values. Matching a tuple against evidence∪{p} proves values correct;
// matching against evidence∪{n} while p can be satisfied by a
// different KB instance detects the error and supplies the repair.
package rules

import (
	"fmt"
	"strings"

	"detective/internal/relation"
	"detective/internal/similarity"
)

// Node binds one relation column to one KB type under a matching
// operation — the (col, type, sim) triple shown in the paper's rule
// figures.
type Node struct {
	Name string // identifier unique within the rule, e.g. "x1", "p2"
	Col  string // column of the relation
	Type string // KB class, or kb.LiteralClass
	Sim  similarity.Spec
}

// Key returns the identity of the check this node performs on a
// tuple, shared across rules — the node key of the inverted lists in
// the paper's Figure 5 ("Name, Nobel laureates in Chemistry, =").
func (n Node) Key() string { return n.Col + "\x00" + n.Type + "\x00" + n.Sim.String() }

func (n Node) String() string {
	return fmt.Sprintf("%s(col=%s type=%s sim=%s)", n.Name, n.Col, n.Type, n.Sim)
}

// Edge is a directed, labelled edge between two rule nodes,
// referenced by node name.
type Edge struct {
	From string
	To   string
	Rel  string // relationship or property label in the KB
}

func (e Edge) String() string { return fmt.Sprintf("%s -%s-> %s", e.From, e.Rel, e.To) }

// Graph is a schema-level matching graph: the unit rule generation
// discovers and KATARA-style table patterns are expressed in.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// Validate checks structural well-formedness of the graph against a
// schema: unique node names, distinct columns (§II-B condition 2),
// columns present in the schema, edges referencing known nodes, and
// connectivity.
func (g *Graph) Validate(schema *relation.Schema) error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("rules: graph has no nodes")
	}
	byName := make(map[string]bool, len(g.Nodes))
	byCol := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("rules: node with empty name")
		}
		if byName[n.Name] {
			return fmt.Errorf("rules: duplicate node name %q", n.Name)
		}
		byName[n.Name] = true
		if n.Col != "" {
			// Column-bound node. Column-less nodes are existential
			// (path) nodes carrying only a type constraint.
			if byCol[n.Col] {
				return fmt.Errorf("rules: two nodes over column %q", n.Col)
			}
			byCol[n.Col] = true
			if schema != nil && !schema.Has(n.Col) {
				return fmt.Errorf("rules: node %q references unknown column %q", n.Name, n.Col)
			}
		}
		if n.Type == "" {
			return fmt.Errorf("rules: node %q has empty type", n.Name)
		}
	}
	for _, e := range g.Edges {
		if !byName[e.From] || !byName[e.To] {
			return fmt.Errorf("rules: edge %v references unknown node", e)
		}
		if e.From == e.To {
			return fmt.Errorf("rules: self-loop on node %q", e.From)
		}
		if e.Rel == "" {
			return fmt.Errorf("rules: edge %s->%s has empty relationship", e.From, e.To)
		}
	}
	if !connected(g.Nodes, g.Edges) {
		return fmt.Errorf("rules: graph is not connected")
	}
	return nil
}

// connected reports whether the undirected view of the graph is
// connected.
func connected(nodes []Node, edges []Edge) bool {
	if len(nodes) <= 1 {
		return true
	}
	adj := make(map[string][]string, len(nodes))
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := map[string]bool{nodes[0].Name: true}
	stack := []string{nodes[0].Name}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(nodes)
}

// DR is a detective rule. Evidence nodes plus the positive node form
// the positive schema-level matching graph; evidence plus the negative
// node form the negative one. Pos and Neg are over the same column.
//
// Neg may be nil: such a rule is *annotation-only* — it can prove
// values correct but never detects or repairs an error. This models
// the paper's conservative treatment of narrow WebTables (§V-B Exp-1),
// where no negative semantics can be trusted.
type DR struct {
	Name     string
	Evidence []Node
	Pos      Node
	Neg      *Node
	// Path holds existential intermediate nodes: typed KB instances
	// that are bound to no column and exist only to connect evidence
	// to the positive or negative node through a multi-hop path. This
	// implements the extension the paper sketches in §II-C ("extend
	// from one negative node ... to a negative path"): e.g. a wrong
	// Zip that is the zip of the person's *birth* city is detected via
	// Name -bornIn-> ?city -hasZip-> n, where ?city is a path node.
	Path []PathNode
	// Edges reference evidence, path and Pos/Neg node names. Edges on
	// the Pos side of the graph belong to the positive semantics,
	// edges on the Neg side to the negative semantics; edges among
	// evidence nodes are shared structure.
	Edges []Edge
}

// PathNode is an existential intermediate node of a positive or
// negative path: it constrains matching to instances of Type but
// binds no relation column.
type PathNode struct {
	Name string
	Type string
}

// asNode renders the path node in the generic node shape (empty
// column, equality sim — the sim is never consulted for column-less
// nodes).
func (p PathNode) asNode() Node { return Node{Name: p.Name, Type: p.Type} }

// EvidenceCols returns the columns of the evidence nodes in rule
// order.
func (r *DR) EvidenceCols() []string {
	out := make([]string, len(r.Evidence))
	for i, n := range r.Evidence {
		out[i] = n.Col
	}
	return out
}

// PosCol returns the column the rule marks/repairs (col(p) = col(n)).
func (r *DR) PosCol() string { return r.Pos.Col }

// sideGraph assembles the schema-level matching graph of one side of
// the rule: evidence ∪ {pole} plus the path nodes that lie on a route
// to this side's pole once the opposite pole's edges are removed. A
// path chain that leads only to the *other* pole must not constrain
// this side, so path nodes unreachable from the pole are dropped with
// their edges.
func (r *DR) sideGraph(pole Node, exclude string) Graph {
	nodes := append(append([]Node(nil), r.Evidence...), pole)
	var edges []Edge
	for _, e := range r.Edges {
		if exclude != "" && (e.From == exclude || e.To == exclude) {
			continue
		}
		edges = append(edges, e)
	}
	// Walk from the pole without passing *through* evidence nodes:
	// evidence instances are fixed anchors, so a path node constrains
	// the pole only when it reaches it via existential nodes.
	ev := make(map[string]bool, len(r.Evidence))
	for _, n := range r.Evidence {
		ev[n.Name] = true
	}
	reach := map[string]bool{pole.Name: true}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			expand := func(from, to string) {
				if reach[from] && !ev[from] && !reach[to] {
					reach[to] = true
					changed = true
				}
			}
			expand(e.From, e.To)
			expand(e.To, e.From)
		}
	}
	keep := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		keep[n.Name] = true
	}
	for _, p := range r.Path {
		if reach[p.Name] {
			keep[p.Name] = true
			nodes = append(nodes, p.asNode())
		}
	}
	var kept []Edge
	for _, e := range edges {
		if keep[e.From] && keep[e.To] {
			kept = append(kept, e)
		}
	}
	return Graph{Nodes: nodes, Edges: kept}
}

// positiveGraph returns the evidence∪path∪{pos} graph.
func (r *DR) positiveGraph() Graph {
	exclude := ""
	if r.Neg != nil {
		exclude = r.Neg.Name
	}
	return r.sideGraph(r.Pos, exclude)
}

// negativeGraph returns the evidence∪path∪{neg} graph; ok is false
// for annotation-only rules.
func (r *DR) negativeGraph() (Graph, bool) {
	if r.Neg == nil {
		return Graph{}, false
	}
	return r.sideGraph(*r.Neg, r.Pos.Name), true
}

// evidenceEdges returns the edges among evidence nodes only.
func (r *DR) evidenceEdges() []Edge {
	ev := make(map[string]bool, len(r.Evidence))
	for _, n := range r.Evidence {
		ev[n.Name] = true
	}
	var out []Edge
	for _, e := range r.Edges {
		if ev[e.From] && ev[e.To] {
			out = append(out, e)
		}
	}
	return out
}

// PosEdges returns the edges incident to the positive node.
func (r *DR) PosEdges() []Edge { return r.posEdges() }

// NegEdges returns the edges incident to the negative node (nil for
// annotation-only rules).
func (r *DR) NegEdges() []Edge { return r.negEdges() }

// posEdges returns the edges incident to the positive node.
func (r *DR) posEdges() []Edge {
	var out []Edge
	for _, e := range r.Edges {
		if e.From == r.Pos.Name || e.To == r.Pos.Name {
			out = append(out, e)
		}
	}
	return out
}

// negEdges returns the edges incident to the negative node.
func (r *DR) negEdges() []Edge {
	if r.Neg == nil {
		return nil
	}
	var out []Edge
	for _, e := range r.Edges {
		if e.From == r.Neg.Name || e.To == r.Neg.Name {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks the structural conditions of §II-C: the positive
// graph and (if present) the negative graph are well-formed schema-
// level matching graphs over the schema, Pos and Neg cover the same
// column, no evidence node reuses that column, no edge connects Pos
// and Neg directly, and the positive node is reachable so corrections
// can be drawn from the KB.
func (r *DR) Validate(schema *relation.Schema) error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule with empty name")
	}
	if r.Neg != nil {
		if r.Neg.Col != r.Pos.Col {
			return fmt.Errorf("rules: %s: positive column %q != negative column %q", r.Name, r.Pos.Col, r.Neg.Col)
		}
		if r.Neg.Name == r.Pos.Name {
			return fmt.Errorf("rules: %s: positive and negative nodes share name %q", r.Name, r.Pos.Name)
		}
		for _, e := range r.Edges {
			if (e.From == r.Pos.Name && e.To == r.Neg.Name) || (e.From == r.Neg.Name && e.To == r.Pos.Name) {
				return fmt.Errorf("rules: %s: edge directly connects positive and negative nodes", r.Name)
			}
		}
	}
	seen := make(map[string]bool)
	for _, n := range r.Evidence {
		seen[n.Name] = true
	}
	seen[r.Pos.Name] = true
	if r.Neg != nil {
		seen[r.Neg.Name] = true
	}
	pos := r.positiveGraph()
	neg, hasNeg := r.negativeGraph()
	for _, p := range r.Path {
		if p.Name == "" || p.Type == "" {
			return fmt.Errorf("rules: %s: path node needs a name and a type", r.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("rules: %s: path node name %q collides", r.Name, p.Name)
		}
		seen[p.Name] = true
		used := false
		for _, n := range pos.Nodes {
			if n.Name == p.Name {
				used = true
			}
		}
		if hasNeg {
			for _, n := range neg.Nodes {
				if n.Name == p.Name {
					used = true
				}
			}
		}
		if !used {
			return fmt.Errorf("rules: %s: path node %q is connected to neither side of the rule", r.Name, p.Name)
		}
	}
	pg := pos
	if err := pg.Validate(schema); err != nil {
		return fmt.Errorf("rules: %s: positive graph: %w", r.Name, err)
	}
	if len(r.Evidence) > 0 && len(r.posEdges()) == 0 {
		return fmt.Errorf("rules: %s: positive node %q has no incident edge; corrections cannot be drawn from the KB", r.Name, r.Pos.Name)
	}
	if ng, ok := r.negativeGraph(); ok {
		if err := ng.Validate(schema); err != nil {
			return fmt.Errorf("rules: %s: negative graph: %w", r.Name, err)
		}
		if len(r.Evidence) > 0 && len(r.negEdges()) == 0 {
			return fmt.Errorf("rules: %s: negative node %q has no incident edge", r.Name, r.Neg.Name)
		}
	}
	return nil
}

func (r *DR) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DR %s: evidence{", r.Name)
	for i, n := range r.Evidence {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n.Col)
	}
	fmt.Fprintf(&b, "} pos=%s", r.Pos.Col)
	if r.Neg == nil {
		b.WriteString(" (annotation-only)")
	}
	return b.String()
}
