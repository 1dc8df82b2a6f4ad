package rules

import (
	"detective/internal/kb"
	"detective/internal/relation"
)

// EvidenceAssignments compiles nodes and edges as the evidence of a
// match plan and returns every instance-level matching graph of t the
// plan enumerates (up to the assignment cap), each as node name ->
// instance name.
func EvidenceAssignments(cat *Catalog, schema *relation.Schema, t *relation.Tuple, nodes []Node, edges []Edge) []map[string]string {
	m := &Matcher{Rule: &DR{Evidence: nodes, Edges: edges}, Cat: cat, Schema: schema}
	m.compile()
	g := cat.Graph()
	x := evaluation{Matcher: m, g: g, ids: m.resolve(g), sc: new(Scratch), t: t, explain: true}
	x.sc.grow(len(m.nodes))
	if !x.fetch(&m.ev, false) {
		return nil
	}
	var out []map[string]string
	for i := range x.search(&m.ev) {
		out = append(out, x.witness(&m.ev, int32(i), -1, kb.Invalid))
	}
	return out
}
