package rules_test

import (
	"bytes"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/similarity"
)

func fixture(t *testing.T) (*dataset.PaperExample, *rules.Catalog) {
	t.Helper()
	ex := dataset.NewPaperExample()
	return ex, rules.NewCatalog(ex.KB)
}

func matcherFor(t *testing.T, ex *dataset.PaperExample, cat *rules.Catalog, name string) *rules.Matcher {
	t.Helper()
	for _, r := range ex.Rules {
		if r.Name == name {
			m, err := rules.NewMatcher(r, cat, ex.Schema)
			if err != nil {
				t.Fatalf("NewMatcher(%s): %v", name, err)
			}
			return m
		}
	}
	t.Fatalf("no rule %s", name)
	return nil
}

func TestPaperRulesValidate(t *testing.T) {
	ex, _ := fixture(t)
	for _, r := range ex.Rules {
		if err := r.Validate(ex.Schema); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
}

func TestValidateRejectsBadRules(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B")
	a := rules.Node{Name: "a", Col: "A", Type: "ta", Sim: similarity.Eq}
	pos := rules.Node{Name: "p", Col: "B", Type: "tb", Sim: similarity.Eq}

	cases := []struct {
		name string
		dr   *rules.DR
	}{
		{"empty name", &rules.DR{Evidence: []rules.Node{a}, Pos: pos,
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}}}},
		{"neg over different column", &rules.DR{Name: "x", Evidence: []rules.Node{a}, Pos: pos,
			Neg:   &rules.Node{Name: "n", Col: "A", Type: "tb", Sim: similarity.Eq},
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}, {From: "a", Rel: "s", To: "n"}}}},
		{"pos-neg edge", &rules.DR{Name: "x", Evidence: []rules.Node{a}, Pos: pos,
			Neg: &rules.Node{Name: "n", Col: "B", Type: "tb", Sim: similarity.Eq},
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}, {From: "a", Rel: "s", To: "n"},
				{From: "p", Rel: "q", To: "n"}}}},
		{"disconnected", &rules.DR{Name: "x", Evidence: []rules.Node{a}, Pos: pos}},
		{"unknown column", &rules.DR{Name: "x",
			Evidence: []rules.Node{{Name: "a", Col: "Z", Type: "ta", Sim: similarity.Eq}}, Pos: pos,
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}}}},
		{"evidence reuses pos column", &rules.DR{Name: "x",
			Evidence: []rules.Node{{Name: "a", Col: "B", Type: "ta", Sim: similarity.Eq}}, Pos: pos,
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}}}},
		{"duplicate node names", &rules.DR{Name: "x",
			Evidence: []rules.Node{a, {Name: "a", Col: "B", Type: "t", Sim: similarity.Eq}}, Pos: pos,
			Edges: []rules.Edge{{From: "a", Rel: "r", To: "p"}}}},
	}
	for _, c := range cases {
		if err := c.dr.Validate(schema); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestFindAssignmentsPaperFigure3(t *testing.T) {
	// The instance-level matching graph of Figure 3(b): Name, DOB,
	// Country, Institution of r1 bind to u1, u8, u6, u2.
	ex, cat := fixture(t)
	nodes := []rules.Node{
		{Name: "v1", Col: "Name", Type: "Nobel laureates in Chemistry", Sim: similarity.Eq},
		{Name: "v2", Col: "DOB", Type: kb.LiteralClass, Sim: similarity.Eq},
		{Name: "v3", Col: "Country", Type: "country", Sim: similarity.Eq},
		{Name: "v5", Col: "Institution", Type: "organization", Sim: similarity.EDK(2)},
	}
	edges := []rules.Edge{
		{From: "v1", Rel: "bornOnDate", To: "v2"},
		{From: "v1", Rel: "isCitizenOf", To: "v3"},
		{From: "v1", Rel: "worksAt", To: "v5"},
	}
	r1 := ex.Dirty.Tuples[0]
	as := rules.EvidenceAssignments(cat, ex.Schema, r1, nodes, edges)
	if len(as) != 1 {
		t.Fatalf("got %d assignments, want 1", len(as))
	}
	want := map[string]string{
		"v1": "Avram Hershko",
		"v2": "1937-12-31",
		"v3": "Israel",
		"v5": "Israel Institute of Technology",
	}
	if len(as[0]) != len(want) {
		t.Errorf("assignment %v binds %d nodes, want %d", as[0], len(as[0]), len(want))
	}
	for node, inst := range want {
		if got := as[0][node]; got != inst {
			t.Errorf("%s bound to %q, want %q", node, got, inst)
		}
	}
}

func TestFindAssignmentsRespectsEdges(t *testing.T) {
	ex, cat := fixture(t)
	nodes := []rules.Node{
		{Name: "a", Col: "Name", Type: "Nobel laureates in Chemistry", Sim: similarity.Eq},
		{Name: "b", Col: "City", Type: "city", Sim: similarity.Eq},
	}
	// r1[City] = Karcag: worksAt-city edge must fail, wasBornIn must hold.
	r1 := ex.Dirty.Tuples[0]
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1,
		nodes, []rules.Edge{{From: "a", Rel: "wasBornIn", To: "b"}}); len(as) != 1 {
		t.Errorf("wasBornIn: got %d assignments, want 1", len(as))
	}
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1,
		nodes, []rules.Edge{{From: "a", Rel: "worksAt", To: "b"}}); len(as) != 0 {
		t.Errorf("worksAt: got %d assignments, want 0", len(as))
	}
}

func TestFindAssignmentsLimit(t *testing.T) {
	ex, cat := fixture(t)
	nodes := []rules.Node{{Name: "a", Col: "Name", Type: "person", Sim: similarity.Eq}}
	r1 := ex.Dirty.Tuples[0]
	// The taxonomy makes Avram Hershko a person: exactly one candidate.
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1, nodes, nil); len(as) != 1 {
		t.Fatalf("taxonomy-based match failed: %d assignments", len(as))
	}
}

func TestEvaluateProofPositive(t *testing.T) {
	// Example 5(1): ϕ1 proves r1[Name, DOB, Institution] correct.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi1")
	out := m.Evaluate(ex.Dirty.Tuples[0])
	if out.Kind != rules.Positive {
		t.Fatalf("Kind = %v, want Positive", out.Kind)
	}
	wantCols := []string{"Name", "DOB", "Institution"}
	if len(out.MarkCols) != len(wantCols) {
		t.Fatalf("MarkCols = %v", out.MarkCols)
	}
	for i, c := range wantCols {
		if out.MarkCols[i] != c {
			t.Errorf("MarkCols[%d] = %q, want %q", i, out.MarkCols[i], c)
		}
	}
}

func TestEvaluateProofNegativeAndCorrection(t *testing.T) {
	// Example 5(2)-(3): ϕ2 detects r1[City]=Karcag and repairs to Haifa.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi2")
	out := m.Evaluate(ex.Dirty.Tuples[0])
	if out.Kind != rules.Repair {
		t.Fatalf("Kind = %v, want Repair", out.Kind)
	}
	if out.RepairCol != "City" {
		t.Errorf("RepairCol = %q", out.RepairCol)
	}
	if len(out.Repairs) != 1 || out.Repairs[0] != "Haifa" {
		t.Errorf("Repairs = %v, want [Haifa]", out.Repairs)
	}
}

func TestEvaluatePrizeRepair(t *testing.T) {
	// ϕ4 repairs r1[Prize] from the Lasker award to the Nobel Prize.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi4")
	out := m.Evaluate(ex.Dirty.Tuples[0])
	if out.Kind != rules.Repair {
		t.Fatalf("Kind = %v, want Repair", out.Kind)
	}
	if len(out.Repairs) != 1 || out.Repairs[0] != "Nobel Prize in Chemistry" {
		t.Errorf("Repairs = %v", out.Repairs)
	}
}

func TestEvaluateTypoNormalization(t *testing.T) {
	// r2[Institution] = "Paster Institute" fuzzily matches Pasteur
	// Institute under ED,2; the engine rewrites to the canonical name.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi1")
	out := m.Evaluate(ex.Dirty.Tuples[1])
	if out.Kind != rules.Repair {
		t.Fatalf("Kind = %v, want Repair (normalization)", out.Kind)
	}
	if len(out.Repairs) != 1 || out.Repairs[0] != "Pasteur Institute" {
		t.Errorf("Repairs = %v, want [Pasteur Institute]", out.Repairs)
	}
}

func TestEvaluateMultiVersionRepairs(t *testing.T) {
	// Example 10: ϕ1 on r4 yields two versions — University of
	// Manchester and UC Berkeley.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi1")
	out := m.Evaluate(ex.Dirty.Tuples[3])
	if out.Kind != rules.Repair {
		t.Fatalf("Kind = %v, want Repair", out.Kind)
	}
	if len(out.Repairs) != 2 {
		t.Fatalf("Repairs = %v, want 2 versions", out.Repairs)
	}
	// Repairs are ordered by similarity to the current value, so the
	// near-miss "University of Manchester" precedes "UC Berkeley".
	if out.Repairs[0] != "University of Manchester" || out.Repairs[1] != "UC Berkeley" {
		t.Errorf("Repairs = %v", out.Repairs)
	}
}

func TestEvaluateNoMatchWhenEvidenceBroken(t *testing.T) {
	// ϕ3 needs City evidence; on dirty r1 (City=Karcag, not where the
	// institute is) the evidence graph cannot match.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi3")
	out := m.Evaluate(ex.Dirty.Tuples[0])
	if out.Kind != rules.NoMatch {
		t.Fatalf("Kind = %v, want NoMatch", out.Kind)
	}
}

func TestEvaluateCountryRepair(t *testing.T) {
	// ϕ3 on r3: Ukraine (birth country) -> United States.
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi3")
	out := m.Evaluate(ex.Dirty.Tuples[2])
	if out.Kind != rules.Repair {
		t.Fatalf("Kind = %v, want Repair", out.Kind)
	}
	if len(out.Repairs) != 1 || out.Repairs[0] != "United States" {
		t.Errorf("Repairs = %v", out.Repairs)
	}
}

func TestEvaluateOnCleanTupleIsPositive(t *testing.T) {
	ex, cat := fixture(t)
	for _, name := range []string{"phi1", "phi2", "phi3", "phi4"} {
		m := matcherFor(t, ex, cat, name)
		for i, tu := range ex.Truth.Tuples {
			out := m.Evaluate(tu)
			if out.Kind != rules.Positive {
				t.Errorf("%s on truth tuple %d: Kind = %v, want Positive", name, i, out.Kind)
			}
		}
	}
}

func TestNodeAndEdgeChecks(t *testing.T) {
	ex, cat := fixture(t)
	m := matcherFor(t, ex, cat, "phi2")
	r1 := ex.Dirty.Tuples[0]
	nameNode := m.Rule.Evidence[0]
	instNode := m.Rule.Evidence[1]
	if !m.EvidenceCheckOn(cat.Graph(), r1, 0) {
		t.Error("EvidenceCheckOn(Name) = false")
	}
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1, []rules.Node{nameNode, instNode},
		[]rules.Edge{{From: nameNode.Name, Rel: "worksAt", To: instNode.Name}}); len(as) == 0 {
		t.Error("worksAt edge: no assignment")
	}
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1, []rules.Node{nameNode, instNode},
		[]rules.Edge{{From: nameNode.Name, Rel: "graduatedFrom", To: instNode.Name}}); len(as) != 0 {
		t.Errorf("graduatedFrom edge: %d assignments, want 0", len(as))
	}
	bogus := rules.Node{Name: "x", Col: "Name", Type: "no-such-class", Sim: similarity.Eq}
	if as := rules.EvidenceAssignments(cat, ex.Schema, r1, []rules.Node{bogus}, nil); len(as) != 0 {
		t.Error("bogus type matched")
	}
}

func TestNodeKeySharing(t *testing.T) {
	a := rules.Node{Name: "x1", Col: "Name", Type: "T", Sim: similarity.Eq}
	b := rules.Node{Name: "w9", Col: "Name", Type: "T", Sim: similarity.Eq}
	if a.Key() != b.Key() {
		t.Error("nodes differing only in name must share a key")
	}
	c := rules.Node{Name: "x1", Col: "Name", Type: "T", Sim: similarity.EDK(1)}
	if a.Key() == c.Key() {
		t.Error("nodes with different sims must not share a key")
	}
	if rules.EdgeKey(a, "r", c) == rules.EdgeKey(a, "s", c) {
		t.Error("edges with different relationships must not share a key")
	}
}

func TestCatalogUnknownType(t *testing.T) {
	ex, _ := fixture(t)
	cat := rules.NewCatalog(ex.KB)
	if got := cat.Candidates("no-such-class", similarity.Eq, "x"); got != nil {
		t.Errorf("Candidates(unknown class) = %v", got)
	}
}

func TestCatalogTaxonomyCandidates(t *testing.T) {
	ex, _ := fixture(t)
	cat := rules.NewCatalog(ex.KB)
	// "person" has no direct instances; only via taxonomy.
	got := cat.Candidates("person", similarity.Eq, "Marie Curie")
	if len(got) != 1 || ex.KB.Name(got[0]) != "Marie Curie" {
		t.Errorf("Candidates(person) = %v", got)
	}
}

func TestRuleTextRoundTrip(t *testing.T) {
	ex, _ := fixture(t)
	var buf bytes.Buffer
	if err := rules.EncodeRules(&buf, ex.Rules); err != nil {
		t.Fatalf("EncodeRules: %v", err)
	}
	parsed, err := rules.ParseRules(&buf)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	if len(parsed) != len(ex.Rules) {
		t.Fatalf("parsed %d rules, want %d", len(parsed), len(ex.Rules))
	}
	for i, r := range parsed {
		orig := ex.Rules[i]
		if r.Name != orig.Name {
			t.Errorf("rule %d name %q vs %q", i, r.Name, orig.Name)
		}
		if err := r.Validate(ex.Schema); err != nil {
			t.Errorf("parsed rule %s invalid: %v", r.Name, err)
		}
		if len(r.Evidence) != len(orig.Evidence) || len(r.Edges) != len(orig.Edges) {
			t.Errorf("rule %s shape changed", r.Name)
		}
		if (r.Neg == nil) != (orig.Neg == nil) {
			t.Errorf("rule %s neg presence changed", r.Name)
		}
	}

	// Behaviour must survive the round trip: the parsed ϕ2 still
	// repairs r1[City].
	cat := rules.NewCatalog(ex.KB)
	m, err := rules.NewMatcher(parsed[1], cat, ex.Schema)
	if err != nil {
		t.Fatalf("NewMatcher(parsed phi2): %v", err)
	}
	out := m.Evaluate(ex.Dirty.Tuples[0])
	if out.Kind != rules.Repair || len(out.Repairs) != 1 || out.Repairs[0] != "Haifa" {
		t.Errorf("parsed phi2 outcome = %+v", out)
	}
}

func TestParseRulesErrors(t *testing.T) {
	cases := []string{
		"node a col=A type=T", // outside rule
		"rule r {",            // unclosed
		"rule r {\n}",         // no pos
		"rule r {\nrule q {",  // nested
		"}",                   // unmatched
		"rule r {\n pos p col=A type=T\n pos q col=A type=T\n}", // dup pos
		"rule r {\n bogus\n}",                                             // unknown directive
		"rule r {\n node a col=A\n pos p col=B type=T\n}",                 // missing type
		"rule r {\n node a col=A type=T sim=XX,1\n pos p col=B type=T\n}", // bad sim
		"rule r {\n edge a b\n}",                                          // short edge
		`rule r {` + "\n" + ` node a col="A type=T` + "\n}",               // unterminated quote
	}
	for _, c := range cases {
		if _, err := rules.ParseRules(strings.NewReader(c)); err == nil {
			t.Errorf("ParseRules(%q): want error", c)
		}
	}
}

func TestAnnotationOnlyRule(t *testing.T) {
	// A rule without a negative node marks but never repairs.
	ex, cat := fixture(t)
	r := &rules.DR{
		Name:     "annot",
		Evidence: []rules.Node{{Name: "a", Col: "Name", Type: "Nobel laureates in Chemistry", Sim: similarity.Eq}},
		Pos:      rules.Node{Name: "p", Col: "City", Type: "city", Sim: similarity.Eq},
		Edges:    []rules.Edge{{From: "a", Rel: "wasBornIn", To: "p"}},
	}
	m, err := rules.NewMatcher(r, cat, ex.Schema)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	// r1[City] = Karcag = birth city: proof positive for this rule.
	if out := m.Evaluate(ex.Dirty.Tuples[0]); out.Kind != rules.Positive {
		t.Errorf("annotation rule on r1: %v, want Positive", out.Kind)
	}
	// r3[City] = Ithaca != birth city: no negative node, so NoMatch.
	if out := m.Evaluate(ex.Dirty.Tuples[2]); out.Kind != rules.NoMatch {
		t.Errorf("annotation rule on r3: %v, want NoMatch", out.Kind)
	}
}

func TestMatcherRejectsOversizedED(t *testing.T) {
	ex, cat := fixture(t)
	r := &rules.DR{
		Name:     "bad",
		Evidence: []rules.Node{{Name: "a", Col: "Name", Type: "person", Sim: similarity.Eq}},
		Pos:      rules.Node{Name: "p", Col: "City", Type: "city", Sim: similarity.EDK(rules.MaxEDThreshold + 1)},
		Edges:    []rules.Edge{{From: "a", Rel: "wasBornIn", To: "p"}},
	}
	if _, err := rules.NewMatcher(r, cat, ex.Schema); err == nil {
		t.Error("want error for oversized ED threshold")
	}
}

// TestFuzzyRepairCanonicalizesOnlyFuzzyAssignments: of two evidence
// assignments only the first reaches a positive instance within the
// pole's threshold. The second must not join the fuzzy repair's
// assignments, or it makes the evidence canonicalization look
// ambiguous and silently drops it.
func TestFuzzyRepairCanonicalizesOnlyFuzzyAssignments(t *testing.T) {
	g := kb.New()
	g.AddType("Anne", "person")
	g.AddType("Anna", "person")
	g.AddType("Paris", "city")
	g.AddType("Rome", "city")
	g.AddTriple("Anne", "livesIn", "Paris")
	g.AddTriple("Anna", "livesIn", "Rome")
	schema := relation.NewSchema("R", "Name", "City")
	dr := &rules.DR{
		Name:     "fuzzy",
		Evidence: []rules.Node{{Name: "e", Col: "Name", Type: "person", Sim: similarity.EDK(1)}},
		Pos:      rules.Node{Name: "p", Col: "City", Type: "city", Sim: similarity.EDK(1)},
		Edges:    []rules.Edge{{From: "e", Rel: "livesIn", To: "p"}},
	}
	cat := rules.NewCatalog(g)
	if got := rules.EvidenceAssignments(cat, schema, relation.NewTuple("Ann", "Pariss"), dr.Evidence, nil); len(got) != 2 ||
		got[0]["e"] != "Anne" || got[1]["e"] != "Anna" {
		t.Fatalf("evidence assignments = %v, want Anne then Anna", got)
	}
	m, err := rules.NewMatcher(dr, cat, schema)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Evaluate(relation.NewTuple("Ann", "Pariss"))
	if out.Kind != rules.Repair || len(out.Repairs) != 1 || out.Repairs[0] != "Paris" {
		t.Fatalf("outcome = %+v, want a repair to Paris", out)
	}
	if len(out.Canonical) != 1 || out.Canonical[0] != (rules.CanonCell{Col: 0, Value: "Anne"}) {
		t.Errorf("Canonical = %v, want Name -> Anne", out.Canonical)
	}
}
