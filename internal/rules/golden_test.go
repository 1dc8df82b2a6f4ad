package rules_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/outcomes.golden from the current matcher")

// goldenCase is one (KB, schema, rules, tuples) corpus the outcome
// oracle evaluates exhaustively.
type goldenCase struct {
	name   string
	g      *kb.Graph
	schema *relation.Schema
	rules  []*rules.DR
	tuples []*relation.Tuple
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	ex := dataset.NewPaperExample()
	cs = append(cs, goldenCase{"paper-dirty", ex.KB, ex.Schema, ex.Rules, ex.Dirty.Tuples},
		goldenCase{"paper-truth", ex.KB, ex.Schema, ex.Rules, ex.Truth.Tuples})
	for _, b := range []struct {
		name string
		b    *dataset.Bundle
	}{
		{"nobel500", dataset.NewNobel(1, 500)},
		{"uis500", dataset.NewUIS(1, 500)},
	} {
		inj := b.b.Inject(dataset.Noise{Rate: 0.30, TypoFrac: 0.5, Seed: 1})
		cs = append(cs, goldenCase{b.name, b.b.Yago, b.b.Schema, b.b.Rules, inj.Dirty.Tuples})
	}
	g, schema, dr := pathFixture()
	var pts []*relation.Tuple
	for _, vals := range [][]string{
		{"Ann", "Springfield", "22222"},
		{"Ann", "Springfield", "11111"},
		{"Ann", "Springfield", "33333"},
		{"Ann", "Springfield", "11112"},
		{"Ann", "Shelbyville", "22222"},
		{"Bob", "Springfield", "11111"},
	} {
		pts = append(pts, relation.NewTuple(vals...))
	}
	cs = append(cs, goldenCase{"path", g, schema, []*rules.DR{dr}, pts})
	return cs
}

// formatOutcome renders an outcome deterministically: map fields are
// printed sorted by key, slices in their own order.
func formatOutcome(schema *relation.Schema, out rules.Outcome) string {
	sorted := func(m map[string]string) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + m[k]
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	if out.Kind == rules.NoMatch {
		return "no-match"
	}
	var canon map[string]string
	for _, c := range out.Canonical {
		if canon == nil {
			canon = make(map[string]string)
		}
		canon[schema.Attrs[c.Col]] = c.Value
	}
	return fmt.Sprintf("%s mark=%q col=%q repairs=%q canon=%s witness=%s",
		out.Kind, out.MarkCols, out.RepairCol, out.Repairs, sorted(canon), sorted(out.Witness))
}

// TestOutcomeGolden is the matcher's outcome oracle: every rule ×
// tuple Outcome over the paper example, Nobel-500 and UIS-500 dirty
// samples and the path-rule fixture, in both the edge-driven and the
// scan-retrieval (basic algorithm) modes, must reproduce testdata/outcomes.golden
// byte for byte. Regenerate with -update only for an intended
// semantic change.
func TestOutcomeGolden(t *testing.T) {
	var buf bytes.Buffer
	var sc rules.Scratch
	for _, c := range goldenCases() {
		cat := rules.NewCatalog(c.g)
		for _, scan := range []bool{false, true} {
			mode := "edge"
			if scan {
				mode = "scan"
			}
			for _, dr := range c.rules {
				m, err := rules.NewMatcher(dr, cat, c.schema)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, dr.Name, err)
				}
				for i, tu := range c.tuples {
					out := m.EvaluateWith(cat.Graph(), tu, &sc, scan, true)
					fmt.Fprintf(&buf, "%s/%s/%s/%d: %s\n", c.name, mode, dr.Name, i, formatOutcome(c.schema, out))
				}
			}
		}
	}
	path := filepath.Join("testdata", "outcomes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			if shown++; shown == 20 {
				break
			}
		}
	}
	t.Fatalf("outcomes differ from %s (%d vs %d lines)", path, len(got), len(exp))
}
