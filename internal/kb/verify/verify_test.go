package verify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"detective/internal/kb"
)

func findings(r *Report, check string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func cleanGraph() *kb.Graph {
	g := kb.New()
	g.AddSubclass("city", "place")
	g.AddType("Paris", "city")
	g.AddType("Lyon", "city")
	g.AddPropertyTriple("Paris", "country", "France")
	g.AddPropertyTriple("Lyon", "country", "France")
	g.AddTriple("France", "capital", "Paris")
	g.Freeze()
	return g
}

func TestCheckCleanGraph(t *testing.T) {
	r := Check(cleanGraph(), Options{})
	if !r.OK() {
		t.Fatalf("clean graph not OK: %+v", r.Findings)
	}
	if r.Warnings != 0 {
		t.Fatalf("clean graph has warnings: %+v", r.Findings)
	}
	if r.Nodes == 0 || r.Triples == 0 {
		t.Fatalf("report missing sizes: %+v", r)
	}
	if !strings.Contains(r.Summary(), "0 errors") {
		t.Fatalf("summary = %q", r.Summary())
	}
}

func TestCheckTaxonomyCycle(t *testing.T) {
	g := cleanGraph()
	// a ⊆ b ⊆ c ⊆ a: a three-class cycle the closure walk silently
	// tolerates but verify must flag.
	g.AddSubclass("a", "b")
	g.AddSubclass("b", "c")
	g.AddSubclass("c", "a")
	g.Freeze()
	r := Check(g, Options{})
	fs := findings(r, "taxonomy-cycle")
	if len(fs) != 1 || fs[0].Severity != Error {
		t.Fatalf("want one taxonomy-cycle error, got %+v", r.Findings)
	}
	if r.OK() {
		t.Fatal("cyclic graph reported OK")
	}
	if !strings.Contains(fs[0].Message, "3 classes") {
		t.Fatalf("message = %q", fs[0].Message)
	}
}

func TestCheckTaxonomySelfLoop(t *testing.T) {
	g := cleanGraph()
	g.AddSubclass("ouro", "ouro")
	g.Freeze()
	r := Check(g, Options{})
	fs := findings(r, "taxonomy-cycle")
	if len(fs) != 1 {
		t.Fatalf("want one self-loop finding, got %+v", r.Findings)
	}
	if !strings.Contains(fs[0].Message, "its own superclass") {
		t.Fatalf("message = %q", fs[0].Message)
	}
}

func TestCheckDeepTaxonomyIterative(t *testing.T) {
	// A 4096-deep subclass chain: the SCC must be iterative, not
	// recursive, or this would overflow the stack. No cycle expected.
	g := kb.New()
	for i := 0; i < 4096; i++ {
		g.AddSubclass(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
	}
	g.Freeze()
	r := Check(g, Options{})
	if len(findings(r, "taxonomy-cycle")) != 0 {
		t.Fatalf("deep chain misreported as cyclic: %+v", r.Findings)
	}
}

func TestCheckDegreeOutlier(t *testing.T) {
	g := kb.New()
	for i := 0; i < 64; i++ {
		g.AddPropertyTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("v%d", i))
		// Every node also links to the hub.
		g.AddTriple(fmt.Sprintf("n%d", i), "p", "HUB")
	}
	g.Freeze()
	r := Check(g, Options{DegreeSigma: 3, MinOutlierDegree: 16})
	fs := findings(r, "degree-outlier")
	if len(fs) == 0 {
		t.Fatalf("hub not flagged: %+v", r.Findings)
	}
	if fs[0].Severity != Warn {
		t.Fatalf("outlier severity = %v", fs[0].Severity)
	}
	if !strings.Contains(fs[0].Message, "HUB") {
		t.Fatalf("message = %q", fs[0].Message)
	}
	if r.Errors != 0 {
		t.Fatalf("outliers must not be errors: %+v", r.Findings)
	}
	hub := g.Lookup("HUB")
	if sus := r.SuspectNodes(); len(sus) == 0 || sus[0] != hub {
		t.Fatalf("SuspectNodes = %v, want [%d]", sus, hub)
	}
}

func TestCheckDuplicateLabels(t *testing.T) {
	g := cleanGraph()
	g.AddType("New York", "city")
	g.AddType("new_york", "city")
	g.AddType("NEW-YORK", "city")
	g.Freeze()
	r := Check(g, Options{})
	fs := findings(r, "duplicate-label")
	if len(fs) != 1 {
		t.Fatalf("want one duplicate-label finding, got %+v", r.Findings)
	}
	if !strings.Contains(fs[0].Message, "3 nodes") {
		t.Fatalf("message = %q", fs[0].Message)
	}
	if r.Errors != 0 {
		t.Fatal("duplicate labels must be warnings")
	}
}

func TestNormalizeLabel(t *testing.T) {
	cases := map[string]string{
		"New York":   "new york",
		"new_york":   "new york",
		"NEW-YORK":   "new york",
		"  a  b  ":   "a b",
		"plain":      "plain",
		"_-_":        "",
		"":           "",
		"Tab\tSpace": "tab space",
	}
	for in, want := range cases {
		if got := normalizeLabel(in); got != want {
			t.Errorf("normalizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": ModeOff, "warn": ModeWarn, "": ModeWarn, "strict": ModeStrict} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus) accepted")
	}
	bad := &Report{Errors: 1}
	if !ModeStrict.Reject(bad) || ModeWarn.Reject(bad) || ModeOff.Reject(bad) {
		t.Fatal("Reject matrix wrong")
	}
	if ModeStrict.Reject(&Report{Warnings: 3}) {
		t.Fatal("strict rejected a warnings-only report")
	}
}

func TestReportTruncation(t *testing.T) {
	g := cleanGraph()
	for i := 0; i < 10; i++ {
		g.AddType(fmt.Sprintf("Dup %d", i), "city")
		g.AddType(fmt.Sprintf("dup_%d", i), "city")
	}
	g.Freeze()
	r := Check(g, Options{MaxFindings: 3})
	if !r.Truncated || len(r.Findings) != 3 || r.Warnings != 10 {
		t.Fatalf("truncation wrong: len=%d truncated=%v warnings=%d", len(r.Findings), r.Truncated, r.Warnings)
	}
}

// --- snapshot section surgery ---------------------------------------
//
// A DKBS snapshot stores triples twice (subject- and object-grouped
// edge arenas) and checks each section only against its own CRC; a
// payload whose CRC is recomputed after mutation loads cleanly but
// yields an asymmetric graph. These helpers rewrite one raw edge
// section in place to simulate that.

// Section IDs of the raw edge arenas (Edge = u32 pred, u32 to).
const (
	sectOutEdges byte = 16
	sectInEdges  byte = 18
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mutateSection applies fn to the payload of section id in a copy of
// snap and fixes up the section's CRC in the directory.
func mutateSection(t *testing.T, snap []byte, id byte, fn func([]byte)) []byte {
	t.Helper()
	out := append([]byte(nil), snap...)
	n := int(binary.LittleEndian.Uint16(out[6:8]))
	for i := 0; i < n; i++ {
		e := out[8+i*24 : 8+(i+1)*24]
		if e[0] != id {
			continue
		}
		off := binary.LittleEndian.Uint64(e[8:16])
		payload := out[off : off+binary.LittleEndian.Uint64(e[16:24])]
		fn(payload)
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(payload, castagnoli))
		return out
	}
	t.Fatalf("section %d not found", id)
	return nil
}

// tinyGraph builds the smallest interesting KB: one triple a -p-> b.
func tinyGraph(t *testing.T) (*kb.Graph, []byte) {
	t.Helper()
	g := kb.New()
	g.AddTriple("a", "p", "b")
	g.Freeze()
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

func reload(t *testing.T, snap []byte) *kb.Graph {
	t.Helper()
	g, err := kb.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("surgically corrupted snapshot must still load: %v", err)
	}
	return g
}

func TestCheckDetectsAsymmetricIndexes(t *testing.T) {
	g, snap := tinyGraph(t)
	a, b := g.Lookup("a"), g.Lookup("b")
	// The in-edge arena holds one edge, (p, a). Redirect its subject
	// from a to b: the in side now disagrees with out/sp.
	snap = mutateSection(t, snap, sectInEdges, func(p []byte) {
		if got := kb.ID(binary.LittleEndian.Uint32(p[4:])); got != a {
			t.Fatalf("in-edge subject = %d, want a (%d)", got, a)
		}
		binary.LittleEndian.PutUint32(p[4:], uint32(b))
	})
	r := Check(reload(t, snap), Options{})
	if r.OK() {
		t.Fatalf("asymmetric graph reported OK: %+v", r.Findings)
	}
	if len(findings(r, "symmetry")) == 0 {
		t.Fatalf("no symmetry findings: %+v", r.Findings)
	}
}

func TestCheckDetectsUnregisteredPredicate(t *testing.T) {
	g, snap := tinyGraph(t)
	p, b := g.Lookup("p"), g.Lookup("b")
	// Rewrite the out-edge's predicate to point at node b (an
	// instance, not a registered predicate).
	snap = mutateSection(t, snap, sectOutEdges, func(pl []byte) {
		if got := kb.ID(binary.LittleEndian.Uint32(pl)); got != p {
			t.Fatalf("out-edge predicate = %d, want p (%d)", got, p)
		}
		binary.LittleEndian.PutUint32(pl, uint32(b))
	})
	r := Check(reload(t, snap), Options{})
	if len(findings(r, "structural")) == 0 {
		t.Fatalf("unregistered predicate not flagged: %+v", r.Findings)
	}
	if r.OK() {
		t.Fatal("graph with unregistered predicate reported OK")
	}
}
