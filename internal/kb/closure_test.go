package kb

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// closureKB has a diamond (a ⊂ b, c ⊂ d), a three-class cycle that
// also leads into the diamond (x ⊂ y ⊂ z ⊂ x, z ⊂ d), a self-loop,
// an instance typed twice along the diamond, and untyped instances
// and literals.
const closureKB = `
<a> <subClassOf> <b> .
<a> <subClassOf> <c> .
<b> <subClassOf> <d> .
<c> <subClassOf> <d> .
<x> <subClassOf> <y> .
<y> <subClassOf> <z> .
<z> <subClassOf> <x> .
<z> <subClassOf> <d> .
<s> <subClassOf> <s> .
<i1> <type> <a> .
<i2> <type> <b> .
<i2> <type> <c> .
<i3> <type> <x> .
<i4> <type> <y> .
<i4> <type> <a> .
<i5> <type> <s> .
<i6> <type> <d> .
<u1> <knows> <u2> .
<u1> <age> "42" .
<i1> <knows> <u1> .
`

// closureKBTriplesOnly edits only triples (one gone, a new untyped
// node), so applying its delta must share the base's closures.
const closureKBTriplesOnly = `<u3> <knows> <i1> .
<u1> <age> "43" .
`

// closureKBTaxonomyEdits closes the diamond into the cycle (d ⊂ x),
// drops one diamond edge and one type, and types a formerly untyped
// node and a new one.
const closureKBTaxonomyEdits = `<d> <subClassOf> <x> .
<u2> <type> <c> .
<n1> <type> <s> .
`

func parseKB(t testing.TB, text string) *Graph {
	t.Helper()
	g, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// editKB returns closureKB without the lines in drop and with add
// appended.
func editKB(t testing.TB, add string, drop ...string) *Graph {
	t.Helper()
	text := closureKB
	for _, d := range drop {
		if !strings.Contains(text, d+"\n") {
			t.Fatalf("closureKB has no line %q", d)
		}
		text = strings.Replace(text, d+"\n", "", 1)
	}
	return parseKB(t, text+add)
}

// refTypes is the reference type closure: a breadth-first walk over
// the direct assertions alone, sorted.
func refTypes(g *Graph, inst ID) []ID {
	if g.KindOf(inst) == KindLiteral {
		return []ID{g.Lookup(LiteralClass)}
	}
	seen := map[ID]bool{}
	queue := append([]ID(nil), g.DirectTypes(inst)...)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if !seen[c] {
			seen[c] = true
			queue = append(queue, g.Superclasses(c)...)
		}
	}
	var out []ID
	for c := range seen {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// checkClosures compares TypesOf, InstancesOf and HasType on every
// node (and node pair) of g with the reference walk.
func checkClosures(t *testing.T, g *Graph) {
	t.Helper()
	g.Freeze()
	n := g.NumNodes()
	lit := g.Lookup(LiteralClass)
	ref := make([][]ID, n)
	members := make([][]ID, n)
	for i := 0; i < n; i++ {
		ref[i] = refTypes(g, ID(i))
		if g.KindOf(ID(i)) == KindLiteral {
			members[lit] = append(members[lit], ID(i))
			continue
		}
		for _, c := range ref[i] {
			members[c] = append(members[c], ID(i))
		}
	}
	for i := 0; i < n; i++ {
		id := ID(i)
		if got := g.TypesOf(id); !slices.Equal(got, ref[i]) && len(got)+len(ref[i]) > 0 {
			t.Errorf("TypesOf(%s) = %v, want %v", g.Name(id), names(g, got), names(g, ref[i]))
		}
		if got := g.InstancesOf(id); !slices.Equal(got, members[i]) && len(got)+len(members[i]) > 0 {
			t.Errorf("InstancesOf(%s) = %v, want %v", g.Name(id), names(g, got), names(g, members[i]))
		}
		for c := 0; c < n; c++ {
			if got, want := g.HasType(id, ID(c)), slices.Contains(ref[i], ID(c)); got != want {
				t.Errorf("HasType(%s, %s) = %v, want %v", g.Name(id), g.Name(ID(c)), got, want)
			}
		}
	}
}

func names(g *Graph, ids []ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	return out
}

// applyKB diffs base against target, applies the delta to base and
// checks the result holds target's content.
func applyKB(t *testing.T, base, target *Graph) *Graph {
	t.Helper()
	got, err := base.ApplyDelta(Diff(base, target))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got.Fingerprint() != target.Fingerprint() {
		t.Fatal("applied graph does not hold the target content")
	}
	return got
}

// TestClosureEquivalence: every graph form answers the closure
// questions exactly as the reference walk does, cycles and diamonds
// included.
func TestClosureEquivalence(t *testing.T) {
	text := parseKB(t, closureKB)
	snap := snap2Bytes(t, text)
	streamed, err := LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	mapped := asV2(t, parseKB(t, closureKB))
	triples := editKB(t, closureKBTriplesOnly, `<i1> <knows> <u1> .`, `<u1> <age> "42" .`)
	taxonomy := editKB(t, closureKBTaxonomyEdits, `<a> <subClassOf> <c> .`, `<i6> <type> <d> .`)

	type form struct {
		name string
		g    *Graph
	}
	forms := []form{{"text", text}, {"LoadSnapshot", streamed}, {"LoadSnapshotFile", mapped}}
	for _, base := range forms[:3] {
		base.g.Freeze()
		shared := applyKB(t, base.g, triples)
		if !shared.closed || &shared.typeClosure.spans[0] != &base.g.typeClosure.spans[0] {
			t.Errorf("%s: a triples-only delta did not share the base's closures", base.name)
		}
		forms = append(forms,
			form{"delta/triples-only/" + base.name, shared},
			form{"delta/taxonomy/" + base.name, applyKB(t, base.g, taxonomy)})
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) { checkClosures(t, f.g) })
	}
}

// TestClosureReadsDoNotAllocate: on a frozen graph, TypesOf returns a
// shared span and HasType searches it, neither allocating.
func TestClosureReadsDoNotAllocate(t *testing.T) {
	for name, g := range map[string]*Graph{"text": parseKB(t, closureKB), "mmap": asV2(t, parseKB(t, closureKB))} {
		g.Freeze()
		d := g.Lookup("d")
		var insts []ID
		for i := 0; i < g.NumNodes(); i++ {
			if g.KindOf(ID(i)) != KindLiteral {
				insts = append(insts, ID(i))
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, id := range insts {
				g.TypesOf(id)
				g.HasType(id, d)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per closure walk, want 0", name, allocs)
		}
	}
}

// TestClosureConcurrentReaders: a frozen mmap'd graph serves closure
// reads from many goroutines (run under -race by `make race`).
func TestClosureConcurrentReaders(t *testing.T) {
	g := asV2(t, parseKB(t, closureKB))
	g.Freeze()
	want := make([]string, g.NumNodes())
	for i := range want {
		want[i] = fmt.Sprint(g.TypesOf(ID(i)), g.InstancesOf(ID(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := range want {
					id := ID(i)
					if got := fmt.Sprint(g.TypesOf(id), g.InstancesOf(id)); got != want[i] {
						t.Errorf("node %s: concurrent closure read %s, want %s", g.Name(id), got, want[i])
						return
					}
					for _, c := range g.TypesOf(id) {
						if !g.HasType(id, c) {
							t.Errorf("HasType(%s, %s) = false for a class in TypesOf", g.Name(id), g.Name(c))
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// walkTaxonomy freezes g and asks every closure question of every
// node; whatever bytes a graph was loaded from, this must not panic,
// and the three accessors must agree with each other.
func walkTaxonomy(t *testing.T, g *Graph) {
	g.Freeze()
	for i := 0; i < g.NumNodes(); i++ {
		id := ID(i)
		for _, c := range g.TypesOf(id) {
			if c != g.literalClass && g.KindOf(id) != KindLiteral && !g.HasType(id, c) {
				t.Fatalf("HasType(%d, %d) = false for a class in TypesOf", id, c)
			}
		}
		if id == g.literalClass {
			g.InstancesOf(id)
			continue
		}
		for _, m := range g.InstancesOf(id) {
			if !g.HasType(m, id) {
				t.Fatalf("HasType(%d, %d) = false for a member in InstancesOf", m, id)
			}
		}
	}
}
