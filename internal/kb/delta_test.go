package kb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// paperGraphV2 writes g as a v2 snapshot and loads it back mmap'd, so
// tests exercise the snapshot (read-only) storage form.
func asV2(t *testing.T, g *Graph) *Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.dkbs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSnapshotV2(f); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	return g2
}

// newerPaperGraph is paperGraph with a realistic small churn: one
// entity gone entirely (orphan exercise), a triple retargeted, new
// entities with types, a new predicate, a taxonomy edit and a literal
// change.
func newerPaperGraph() *Graph {
	g := paperGraph()
	g2 := New()
	// Copy everything except the assertions we edit.
	for s := 0; s < g.NumNodes(); s++ {
		for _, e := range g.Out(ID(s)) {
			sn, pn, on := g.Name(ID(s)), g.Name(e.Pred), g.Name(e.To)
			switch {
			case sn == "Avram Hershko" && pn == "wonPrize" && on == "Albert Lasker Award for Medicine":
				// dropped: prize revoked from the KB
			case sn == "Israel Institute of Technology" && pn == "locatedIn":
				g2.AddTriple(sn, pn, "Haifa") // unchanged, added explicitly for clarity
			case g.KindOf(e.To) == KindLiteral:
				g2.AddPropertyTriple(sn, pn, on)
			default:
				g2.AddTriple(sn, pn, on)
			}
		}
	}
	g.forEachTyped(func(inst ID, classes []ID) {
		for _, c := range classes {
			if g.Name(inst) == "Albert Lasker Award for Medicine" {
				continue // node fully removed → orphan in applied graphs
			}
			g2.AddType(g.Name(inst), g.Name(c))
		}
	})
	// Edits on top.
	g2.AddTriple("Avram Hershko", "wonPrize", "Wolf Prize in Medicine")
	g2.AddType("Wolf Prize in Medicine", "Israeli awards")
	g2.AddSubclass("Israeli awards", "awards")
	g2.AddSubclass("Chemistry awards", "awards")
	g2.AddPropertyTriple("Aaron Ciechanover", "bornOnDate", "1947-10-01")
	g2.AddType("Aaron Ciechanover", "Nobel laureates in Chemistry")
	g2.AddTriple("Aaron Ciechanover", "worksAt", "Israel Institute of Technology")
	return g2
}

func deltaBytes(t *testing.T, d *Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatalf("Delta.Write: %v", err)
	}
	return buf.Bytes()
}

func TestFingerprintStorageFormInvariance(t *testing.T) {
	g := paperGraph()
	g.AddSubclass("city", "location")

	v2 := asV2(t, g)
	if got, want := v2.Fingerprint(), g.Fingerprint(); got != want {
		t.Errorf("v2 fingerprint %016x != mutable fingerprint %016x", got, want)
	}

	// A graph of identical content built in a different order (and
	// therefore with different IDs) must agree.
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	reordered, err := Parse(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatalf("Parse(reversed): %v", err)
	}
	if got, want := reordered.Fingerprint(), g.Fingerprint(); got != want {
		t.Errorf("reordered fingerprint %016x != original %016x", got, want)
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := paperGraph()
	b := paperGraph()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical graphs disagree on fingerprint")
	}
	b.AddTriple("Avram Hershko", "livesIn", "Haifa")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint unchanged by an added triple")
	}
	c := paperGraph()
	c.AddType("Haifa", "port city")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint unchanged by an added type assertion")
	}
	d := paperGraph()
	d.AddSubclass("city", "location")
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint unchanged by an added subclass edge")
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		form func(*testing.T, *Graph) *Graph
	}{
		{"mutableBase", func(_ *testing.T, g *Graph) *Graph { return g }},
		{"snapshotBase", asV2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := tc.form(t, paperGraph())
			new_ := newerPaperGraph()
			d := Diff(old, new_)
			if d.Ops() == 0 {
				t.Fatal("expected a non-empty delta")
			}
			got, err := old.ApplyDelta(d)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if !got.ReadOnly() {
				t.Error("applied graph should be snapshot-form (read-only)")
			}
			if got.Generation() <= old.Generation() {
				t.Errorf("generation did not advance: %d -> %d", old.Generation(), got.Generation())
			}
			if want := encodeText(t, new_); encodeText(t, got) != want {
				t.Error("applied graph's canonical text differs from the diff target")
			}
			if got.NumTriples() != new_.NumTriples() {
				t.Errorf("triples: got %d, want %d", got.NumTriples(), new_.NumTriples())
			}
			if got, want := got.Fingerprint(), new_.Fingerprint(); got != want {
				t.Errorf("applied fingerprint %016x != target %016x", got, want)
			}
			// Closures over the patched taxonomy.
			ci := got.Lookup("Aaron Ciechanover")
			nl := got.Lookup("Nobel laureates in Chemistry")
			if ci == Invalid || nl == Invalid || !got.HasType(ci, nl) {
				t.Error("new instance's type lost through apply")
			}
			wolf := got.Lookup("Wolf Prize in Medicine")
			aw := got.Lookup("awards")
			if wolf == Invalid || aw == Invalid || !got.HasType(wolf, aw) {
				t.Error("new taxonomy edge not reflected in closure")
			}
			// The removed triple is gone; the orphan node stays interned
			// but unreachable from any index.
			av := got.Lookup("Avram Hershko")
			lasker := got.Lookup("Albert Lasker Award for Medicine")
			if lasker == Invalid {
				t.Fatal("orphaned node should stay interned")
			}
			if got.HasEdge(av, got.Lookup("wonPrize"), lasker) {
				t.Error("removed triple still present")
			}
			if len(got.In(lasker)) != 0 || len(got.Out(lasker)) != 0 || len(got.DirectTypes(lasker)) != 0 {
				t.Error("orphaned node still reachable from an index")
			}
			// The base graph is untouched.
			if !old.HasEdge(old.Lookup("Avram Hershko"), old.Lookup("wonPrize"), old.Lookup("Albert Lasker Award for Medicine")) {
				t.Error("base graph mutated by ApplyDelta")
			}
		})
	}
}

func TestDiffDeterministicAndSerializationRoundTrip(t *testing.T) {
	old := paperGraph()
	new_ := newerPaperGraph()
	d1 := Diff(old, new_)
	d2 := Diff(asV2(t, paperGraph()), asV2(t, newerPaperGraph()))
	b1, b2 := deltaBytes(t, d1), deltaBytes(t, d2)
	// BaseNodes may legitimately differ across storage forms of equal
	// content? No: node count is interning count, identical for equal
	// content built fresh. Bytes must match exactly.
	if !bytes.Equal(b1, b2) {
		t.Error("Diff over different storage forms of the same content produced different bytes")
	}
	rd, err := ReadDelta(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if !reflect.DeepEqual(d1, rd) {
		t.Errorf("delta did not survive serialization:\nwrote %+v\nread  %+v", d1, rd)
	}
	if !bytes.Equal(deltaBytes(t, rd), b1) {
		t.Error("re-serializing a read delta changed its bytes")
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := paperGraph()
	d := Diff(g, paperGraph())
	if d.Ops() != 0 {
		t.Fatalf("diff of identical content has %d ops", d.Ops())
	}
	got, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta(empty): %v", err)
	}
	if encodeText(t, got) != encodeText(t, g) {
		t.Error("empty delta changed content")
	}
	if got.Generation() <= g.Generation() {
		t.Error("even an empty delta must bump the generation")
	}
}

func TestApplyDeltaBaseMismatch(t *testing.T) {
	old := paperGraph()
	d := Diff(old, newerPaperGraph())

	wrong := paperGraph()
	wrong.AddTriple("Avram Hershko", "livesIn", "Haifa")
	if _, err := wrong.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("apply to drifted base: got %v, want ErrDeltaBaseMismatch", err)
	}

	// Same triple count, different content: fingerprint must catch it.
	wrong2 := paperGraph()
	wrong2.AddTriple("Avram Hershko", "livesIn", "Haifa")
	d2 := Diff(paperGraph(), wrong2)
	twisted := paperGraph()
	twisted.AddTriple("Avram Hershko", "livesIn", "Karcag")
	if twisted.NumTriples() != paperGraph().NumTriples()+1 {
		t.Fatal("setup: counts should match")
	}
	base := paperGraph()
	base.AddTriple("Avram Hershko", "diedIn", "Haifa")
	if base.NumTriples() != wrong2.NumTriples() {
		t.Fatal("setup: equal triple counts required")
	}
	if _, err := base.ApplyDelta(d2); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("apply to same-count different-content base: got %v, want ErrDeltaBaseMismatch", err)
	}

	// Applying the same delta twice: the first succeeds, the second
	// sees the new content and is refused.
	applied, err := old.ApplyDelta(d)
	if err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if _, err := applied.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("double apply: got %v, want ErrDeltaBaseMismatch", err)
	}
}

func TestApplyDeltaChained(t *testing.T) {
	// g0 -> g1 -> g2 where g1 removes a node entirely (orphan) and g2
	// re-adds assertions: deltas diffed between fresh graphs must keep
	// applying to COW-applied graphs whose node sets differ.
	g0 := paperGraph()
	g1 := newerPaperGraph()
	g2 := newerPaperGraph()
	g2.AddTriple("Aaron Ciechanover", "wonPrize", "Nobel Prize in Chemistry")
	g2.AddType("Haifa", "port city")

	a1, err := g0.ApplyDelta(Diff(paperGraph(), g1))
	if err != nil {
		t.Fatalf("apply d01: %v", err)
	}
	a2, err := a1.ApplyDelta(Diff(newerPaperGraph(), g2))
	if err != nil {
		t.Fatalf("apply d12 to chained graph: %v", err)
	}
	if encodeText(t, a2) != encodeText(t, g2) {
		t.Error("chained applies diverged from target content")
	}
	if got, want := a2.Fingerprint(), g2.Fingerprint(); got != want {
		t.Errorf("chained fingerprint %016x != target %016x", got, want)
	}
}

func TestApplyDeltaKindChange(t *testing.T) {
	old := New()
	old.AddTriple("a", "p", "b")
	old.AddPropertyTriple("a", "q", "1999")
	new_ := New()
	new_.AddTriple("a", "p", "b")
	new_.AddTriple("a", "q", "1999") // "1999" becomes an instance
	d := Diff(old, new_)
	got, err := old.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if encodeText(t, got) != encodeText(t, new_) {
		t.Error("kind change did not round-trip")
	}
	if k := got.KindOf(got.Lookup("1999")); k != KindInstance {
		t.Errorf("kind not fixed: got %v", k)
	}
	// Kind fixes bypass the incremental check; full recompute must
	// still agree with the promised fingerprint.
	if got, want := got.Fingerprint(), new_.Fingerprint(); got != want {
		t.Errorf("fingerprint after kind change %016x != target %016x", got, want)
	}
}

// TestReadDeltaRejectsCorruption: every malformed delta is an error
// matching ErrCorruptDelta; a failing reader is not corruption, so its
// error passes through (the server maps an oversized body to 413).
func TestReadDeltaRejectsCorruption(t *testing.T) {
	d := Diff(paperGraph(), newerPaperGraph())
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40

	// Two name lengths whose int conversions wrap around to the true
	// blob size: the layout check passes, the lengths must not.
	var wrap bytes.Buffer
	bw := bufio.NewWriter(&wrap)
	bw.WriteString(deltaMagic)
	bw.Write([]byte{DeltaVersion, 0, 0, 0})
	writeSection(bw, dsecHeader, []byte{0, 0, 0, 0})
	names := binary.AppendUvarint(nil, 2)
	names = binary.AppendUvarint(names, 1<<63+2)
	names = binary.AppendUvarint(names, 1<<63)
	names = append(names, "ab\x00\x00"...)
	writeSection(bw, dsecNames, names)
	for _, id := range []byte{dsecTripleDel, dsecTripleAdd, dsecTypeDel, dsecTypeAdd, dsecSubDel, dsecSubAdd} {
		writeSection(bw, id, []byte{0})
	}
	writeSection(bw, dsecEnd, nil)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"bad magic":           []byte("DKBSnope"),
		"empty":               nil,
		"truncated":           good[:len(good)/2],
		"bit flip":            flipped,
		"wrapped name length": wrap.Bytes(),
	} {
		if _, err := ReadDelta(bytes.NewReader(data)); !errors.Is(err, ErrCorruptDelta) {
			t.Errorf("%s: got %v, want ErrCorruptDelta", name, err)
		}
	}

	ioErr := errors.New("read failed")
	_, err := ReadDelta(io.MultiReader(bytes.NewReader(good[:10]), iotest.ErrReader(ioErr)))
	if !errors.Is(err, ioErr) || errors.Is(err, ErrCorruptDelta) {
		t.Errorf("failing reader: got %v, want the read error, not ErrCorruptDelta", err)
	}

	bad := Diff(paperGraph(), newerPaperGraph())
	bad.Kinds = bad.Kinds[:len(bad.Kinds)-1]
	if _, err := paperGraph().ApplyDelta(bad); !errors.Is(err, ErrCorruptDelta) {
		t.Errorf("kinds shorter than names: got %v, want ErrCorruptDelta", err)
	}
}

// FuzzReadDelta: whatever the bytes, reading a delta and applying it to
// the base it was seeded against yields a typed error or a graph whose
// every node's name resolves back to it, and never panics.
func FuzzReadDelta(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/delta/old_to_new.dkbsd")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	base, err := LoadSnapshotFile("../../testdata/delta/old.dkbs")
	if err != nil {
		f.Fatal(err)
	}
	base.Freeze()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptDelta) {
				t.Fatalf("ReadDelta: untyped error: %v", err)
			}
			return
		}
		g, err := base.ApplyDelta(d)
		if err != nil {
			if !errors.Is(err, ErrCorruptDelta) && !errors.Is(err, ErrDeltaBaseMismatch) {
				t.Fatalf("ApplyDelta: untyped error: %v", err)
			}
			return
		}
		for id := ID(0); int(id) < g.NumNodes(); id++ {
			if got := g.Lookup(g.Name(id)); got != id {
				t.Fatalf("node %d of %d: name %q resolves to %d", id, g.NumNodes(), g.Name(id), got)
			}
		}
	})
}

func TestApplyDeltaRejectsInconsistentOps(t *testing.T) {
	g := paperGraph()
	mk := func() *Delta { return Diff(paperGraph(), paperGraph()) }

	d := mk()
	d.Names = []string{"Avram Hershko", "nosuch", "wasBornIn"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleDel = [][3]int32{{0, 2, 1}}
	if _, err := g.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("removal of absent triple: got %v, want ErrDeltaBaseMismatch", err)
	}

	d = mk()
	d.Names = []string{"Avram Hershko", "Karcag", "wasBornIn"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleAdd = [][3]int32{{0, 2, 1}}
	if _, err := g.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("addition of present triple: got %v, want ErrDeltaBaseMismatch", err)
	}

	d = mk()
	d.Names = []string{"Avram Hershko", "newplace", "visited"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleAdd = [][3]int32{{0, 2, 1}, {0, 2, 1}}
	if _, err := g.ApplyDelta(d); err == nil {
		t.Error("duplicate op accepted")
	}
}

func TestStoreApplyDelta(t *testing.T) {
	base := paperGraph()
	st := NewStore(base)
	gen0 := st.Generation()
	d := Diff(paperGraph(), newerPaperGraph())
	g, err := st.ApplyDelta(d)
	if err != nil {
		t.Fatalf("Store.ApplyDelta: %v", err)
	}
	if st.Graph() != g {
		t.Error("store is not serving the applied graph")
	}
	if st.Generation() <= gen0 {
		t.Errorf("generation did not advance: %d -> %d", gen0, st.Generation())
	}
	if st.Swaps() != 1 {
		t.Errorf("swaps = %d, want 1", st.Swaps())
	}
	// The restamped generation must keep the verified fingerprint memo
	// coherent: Fingerprint() on the served graph equals the target's.
	if got, want := st.Graph().Fingerprint(), newerPaperGraph().Fingerprint(); got != want {
		t.Errorf("served fingerprint %016x != target %016x", got, want)
	}
	// A second identical delta must now be refused, store untouched.
	if _, err := st.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("stale delta: got %v, want ErrDeltaBaseMismatch", err)
	}
	if st.Graph() != g {
		t.Error("failed apply perturbed the served graph")
	}
}
