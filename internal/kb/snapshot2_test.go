package kb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// snap2Bytes serializes g as a DKBS snapshot, failing the test on
// error.
func snap2Bytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	return buf.Bytes()
}

// encodeText renders g in the canonical text format — the
// storage-independent fingerprint used to compare graphs across
// formats and load paths.
func encodeText(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.String()
}

// checkGraphSemantics exercises the read API of a loaded paper graph.
func checkGraphSemantics(t *testing.T, g *Graph) {
	t.Helper()
	s := g.Lookup("Avram Hershko")
	born := g.Lookup("wasBornIn")
	karcag := g.Lookup("Karcag")
	if s == Invalid || born == Invalid || karcag == Invalid {
		t.Fatal("entity lost in snapshot round trip")
	}
	if got := g.Subjects(born, karcag); len(got) != 1 || got[0] != s {
		t.Errorf("Subjects(wasBornIn, Karcag) = %v, want [%d]", got, s)
	}
	if got := g.Objects(s, born); len(got) != 1 || got[0] != karcag {
		t.Errorf("Objects(Hershko, wasBornIn) = %v, want [%d]", got, karcag)
	}
	if !g.HasEdge(s, born, karcag) {
		t.Error("HasEdge lost in snapshot round trip")
	}
	if g.Lookup("no such node") != Invalid {
		t.Error("Lookup invented a node")
	}
	lit := g.Lookup("1937-12-31")
	if lit == Invalid || g.KindOf(lit) != KindLiteral {
		t.Error("literal kind lost in snapshot round trip")
	}
	if !g.HasType(g.Lookup("Haifa"), g.Lookup("location")) {
		t.Error("taxonomy closure lost in snapshot round trip")
	}
	if got := g.InstancesOf(g.Lookup("city")); len(got) != 2 {
		t.Errorf("InstancesOf(city) = %d instances, want 2", len(got))
	}
	if got := g.Subclasses(g.Lookup("location")); len(got) != 1 {
		t.Errorf("Subclasses(location) = %v, want one class", got)
	}
	if got := g.Subclasses(g.Lookup("awards")); len(got) != 1 {
		t.Errorf("Subclasses(awards) = %v, want one class", got)
	}
}

func v2TestGraph() *Graph {
	g := paperGraph()
	g.AddSubclass("city", "location")
	g.AddSubclass("Chemistry awards", "awards")
	return g
}

// unsized hides a reader's Len method, so LoadSnapshot cannot size its
// buffer up front and must grow it as bytes arrive.
type unsized struct{ io.Reader }

func TestSnapshotRoundTrip(t *testing.T) {
	g := v2TestGraph()
	snap := snap2Bytes(t, g)

	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(snap),
		"unsized": unsized{bytes.NewReader(snap)},
	} {
		t.Run(name, func(t *testing.T) {
			g2, err := LoadSnapshot(r)
			if err != nil {
				t.Fatalf("LoadSnapshot: %v", err)
			}
			if !g2.ReadOnly() {
				t.Error("snapshot-loaded graph is not read-only")
			}
			if g2.Mapped() {
				t.Error("LoadSnapshot graph claims to be mmap'd")
			}
			// The encoding is canonical, so re-encoding the loaded graph
			// must reproduce the original bytes exactly — node table,
			// kinds, predicates, taxonomy, types, triples and counts in
			// one comparison.
			if !bytes.Equal(snap, snap2Bytes(t, g2)) {
				t.Error("re-encoded snapshot differs from original (round trip not exact)")
			}
			if got, want := encodeText(t, g2), encodeText(t, g); got != want {
				t.Error("text encodings differ after snapshot round trip")
			}
			if g2.Generation() != g.Generation() {
				t.Errorf("generation: got %d, want %d", g2.Generation(), g.Generation())
			}
			if g2.NumTriples() != g.NumTriples() || g2.NumNodes() != g.NumNodes() {
				t.Errorf("counts differ: %d/%d nodes, %d/%d triples",
					g2.NumNodes(), g.NumNodes(), g2.NumTriples(), g.NumTriples())
			}
			checkGraphSemantics(t, g2)
			// Every name must resolve back to its own ID through the
			// name table, and no other.
			for id := 0; id < g.NumNodes(); id++ {
				name := g.Name(ID(id))
				if got := g2.Lookup(name); got == Invalid || g2.Name(got) != name {
					t.Fatalf("Lookup(%q) = %d via name table, want the ID naming %q", name, got, name)
				}
			}
		})
	}
}

// TestSnapshotV2RoundTripDecode keeps the big-endian read path tested
// on little-endian hosts: the same bytes loaded through the portable
// decodeSections copy and through the in-place castSections view must
// be the same graph.
func TestSnapshotV2RoundTripDecode(t *testing.T) {
	g := v2TestGraph()
	snap := snap2Bytes(t, g)
	dir, err := parseV2Directory(snap, int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := newSnapshotGraph(snap, dir, allSections, decodeSections)
	if err != nil {
		t.Fatalf("decodeSections load: %v", err)
	}
	cast, err := newSnapshotGraph(snap, dir, allSections, castSections)
	if err != nil {
		t.Fatalf("castSections load: %v", err)
	}
	if !bytes.Equal(snap2Bytes(t, decoded), snap2Bytes(t, cast)) {
		t.Error("decodeSections and castSections graphs re-encode to different bytes")
	}
	if !bytes.Equal(snap, snap2Bytes(t, decoded)) {
		t.Error("decodeSections graph does not re-encode to the original bytes")
	}
	if got, want := encodeText(t, decoded), encodeText(t, cast); got != want {
		t.Error("decodeSections and castSections graphs encode to different text")
	}
	checkGraphSemantics(t, decoded)
}

func TestSnapshotV2MmapLoad(t *testing.T) {
	g := v2TestGraph()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := os.WriteFile(path, snap2Bytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if runtime.GOOS == "linux" && !g2.Mapped() {
		t.Error("snapshot on linux did not take the mmap path")
	}
	if !g2.ReadOnly() {
		t.Error("mapped graph is not read-only")
	}
	if got, want := encodeText(t, g2), encodeText(t, g); got != want {
		t.Error("text encodings differ after mmap load")
	}
	checkGraphSemantics(t, g2)
}

// v1Header is the first bytes of a DKBS version 1 file.
var v1Header = []byte{'D', 'K', 'B', 'S', 1, 0, 0, 0, 1, 0, 0, 0, 0}

// TestSnapshotV1Rejected: every reader refuses a v1 file with the typed
// error that tells the operator how to migrate.
func TestSnapshotV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, v1Header, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errLoad := LoadSnapshot(bytes.NewReader(v1Header))
	_, errFile := LoadSnapshotFile(path)
	_, errInfo := ReadSnapshotInfo(path)
	for name, err := range map[string]error{
		"LoadSnapshot": errLoad, "LoadSnapshotFile": errFile, "ReadSnapshotInfo": errInfo,
	} {
		if !errors.Is(err, ErrSnapshotV1) {
			t.Errorf("%s(v1) = %v, want ErrSnapshotV1", name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "kbtool pack") {
			t.Errorf("%s(v1) error %q does not name version 1 and `kbtool pack`", name, msg)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := v2TestGraph()
	if !bytes.Equal(snap2Bytes(t, g), snap2Bytes(t, g)) {
		t.Fatal("two encodings of the same graph differ")
	}
}

// TestSnapshotV2Deterministic: the canonicalization is a fixed point
// over every storage form — the writer works off a stream-loaded
// graph's cast arenas and an mmap'd graph's file pages as well as a
// mutable graph's maps, and all three yield the same bytes.
func TestSnapshotV2Deterministic(t *testing.T) {
	a := snap2Bytes(t, v2TestGraph())
	g2, err := LoadSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, snap2Bytes(t, g2)) {
		t.Fatal("re-packing a stream-loaded graph changed the bytes")
	}
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := os.WriteFile(path, a, 0o644); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, snap2Bytes(t, g3)) {
		t.Fatal("re-packing a file-loaded graph changed the bytes")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := New() // only the literal pseudo-class is interned
	g2, err := LoadSnapshot(bytes.NewReader(snap2Bytes(t, g)))
	if err != nil {
		t.Fatalf("LoadSnapshot(empty): %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumTriples() != 0 {
		t.Errorf("empty graph round trip: %d nodes, %d triples", g2.NumNodes(), g2.NumTriples())
	}
	if g2.literalClass != g.literalClass {
		t.Errorf("literalClass: got %d, want %d", g2.literalClass, g.literalClass)
	}
}

// TestSnapshotV2EmptyGraph loads the empty graph through the file path,
// where every arena section is zero bytes long.
func TestSnapshotV2EmptyGraph(t *testing.T) {
	g := New()
	path := filepath.Join(t.TempDir(), "empty.snap")
	if err := os.WriteFile(path, snap2Bytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile(empty): %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumTriples() != 0 {
		t.Errorf("empty graph round trip: %d nodes, %d triples", g2.NumNodes(), g2.NumTriples())
	}
	if g2.Lookup(LiteralClass) != g.literalClass {
		t.Error("literal pseudo-class lost")
	}
}

func TestSnapshotV2ReadOnlyPanics(t *testing.T) {
	g2, err := LoadSnapshot(bytes.NewReader(snap2Bytes(t, v2TestGraph())))
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"AddTriple":   func() { g2.AddTriple("a", "b", "c") },
		"AddType":     func() { g2.AddType("a", "b") },
		"AddSubclass": func() { g2.AddSubclass("a", "b") },
		"Intern":      func() { g2.Intern("a") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a read-only graph did not panic", name)
				}
			}()
			fn()
		})
	}
}

// findV2Section locates section id in a snapshot via its directory.
func findV2Section(t *testing.T, data []byte, id byte) (dirOff int, e dirEntry) {
	t.Helper()
	n := int(binary.LittleEndian.Uint16(data[6:8]))
	for i := 0; i < n; i++ {
		off := 8 + i*dirEntryLen
		b := data[off:]
		if b[0] == id {
			return off, dirEntry{
				id: b[0], flags: b[1],
				crc: binary.LittleEndian.Uint32(b[4:8]),
				off: int64(binary.LittleEndian.Uint64(b[8:16])),
				n:   int64(binary.LittleEndian.Uint64(b[16:24])),
			}
		}
	}
	t.Fatalf("section %d not found in snapshot", id)
	return 0, dirEntry{}
}

type corruptCase struct {
	name    string
	data    []byte
	wantErr string
}

// checkCorrupt loads each case through the reader wrap builds and
// expects a typed error naming wantErr.
func checkCorrupt(t *testing.T, cases []corruptCase, wrap func([]byte) io.Reader) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSnapshot(wrap(tc.data))
			if err == nil {
				t.Fatal("LoadSnapshot succeeded on corrupt input")
			}
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotV1) {
				t.Errorf("error %v is not typed", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotCorruption feeds damaged header, directory and framing
// bytes through a reader that cannot report its length, so every case
// also runs the buffer-growing read.
func TestSnapshotCorruption(t *testing.T) {
	good := snap2Bytes(t, v2TestGraph())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	checkCorrupt(t, []corruptCase{
		{"empty input", nil, "bad snapshot magic"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad snapshot magic"},
		{"wrong version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		}), "unsupported snapshot version 99"},
		{"truncated header", good[:6], "truncated in the header"},
		{"truncated section", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2OutEdges)
			return b[:e.off+1] // cut mid-payload
		}), "out of bounds"},
		{"checksum mismatch", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2NameBytes)
			b[e.off] ^= 0xFF
			return b
		}), "checksum mismatch"},
		{"missing section", mutate(func(b []byte) []byte {
			// Drop the last directory entry and shrink the count.
			n := binary.LittleEndian.Uint16(b[6:8])
			binary.LittleEndian.PutUint16(b[6:8], n-1)
			return b
		}), fmt.Sprintf("section %d missing", sec2Max-1)},
		{"duplicate section", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2POIDs)
			b[dirOff] = sec2POSpans
			return b
		}), "duplicate snapshot section"},
		{"corrupt name lengths", mutate(func(b []byte) []byte {
			// Point a name past the blob and fix the CRC, so only
			// structural validation can catch it.
			dirOff, e := findV2Section(t, b, sec2NameOffs)
			binary.LittleEndian.PutUint32(b[e.off+4:], 1<<30)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc32.Checksum(b[e.off:e.off+e.n], crcTable))
			return b
		}), "out of order or out of range"},
	}, func(b []byte) io.Reader { return unsized{bytes.NewReader(b)} })
}

// TestSnapshotV2Corruption feeds damaged bytes through a sized reader,
// which LoadSnapshot reads in one allocation.
func TestSnapshotV2Corruption(t *testing.T) {
	good := snap2Bytes(t, v2TestGraph())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	checkCorrupt(t, []corruptCase{
		{"empty input", nil, "bad snapshot magic"},
		{"v1 header", v1Header, "version 1"},
		{"truncated directory", good[:16], "truncated in the section directory"},
		{"section out of bounds", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2OutEdges)
			binary.LittleEndian.PutUint64(b[dirOff+16:], 1<<40)
			return b
		}), "out of bounds"},
		{"misaligned raw section", mutate(func(b []byte) []byte {
			dirOff, e := findV2Section(t, b, sec2Kinds)
			binary.LittleEndian.PutUint64(b[dirOff+8:], uint64(e.off)+1)
			return b
		}), "not page-aligned"},
		{"missing section", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2SPKeys)
			b[dirOff] = 200 // rename the section to an unknown ID
			return b
		}), "missing"},
		{"corrupt raw payload", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2OutEdges)
			b[e.off] ^= 0xFF
			return b
		}), "checksum mismatch"},
		{"corrupt counts", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2Counts)
			b[e.off] ^= 0xFF
			return b
		}), "checksum mismatch"},
		{"raw flag cleared", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2SPKeys)
			b[dirOff+1] = 0
			return b
		}), "wrong storage flag"},
		{"span out of range", mutate(func(b []byte) []byte {
			// Grow a type span beyond its arena and fix the CRC so only
			// the structural bounds check can catch it.
			dirOff, e := findV2Section(t, b, sec2TypeSpans)
			binary.LittleEndian.PutUint32(b[e.off+4:], 1<<30) // span.n
			binary.LittleEndian.PutUint32(b[e.off+8:], 1<<30) // span.cap
			crc := crc32.Checksum(b[e.off:e.off+e.n], crcTable)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc)
			return b
		}), "out of range"},
	}, func(b []byte) io.Reader { return bytes.NewReader(b) })
}

// TestSnapshotRejectsOutOfRangeAssertionIDs: a CRC-valid snapshot
// whose type/taxonomy arena names a node that does not exist is a
// typed error on both read paths, never a graph that serves (or
// panics on) it.
func TestSnapshotRejectsOutOfRangeAssertionIDs(t *testing.T) {
	good, err := os.ReadFile("../../testdata/delta/old.dkbs")
	if err != nil {
		t.Fatal(err)
	}
	g, err := LoadSnapshot(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []byte{sec2TypeIDs, sec2InstOfIDs, sec2SuperIDs, sec2SubIDs} {
		for _, bad := range []ID{ID(g.NumNodes()), -1} {
			b := append([]byte(nil), good...)
			dirOff, e := findV2Section(t, b, sec)
			if e.n < 4 {
				t.Fatalf("section %s is empty", v2SectionNames[sec])
			}
			binary.LittleEndian.PutUint32(b[e.off+e.n-4:], uint32(bad))
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc32.Checksum(b[e.off:e.off+e.n], crcTable))
			if _, err := LoadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s holds ID %d: LoadSnapshot = %v, want ErrCorruptSnapshot", v2SectionNames[sec], bad, err)
			}
			if _, err := LoadSnapshotFile(writeTemp(t, b)); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s holds ID %d: LoadSnapshotFile = %v, want ErrCorruptSnapshot", v2SectionNames[sec], bad, err)
			}
		}
	}
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.dkbs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSnapshotAllocationBounded: a directory claiming a terabyte
// must cost memory in proportion to the bytes that arrive, not to the
// claim.
func TestLoadSnapshotAllocationBounded(t *testing.T) {
	good := snap2Bytes(t, v2TestGraph())
	bad := append([]byte(nil), good...)
	dirOff, _ := findV2Section(t, bad, sec2OutEdges)
	binary.LittleEndian.PutUint64(bad[dirOff+16:], 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadSnapshot(unsized{bytes.NewReader(bad)})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("LoadSnapshot = %v, want a corrupt-snapshot error", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(bad)+1<<20); got > limit {
		t.Fatalf("allocated %d bytes for a %d-byte input (limit %d)", got, len(bad), limit)
	}
}

func TestReadSnapshotInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.snap")
	snap := snap2Bytes(t, v2TestGraph())
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotInfo(path)
	if err != nil {
		t.Fatalf("ReadSnapshotInfo: %v", err)
	}
	if info.Version != SnapshotVersion2 {
		t.Errorf("info: version %d", info.Version)
	}
	if len(info.Sections) != int(sec2Max-1) {
		t.Errorf("info: %d sections, want %d", len(info.Sections), sec2Max-1)
	}
	if info.FileSize != int64(len(snap)) {
		t.Errorf("info: file size %d, want %d", info.FileSize, len(snap))
	}
	for _, s := range info.Sections {
		if s.Raw && !s.Aligned {
			t.Errorf("raw section %s at offset %d is not page-aligned", s.Name, s.Offset)
		}
	}
}

// addSnapshotSeeds seeds a snapshot fuzz target with the committed
// delta-pair snapshots and an empty graph.
func addSnapshotSeeds(f *testing.F) {
	for _, path := range []string{"../../testdata/delta/old.dkbs", "../../testdata/delta/new.dkbs"} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add(snap2Bytes(f, New()))
}

// checkFuzzedLoad: a load of arbitrary bytes either fails with a
// typed error or yields a graph whose taxonomy walks cleanly.
func checkFuzzedLoad(t *testing.T, g *Graph, err error) {
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotV1) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	if g.NumNodes() == 0 {
		t.Fatal("loaded graph has no nodes (the literal class is always interned)")
	}
	walkTaxonomy(t, g)
}

// FuzzLoadSnapshot: whatever the bytes, the stream snapshot reader
// returns a walkable graph or a typed error, and never panics.
func FuzzLoadSnapshot(f *testing.F) {
	addSnapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadSnapshot(bytes.NewReader(data))
		checkFuzzedLoad(t, g, err)
	})
}

// FuzzLoadSnapshotFile is FuzzLoadSnapshot for the mmap read path,
// which does not checksum the arenas it casts in place.
func FuzzLoadSnapshotFile(f *testing.F) {
	addSnapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadSnapshotFile(writeTemp(t, data))
		checkFuzzedLoad(t, g, err)
		if g != nil && g.mapped != nil {
			// Served mappings are never released; a fuzz run maps
			// thousands of files, so release each once it is walked.
			if err := unmapFile(g.mapped.data); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestNameTable(t *testing.T) {
	names := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		names = append(names, fmt.Sprintf("node-%d", i))
	}
	tab := newNameTable(len(names))
	var blob []byte
	offs := make([]uint32, 0, len(names)+1)
	for id, n := range names {
		offs = append(offs, uint32(len(blob)))
		blob = append(blob, n...)
		tab.insert(n, ID(id))
	}
	offs = append(offs, uint32(len(blob)))
	for id, n := range names {
		if got := tab.lookup(string(blob), offs, n); got != ID(id) {
			t.Fatalf("lookup(%q) = %d, want %d", n, got, id)
		}
	}
	for _, miss := range []string{"", "node-100", "nope", "node-"} {
		if got := tab.lookup(string(blob), offs, miss); got != Invalid {
			t.Fatalf("lookup(%q) = %d, want Invalid", miss, got)
		}
	}
}
