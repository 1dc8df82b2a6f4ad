package kb

// DKBS: the binary KB snapshot. The text triple format (parse.go) is
// the interchange format — human-readable, diffable, slow. A snapshot
// is the persisted form of an already-built Graph, laid out in the
// file exactly as the Graph reads it in memory. Every index the hot
// path touches — the span-arena edge indexes, the sp/po pair tables,
// the name blob, a pointer-free name hash table replacing the byName
// map, and span-table forms of the four type/taxonomy assertion maps —
// is stored as a raw little-endian array, page-aligned, so a loader
// can mmap the file read-only and use the sections in place: "load"
// is one mmap plus demand page-in, and the pages are shared across
// every process serving the same snapshot. Graphs loaded from a
// snapshot are read-only (see Graph).
//
// Layout:
//
//	magic "DKBS" | u16 version=2 | u16 sectionCount
//	directory: sectionCount entries of 24 bytes each —
//	  u8 id | u8 flags (1 = raw/mmap-eligible) | u16 reserved |
//	  u32 CRC-32C(payload) | u64 absolute offset | u64 length
//	payloads; raw sections start on a snapPageSize boundary
//	(padding bytes are zero and excluded from the CRC)
//
// Version 1, a compact varint layout decoded into rebuilt maps, is no
// longer read: loaders reject it with ErrSnapshotV1.
//
// Raw sections are little-endian on every host. Two read paths use
// them in place on little-endian hosts: LoadSnapshotFile mmaps the
// file (where the platform supports it), and LoadSnapshot reads any
// io.Reader into one heap buffer, verifies every section checksum,
// and casts the sections inside that buffer. Big-endian hosts decode
// the sections into heap slices instead (decodeSections).
//
// The encoding is canonical: arenas are rewritten in ascending key
// order with ascending values and exact capacities (no dead ranges
// from incremental growth), so the same graph content always
// serializes to identical bytes regardless of construction order —
// `kbtool pack` is deterministic, which CI verifies.
//
// Trust model: the mmap path checksums only the small varint sections
// it must decode (counts, preds) and bounds-checks every span table
// against its arena, so a corrupt file fails the load or panics on a
// bounds check rather than reading wild memory — but it does not CRC
// the big arenas (touching every page would defeat the ~0ms load).
// Deploy pipelines should run `kbtool verify` (which uses the fully
// checksummed LoadSnapshot path) before promoting a snapshot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"unsafe"
)

const snapshotMagic = "DKBS"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotV1 reports a DKBS version 1 file, a layout this build no
// longer reads.
var ErrSnapshotV1 = errors.New("kb: DKBS version 1 snapshot is no longer supported; re-pack it from the N-Triples source with `kbtool pack`")

// ErrCorruptSnapshot matches (via errors.Is) every error that reports
// bytes which are not a well-formed DKBS v2 snapshot: bad magic, an
// unknown version, a damaged directory, a checksum mismatch, or a
// section that fails its structural bounds. Read failures of the
// underlying source are reported as they are, not as corruption.
var ErrCorruptSnapshot = errors.New("kb: corrupt snapshot")

// corruptError is a malformed-input error; it matches its kind,
// ErrCorruptSnapshot or ErrCorruptDelta.
type corruptError struct {
	msg  string
	kind error
}

func (e *corruptError) Error() string        { return e.msg }
func (e *corruptError) Is(target error) bool { return target == e.kind }

func corruptf(format string, args ...any) error {
	return &corruptError{fmt.Sprintf(format, args...), ErrCorruptSnapshot}
}

// SnapshotVersion2 is the format version written by WriteSnapshotV2,
// the only version this build reads.
const SnapshotVersion2 = 2

// snapPageSize is the alignment raw sections are padded to — the
// page size mmap guarantees, on every platform this serves.
const snapPageSize = 4096

// v2 section IDs.
const (
	sec2Counts      byte = iota + 1 // varint: every count the loader needs
	sec2Preds                       // varint: sorted predicate IDs, delta-encoded
	sec2NameBytes                   // raw: concatenated name bytes
	sec2NameOffs                    // raw: u32 × (numNodes+1) name boundaries
	sec2NameTab                     // raw: nameSlot × nameTabSize
	sec2Kinds                       // raw: u8 × numNodes
	sec2TypeSpans                   // raw: pairSpan × numNodes (instance -> classes)
	sec2TypeIDs                     // raw: ID arena for sec2TypeSpans
	sec2InstOfSpans                 // raw: pairSpan × numNodes (class -> instances)
	sec2InstOfIDs
	sec2SuperSpans // raw: pairSpan × numNodes (class -> superclasses)
	sec2SuperIDs
	sec2SubSpans // raw: pairSpan × numNodes (class -> subclasses)
	sec2SubIDs
	sec2OutSpans // raw: pairSpan × numNodes (subject -> edges)
	sec2OutEdges // raw: Edge × tripleCount
	sec2InSpans  // raw: pairSpan × numNodes (object -> edges)
	sec2InEdges  // raw: Edge × tripleCount
	sec2SPKeys   // raw: u64 × spTabSize (subject,pred pair table)
	sec2SPSpans  // raw: pairSpan × spTabSize
	sec2SPIDs    // raw: ID × tripleCount
	sec2POKeys   // raw: u64 × poTabSize (pred,object pair table)
	sec2POSpans  // raw: pairSpan × poTabSize
	sec2POIDs    // raw: ID × tripleCount
	sec2Max
)

const dirEntryLen = 24

// hostLittleEndian gates the in-place cast path; big-endian hosts use
// the portable decoder.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping pins the mmap'd bytes a snapshot-backed graph reads from.
// Mappings are deliberately never unmapped: name strings and arena
// views handed out by the graph (repair results, memo entries, cached
// candidates) may outlive the Graph itself, and the pages are clean
// file-backed memory the kernel reclaims under pressure anyway, so
// retiring a graph costs only virtual address space.
type mapping struct {
	path string
	data []byte
}

// Mapped reports whether the graph reads its arenas from an mmap'd
// snapshot file.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// v2Counts is the decoded counts section.
type v2Counts struct {
	numNodes                    int
	literalClass                ID
	tripleCount                 int
	gen                         int64
	numPreds                    int
	nameByteLen                 int
	nameTabSize                 int
	typeKeys, typeIDsLen        int
	instOfKeys, instOfIDsLen    int
	superKeys, superIDsLen      int
	subKeys, subIDsLen          int
	spTabSize, spUsed, spIDsLen int
	poTabSize, poUsed, poIDsLen int
}

func (c *v2Counts) fields() []struct {
	name string
	v    *int
} {
	return []struct {
		name string
		v    *int
	}{
		{"numPreds", &c.numPreds},
		{"nameByteLen", &c.nameByteLen},
		{"nameTabSize", &c.nameTabSize},
		{"typeKeys", &c.typeKeys}, {"typeIDsLen", &c.typeIDsLen},
		{"instOfKeys", &c.instOfKeys}, {"instOfIDsLen", &c.instOfIDsLen},
		{"superKeys", &c.superKeys}, {"superIDsLen", &c.superIDsLen},
		{"subKeys", &c.subKeys}, {"subIDsLen", &c.subIDsLen},
		{"spTabSize", &c.spTabSize}, {"spUsed", &c.spUsed}, {"spIDsLen", &c.spIDsLen},
		{"poTabSize", &c.poTabSize}, {"poUsed", &c.poUsed}, {"poIDsLen", &c.poIDsLen},
	}
}

// ---------------------------------------------------------------------------
// Writer

// WriteSnapshotV2 writes g in the DKBS v2 snapshot format. The output
// is canonical: the same graph content always yields identical bytes.
func (g *Graph) WriteSnapshotV2(w io.Writer) error {
	numNodes := g.NumNodes()

	// Name storage: blob + offsets + the open-addressing name table,
	// inserted in ID order so slot placement is deterministic.
	nameOffs := make([]uint32, numNodes+1)
	blobLen := 0
	for i := 0; i < numNodes; i++ {
		blobLen += len(g.Name(ID(i)))
	}
	blob := make([]byte, 0, blobLen)
	ntab := newNameTable(numNodes)
	for i := 0; i < numNodes; i++ {
		name := g.Name(ID(i))
		nameOffs[i] = uint32(len(blob))
		blob = append(blob, name...)
		ntab.insert(name, ID(i))
	}
	nameOffs[numNodes] = uint32(len(blob))

	kinds := make([]byte, numNodes)
	for i, k := range g.kinds {
		kinds[i] = byte(k)
	}

	// Assertion indexes in canonical span-table form, with the two
	// inverses derived from the forward sets so the four can never
	// disagree.
	typeSpans, typeIDs, typeKeys := canonIDList(numNodes, g.forEachTyped)
	instSpans, instIDs, instKeys := invertIDList(numNodes, typeSpans, typeIDs)
	superSpans, superIDs, superKeys := canonIDList(numNodes, g.forEachSubclassed)
	subSpans, subIDs, subKeys := invertIDList(numNodes, superSpans, superIDs)

	outSpans, outEdges := canonEdges(&g.out, numNodes)
	inSpans, inEdges := canonEdges(&g.in, numNodes)

	spKeys, spSpans, spIDs, spUsed := canonPairTable(g.sp)
	poKeys, poSpans, poIDs, poUsed := canonPairTable(g.po)

	counts := make([]byte, 0, 32*binary.MaxVarintLen64)
	c := v2Counts{
		numNodes: numNodes, literalClass: g.literalClass,
		tripleCount: g.tripleCount, gen: g.gen,
		numPreds: len(g.preds), nameByteLen: len(blob), nameTabSize: len(ntab.slots),
		typeKeys: typeKeys, typeIDsLen: len(typeIDs),
		instOfKeys: instKeys, instOfIDsLen: len(instIDs),
		superKeys: superKeys, superIDsLen: len(superIDs),
		subKeys: subKeys, subIDsLen: len(subIDs),
		spTabSize: len(spKeys), spUsed: spUsed, spIDsLen: len(spIDs),
		poTabSize: len(poKeys), poUsed: poUsed, poIDsLen: len(poIDs),
	}
	for _, v := range []uint64{
		uint64(c.numNodes), uint64(c.literalClass), uint64(c.tripleCount), uint64(c.gen),
	} {
		counts = binary.AppendUvarint(counts, v)
	}
	for _, f := range c.fields() {
		counts = binary.AppendUvarint(counts, uint64(*f.v))
	}

	preds := g.Predicates()
	pb := binary.AppendUvarint(nil, uint64(len(preds)))
	prev := ID(0)
	for i, p := range preds {
		if i == 0 {
			pb = binary.AppendUvarint(pb, uint64(p))
		} else {
			pb = binary.AppendUvarint(pb, uint64(p-prev))
		}
		prev = p
	}

	sections := []v2Section{
		{sec2Counts, false, counts},
		{sec2Preds, false, pb},
		{sec2NameBytes, true, blob},
		{sec2NameOffs, true, appendU32s(nil, nameOffs)},
		{sec2NameTab, true, appendSlots(nil, ntab.slots)},
		{sec2Kinds, true, kinds},
		{sec2TypeSpans, true, appendSpans(nil, typeSpans)},
		{sec2TypeIDs, true, appendIDs(nil, typeIDs)},
		{sec2InstOfSpans, true, appendSpans(nil, instSpans)},
		{sec2InstOfIDs, true, appendIDs(nil, instIDs)},
		{sec2SuperSpans, true, appendSpans(nil, superSpans)},
		{sec2SuperIDs, true, appendIDs(nil, superIDs)},
		{sec2SubSpans, true, appendSpans(nil, subSpans)},
		{sec2SubIDs, true, appendIDs(nil, subIDs)},
		{sec2OutSpans, true, appendSpans(nil, outSpans)},
		{sec2OutEdges, true, appendEdges(nil, outEdges)},
		{sec2InSpans, true, appendSpans(nil, inSpans)},
		{sec2InEdges, true, appendEdges(nil, inEdges)},
		{sec2SPKeys, true, appendU64s(nil, spKeys)},
		{sec2SPSpans, true, appendSpans(nil, spSpans)},
		{sec2SPIDs, true, appendIDs(nil, spIDs)},
		{sec2POKeys, true, appendU64s(nil, poKeys)},
		{sec2POSpans, true, appendSpans(nil, poSpans)},
		{sec2POIDs, true, appendIDs(nil, poIDs)},
	}
	return writeV2(w, sections)
}

type v2Section struct {
	id      byte
	raw     bool
	payload []byte
}

func writeV2(w io.Writer, sections []v2Section) error {
	// Lay out: header, directory, then payloads with raw sections
	// padded up to the next page boundary.
	hdrLen := len(snapshotMagic) + 4 + dirEntryLen*len(sections)
	off := int64(hdrLen)
	offsets := make([]int64, len(sections))
	for i, s := range sections {
		if s.raw {
			off = alignUp(off, snapPageSize)
		}
		offsets[i] = off
		off += int64(len(s.payload))
	}

	hdr := make([]byte, 0, hdrLen)
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, SnapshotVersion2)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(sections)))
	for i, s := range sections {
		var flags byte
		if s.raw {
			flags = 1
		}
		hdr = append(hdr, s.id, flags, 0, 0)
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(s.payload, crcTable))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(offsets[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.payload)))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	pos := int64(hdrLen)
	var pad [snapPageSize]byte
	for i, s := range sections {
		if gap := offsets[i] - pos; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
			pos += gap
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		pos += int64(len(s.payload))
	}
	return nil
}

func alignUp(v, align int64) int64 {
	return (v + align - 1) &^ (align - 1)
}

// canonIDList builds the canonical span-table form of an ID -> []ID
// association: dense spans over every node, values sorted ascending,
// packed back to back with exact capacities.
func canonIDList(numNodes int, forEach func(func(ID, []ID))) (spans []pairSpan, arena []ID, keys int) {
	lists := make([][]ID, numNodes)
	forEach(func(k ID, vals []ID) { lists[k] = vals })
	spans = make([]pairSpan, numNodes)
	for k, vals := range lists {
		if len(vals) == 0 {
			continue
		}
		keys++
		cp := append([]ID(nil), vals...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		spans[k] = pairSpan{off: uint32(len(arena)), n: uint32(len(cp)), cap: uint32(len(cp))}
		arena = append(arena, cp...)
	}
	return spans, arena, keys
}

// invertIDList derives the inverse association (value -> keys) of a
// canonical span table. Iterating keys in ascending order makes every
// inverse list ascending without a sort.
func invertIDList(numNodes int, spans []pairSpan, arena []ID) (inv []pairSpan, invArena []ID, keys int) {
	counts := make([]uint32, numNodes)
	for _, s := range spans {
		for _, v := range arena[s.off : s.off+s.n] {
			counts[v]++
		}
	}
	inv = make([]pairSpan, numNodes)
	total := uint32(0)
	for v, n := range counts {
		if n == 0 {
			continue
		}
		keys++
		inv[v] = pairSpan{off: total, cap: n} // n grows as we fill
		total += n
	}
	invArena = make([]ID, total)
	for k := range spans {
		s := spans[k]
		for _, v := range arena[s.off : s.off+s.n] {
			sp := &inv[v]
			invArena[sp.off+sp.n] = ID(k)
			sp.n++
		}
	}
	return inv, invArena, keys
}

// canonEdges rebuilds an edge index as a dense, dead-range-free arena
// with every edge list sorted by (Pred, To).
func canonEdges(x *edgeIndex, numNodes int) (spans []pairSpan, edges []Edge) {
	spans = make([]pairSpan, numNodes)
	var scratch []Edge
	for k := 0; k < numNodes; k++ {
		es := x.view(ID(k))
		if len(es) == 0 {
			continue
		}
		scratch = append(scratch[:0], es...)
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].Pred != scratch[j].Pred {
				return scratch[i].Pred < scratch[j].Pred
			}
			return scratch[i].To < scratch[j].To
		})
		spans[k] = pairSpan{off: uint32(len(edges)), n: uint32(len(scratch)), cap: uint32(len(scratch))}
		edges = append(edges, scratch...)
	}
	return spans, edges
}

// canonPairTable rebuilds a pair table canonically: keys inserted in
// ascending order (deterministic slot placement), values sorted
// ascending, arena packed with no dead ranges.
func canonPairTable(t *pairTable) (keys []uint64, spans []pairSpan, ids []ID, used int) {
	nt := flattenPairTable(t)
	return nt.keys, nt.spans, nt.ids, nt.used
}

// flattenPairTable rebuilds t (flat or COW overlay chain) as a single
// canonical flat table.
func flattenPairTable(t *pairTable) *pairTable {
	ks := make([]uint64, 0, t.len())
	total := 0
	t.forEachKey(func(k uint64) {
		ks = append(ks, k)
		total += len(t.get(k))
	})
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	nt := newPairTable(len(ks), total)
	var vals []ID
	for _, k := range ks {
		vals = append(vals[:0], t.get(k)...)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		nt.put(k, vals)
	}
	return nt
}

// Raw little-endian serializers. The writer always emits LE so files
// are portable; readers cast in place only on LE hosts.

func appendU32s(b []byte, v []uint32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

func appendU64s(b []byte, v []uint64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func appendSpans(b []byte, v []pairSpan) []byte {
	for _, s := range v {
		b = binary.LittleEndian.AppendUint32(b, s.off)
		b = binary.LittleEndian.AppendUint32(b, s.n)
		b = binary.LittleEndian.AppendUint32(b, s.cap)
	}
	return b
}

func appendEdges(b []byte, v []Edge) []byte {
	for _, e := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Pred))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.To))
	}
	return b
}

func appendIDs(b []byte, v []ID) []byte {
	for _, id := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

func appendSlots(b []byte, v []nameSlot) []byte {
	for _, s := range v {
		b = binary.LittleEndian.AppendUint64(b, s.hash)
		b = binary.LittleEndian.AppendUint32(b, s.idPlus1)
		b = binary.LittleEndian.AppendUint32(b, 0)
	}
	return b
}

// ---------------------------------------------------------------------------
// Directory

type dirEntry struct {
	id    byte
	flags byte
	crc   uint32
	off   int64
	n     int64
}

func (e dirEntry) raw() bool { return e.flags&1 != 0 }

// checkHeader validates the 8-byte file header (hdr may be shorter
// when the source ended early) and returns the directory's section
// count.
func checkHeader(hdr []byte) (int, error) {
	if len(hdr) < len(snapshotMagic) || string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return 0, corruptf("kb: bad snapshot magic (not a KB snapshot)")
	}
	if len(hdr) < 8 {
		return 0, corruptf("kb: snapshot truncated in the header")
	}
	switch v := binary.LittleEndian.Uint16(hdr[4:6]); v {
	case SnapshotVersion2:
	case 1:
		return 0, ErrSnapshotV1
	default:
		return 0, corruptf("kb: unsupported snapshot version %d (this build reads version %d)", v, SnapshotVersion2)
	}
	n := int(binary.LittleEndian.Uint16(hdr[6:8]))
	if n == 0 || n > 64 {
		return 0, corruptf("kb: snapshot directory has implausible section count %d", n)
	}
	return n, nil
}

// parseV2Directory validates the header and returns the section
// directory keyed by section ID. size bounds every entry.
func parseV2Directory(hdr []byte, size int64) (map[byte]dirEntry, error) {
	n, err := checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	if len(hdr) < 8+n*dirEntryLen {
		return nil, corruptf("kb: snapshot truncated in the section directory")
	}
	dir := make(map[byte]dirEntry, n)
	for i := 0; i < n; i++ {
		b := hdr[8+i*dirEntryLen:]
		e := dirEntry{
			id:    b[0],
			flags: b[1],
			crc:   binary.LittleEndian.Uint32(b[4:8]),
			off:   int64(binary.LittleEndian.Uint64(b[8:16])),
			n:     int64(binary.LittleEndian.Uint64(b[16:24])),
		}
		if e.off < 0 || e.n < 0 || e.off > size || e.n > size-e.off {
			return nil, corruptf("kb: snapshot section %d out of bounds (off %d, len %d, file %d)", e.id, e.off, e.n, size)
		}
		if e.id >= sec2Counts && e.id < sec2Max && e.raw() != (e.id >= sec2NameBytes) {
			// The raw flag is what guarantees alignment, and raw
			// sections are cast in place.
			return nil, corruptf("kb: snapshot section %d has the wrong storage flag %d", e.id, e.flags)
		}
		if e.raw() && e.off%snapPageSize != 0 {
			return nil, corruptf("kb: snapshot raw section %d not page-aligned (offset %d)", e.id, e.off)
		}
		if _, dup := dir[e.id]; dup {
			return nil, corruptf("kb: duplicate snapshot section %d", e.id)
		}
		dir[e.id] = e
	}
	for id := byte(sec2Counts); id < sec2Max; id++ {
		if _, ok := dir[id]; !ok {
			return nil, corruptf("kb: snapshot section %d missing", id)
		}
	}
	return dir, nil
}

func decodeV2Counts(payload []byte) (*v2Counts, error) {
	var c v2Counts
	vr := varintReader{b: payload}
	get := func(name string) (uint64, error) {
		v, err := vr.uvarint()
		if err != nil {
			return 0, corruptf("kb: snapshot counts (%s): %v", name, err)
		}
		return v, nil
	}
	v, err := get("numNodes")
	if err != nil {
		return nil, err
	}
	c.numNodes = int(v)
	if v, err = get("literalClass"); err != nil {
		return nil, err
	}
	c.literalClass = ID(v)
	if v, err = get("tripleCount"); err != nil {
		return nil, err
	}
	c.tripleCount = int(v)
	if v, err = get("generation"); err != nil {
		return nil, err
	}
	c.gen = int64(v)
	for _, f := range c.fields() {
		if v, err = get(f.name); err != nil {
			return nil, err
		}
		*f.v = int(v)
	}
	if c.numNodes <= 0 || int(c.literalClass) >= c.numNodes {
		return nil, corruptf("kb: snapshot counts: literal class %d out of range of %d nodes", c.literalClass, c.numNodes)
	}
	if c.spIDsLen != c.tripleCount || c.poIDsLen != c.tripleCount {
		return nil, corruptf("kb: snapshot counts: pair arenas (%d, %d) disagree with triple count %d", c.spIDsLen, c.poIDsLen, c.tripleCount)
	}
	for _, tab := range []struct {
		name       string
		size, used int
	}{{"name table", c.nameTabSize, c.numNodes}, {"sp table", c.spTabSize, c.spUsed}, {"po table", c.poTabSize, c.poUsed}} {
		if tab.size < 8 || tab.size&(tab.size-1) != 0 {
			return nil, corruptf("kb: snapshot counts: %s size %d is not a power of two", tab.name, tab.size)
		}
		if 4*tab.used > 3*tab.size {
			return nil, corruptf("kb: snapshot counts: %s overfull (%d entries in %d slots)", tab.name, tab.used, tab.size)
		}
	}
	return &c, nil
}

// ---------------------------------------------------------------------------
// Read paths

// allSections lists every section ID, in directory order.
var allSections = func() []byte {
	ids := make([]byte, 0, sec2Max-1)
	for id := byte(sec2Counts); id < sec2Max; id++ {
		ids = append(ids, id)
	}
	return ids
}()

// LoadSnapshot reads a DKBS v2 snapshot from r. The header and
// directory are read first, so the body then arrives in one buffer,
// starting at file byte 0, whose length the directory gives. Every
// section checksum and structural bound is verified before a graph
// escapes: corrupt bytes yield an error matching ErrCorruptSnapshot,
// a v1 file ErrSnapshotV1. On little-endian hosts the raw sections are
// then used in place inside that buffer, as the mmap path uses file
// pages; the page-aligned section offsets keep every cast aligned.
// The returned graph is read-only.
func LoadSnapshot(r io.Reader) (*Graph, error) {
	data, dir, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	cast := decodeSections
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0 {
		cast = castSections
	}
	return newSnapshotGraph(data, dir, allSections, cast)
}

// readSnapshot reads a whole snapshot from r into one buffer and
// returns it with its directory. The directory's sizes are not trusted
// with memory: unless r reports how many bytes it holds, the buffer
// grows by doubling as bytes arrive, so a directory that claims a
// terabyte costs at most about twice what r actually delivered.
func readSnapshot(r io.Reader) ([]byte, map[byte]dirEntry, error) {
	avail := remaining(r)
	size := int64(math.MaxInt64)
	if avail >= 0 {
		size = avail
	}
	head, dir, err := readDirectory(r, size)
	if err != nil {
		return nil, nil, err
	}
	end := int64(len(head))
	for _, e := range dir {
		end = max(end, e.off+e.n)
	}

	buf := head
	for int64(len(buf)) < end {
		next := end
		if avail < 0 {
			next = min(end, max(2*int64(len(buf)), 64<<10))
		}
		grown := make([]byte, next)
		copy(grown, buf)
		k, err := io.ReadFull(r, grown[len(buf):])
		buf = grown[:len(buf)+k]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The directory promised more bytes than r holds; report
			// the section the true size leaves out of bounds.
			if _, derr := parseV2Directory(head, int64(len(buf))); derr != nil {
				return nil, nil, derr
			}
			return nil, nil, corruptf("kb: snapshot truncated at %d bytes", len(buf))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("kb: reading snapshot: %w", err)
		}
	}
	return buf, dir, nil
}

// readDirectory reads the header and section directory from r and
// parses the directory against size, the most bytes the snapshot can
// span.
func readDirectory(r io.Reader, size int64) ([]byte, map[byte]dirEntry, error) {
	var hdr [8]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, nil, fmt.Errorf("kb: reading snapshot: %w", err)
	}
	count, err := checkHeader(hdr[:n])
	if err != nil {
		return nil, nil, err
	}
	head := make([]byte, 8+count*dirEntryLen)
	copy(head, hdr[:])
	if _, err := io.ReadFull(r, head[8:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, corruptf("kb: snapshot truncated in the section directory")
		}
		return nil, nil, fmt.Errorf("kb: reading snapshot: %w", err)
	}
	dir, err := parseV2Directory(head, size)
	return head, dir, err
}

// remaining reports how many unread bytes r holds when it can say so
// cheaply — in-memory readers (bytes.Reader, bytes.Buffer,
// strings.Reader) and regular files — and -1 otherwise.
func remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		st, err := r.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return -1
		}
		pos, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return st.Size() - pos
	}
	return -1
}

// newSnapshotGraph builds a read-only graph over the snapshot held in
// data, whose sections dir locates. The sections listed in checked are
// CRC-verified first; cast selects how raw sections become typed
// slices.
func newSnapshotGraph(data []byte, dir map[byte]dirEntry, checked []byte, cast *sectionCaster) (*Graph, error) {
	section := func(id byte) []byte {
		e := dir[id]
		return data[e.off : e.off+e.n]
	}
	for _, id := range checked {
		if got, want := crc32.Checksum(section(id), crcTable), dir[id].crc; got != want {
			return nil, corruptf("kb: snapshot section %d checksum mismatch (corrupt): got %08x, want %08x", id, got, want)
		}
	}
	c, err := decodeV2Counts(section(sec2Counts))
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	if err := g.initV2(c, section, cast); err != nil {
		return nil, err
	}
	return g, nil
}

// loadSnapshotMapped is the mmap read path: the raw sections are used
// in place as file pages. Only the varint sections are checksummed;
// span tables are bounds-checked against their arenas so a corrupt
// file cannot index outside the mapping.
func loadSnapshotMapped(f *os.File, path string) (*Graph, error) {
	// Check the header before mapping: mappings are never unmapped,
	// so a file that is not a snapshot must not get one.
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("kb: reading snapshot header: %w", err)
	}
	if _, err := checkHeader(hdr[:]); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	data, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("kb: mmap %s: %w", path, err)
	}
	dir, err := parseV2Directory(data, size)
	if err != nil {
		return nil, err
	}
	g, err := newSnapshotGraph(data, dir, []byte{sec2Counts, sec2Preds}, castSections)
	if err != nil {
		return nil, err
	}
	g.mapped = &mapping{path: path, data: data}
	return g, nil
}

// sectionCaster turns a raw section's bytes into typed slices either
// by in-place cast (castSections, LE hosts) or by portable elementwise
// decode (decodeSections).
type sectionCaster struct {
	u32s  func([]byte) []uint32
	u64s  func([]byte) []uint64
	spans func([]byte) []pairSpan
	edges func([]byte) []Edge
	ids   func([]byte) []ID
	slots func([]byte) []nameSlot
	kinds func([]byte) []Kind
	blob  func([]byte) string
}

// castSections reinterprets raw LE sections in place — valid only on
// little-endian hosts over page-aligned bytes (an mmap'd file, or a
// LoadSnapshot buffer that is at least 8-byte aligned).
var castSections = &sectionCaster{
	u32s:  castSlice[uint32],
	u64s:  castSlice[uint64],
	spans: castSlice[pairSpan],
	edges: castSlice[Edge],
	ids:   castSlice[ID],
	slots: castSlice[nameSlot],
	kinds: castSlice[Kind],
	blob: func(b []byte) string {
		if len(b) == 0 {
			return ""
		}
		return unsafe.String(&b[0], len(b))
	},
}

// decodeSections is the portable caster: heap copies, explicit LE.
var decodeSections = &sectionCaster{
	u32s: func(b []byte) []uint32 {
		out := make([]uint32, len(b)/4)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		return out
	},
	u64s: func(b []byte) []uint64 {
		out := make([]uint64, len(b)/8)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return out
	},
	spans: func(b []byte) []pairSpan {
		out := make([]pairSpan, len(b)/12)
		for i := range out {
			out[i] = pairSpan{
				off: binary.LittleEndian.Uint32(b[12*i:]),
				n:   binary.LittleEndian.Uint32(b[12*i+4:]),
				cap: binary.LittleEndian.Uint32(b[12*i+8:]),
			}
		}
		return out
	},
	edges: func(b []byte) []Edge {
		out := make([]Edge, len(b)/8)
		for i := range out {
			out[i] = Edge{
				Pred: ID(binary.LittleEndian.Uint32(b[8*i:])),
				To:   ID(binary.LittleEndian.Uint32(b[8*i+4:])),
			}
		}
		return out
	},
	ids: func(b []byte) []ID {
		out := make([]ID, len(b)/4)
		for i := range out {
			out[i] = ID(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	},
	slots: func(b []byte) []nameSlot {
		out := make([]nameSlot, len(b)/16)
		for i := range out {
			out[i] = nameSlot{
				hash:    binary.LittleEndian.Uint64(b[16*i:]),
				idPlus1: binary.LittleEndian.Uint32(b[16*i+8:]),
			}
		}
		return out
	},
	kinds: func(b []byte) []Kind {
		out := make([]Kind, len(b))
		for i, v := range b {
			out[i] = Kind(v)
		}
		return out
	},
	blob: func(b []byte) string { return string(b) },
}

// castSlice reinterprets b as a []T without copying. b must be
// aligned for T and its length a multiple of T's size — guaranteed by
// the page alignment the directory parser enforces, the buffer
// alignment LoadSnapshot checks, and the length checks in initV2.
func castSlice[T any](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// initV2 populates g from v2 sections. section returns a section's
// (CRC-verified or mmap'd) payload. Every span table is bounds-checked
// against its arena so later reads stay inside the section, whichever
// backing is in use.
func (g *Graph) initV2(c *v2Counts, section func(byte) []byte, cast *sectionCaster) error {
	want := func(id byte, bytes int) ([]byte, error) {
		p := section(id)
		if len(p) != bytes {
			return nil, corruptf("kb: snapshot section %d: got %d bytes, counts say %d", id, len(p), bytes)
		}
		return p, nil
	}

	// Names.
	bp, err := want(sec2NameBytes, c.nameByteLen)
	if err != nil {
		return err
	}
	op, err := want(sec2NameOffs, 4*(c.numNodes+1))
	if err != nil {
		return err
	}
	tp, err := want(sec2NameTab, 16*c.nameTabSize)
	if err != nil {
		return err
	}
	g.nameBlob = cast.blob(bp)
	g.nameOffs = cast.u32s(op)
	g.nameTab = nameTable{slots: cast.slots(tp), shift: 64 - log2(c.nameTabSize)}
	prevOff := uint32(0)
	for i, o := range g.nameOffs {
		if o < prevOff || o > uint32(c.nameByteLen) {
			return corruptf("kb: snapshot name offsets: entry %d (%d) out of order or out of range", i, o)
		}
		prevOff = o
	}
	if g.nameOffs[c.numNodes] != uint32(c.nameByteLen) {
		return corruptf("kb: snapshot name offsets: final offset %d != name bytes %d", g.nameOffs[c.numNodes], c.nameByteLen)
	}
	occupied := 0
	for i, s := range g.nameTab.slots {
		if s.idPlus1 == 0 {
			continue
		}
		occupied++
		if int(s.idPlus1) > c.numNodes {
			return corruptf("kb: snapshot name table: slot %d holds ID %d, out of range", i, s.idPlus1-1)
		}
	}
	if occupied != c.numNodes {
		return corruptf("kb: snapshot name table: %d occupied slots for %d nodes", occupied, c.numNodes)
	}

	// Kinds.
	kp, err := want(sec2Kinds, c.numNodes)
	if err != nil {
		return err
	}
	g.kinds = cast.kinds(kp)
	for i, k := range g.kinds {
		if k > KindLiteral {
			return corruptf("kb: snapshot kinds: node %d has invalid kind %d", i, k)
		}
	}

	// Assertion span tables.
	loadIdx := func(spanID, idsID byte, idsLen int, dst *idListIndex) error {
		sp, err := want(spanID, 12*c.numNodes)
		if err != nil {
			return err
		}
		ip, err := want(idsID, 4*idsLen)
		if err != nil {
			return err
		}
		dst.spans = cast.spans(sp)
		dst.ids = cast.ids(ip)
		return checkSpans(spanID, dst.spans, idsLen)
	}
	if err := loadIdx(sec2TypeSpans, sec2TypeIDs, c.typeIDsLen, &g.typesIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2InstOfSpans, sec2InstOfIDs, c.instOfIDsLen, &g.instOfIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2SuperSpans, sec2SuperIDs, c.superIDsLen, &g.superOfIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2SubSpans, sec2SubIDs, c.subIDsLen, &g.subOfIdx); err != nil {
		return err
	}
	g.nTypeKeys, g.nInstOfKeys = c.typeKeys, c.instOfKeys
	g.nSuperKeys, g.nSubKeys = c.superKeys, c.subKeys

	// Edge indexes.
	loadEdges := func(spanID, edgesID byte, dst *edgeIndex) error {
		sp, err := want(spanID, 12*c.numNodes)
		if err != nil {
			return err
		}
		ep, err := want(edgesID, 8*c.tripleCount)
		if err != nil {
			return err
		}
		dst.spans = cast.spans(sp)
		dst.edges = cast.edges(ep)
		return checkSpans(spanID, dst.spans, c.tripleCount)
	}
	if err := loadEdges(sec2OutSpans, sec2OutEdges, &g.out); err != nil {
		return err
	}
	if err := loadEdges(sec2InSpans, sec2InEdges, &g.in); err != nil {
		return err
	}

	// Pair tables.
	loadPair := func(keysID, spansID, idsID byte, size, used, idsLen int) (*pairTable, error) {
		kp, err := want(keysID, 8*size)
		if err != nil {
			return nil, err
		}
		sp, err := want(spansID, 12*size)
		if err != nil {
			return nil, err
		}
		ip, err := want(idsID, 4*idsLen)
		if err != nil {
			return nil, err
		}
		t := &pairTable{
			keys:  cast.u64s(kp),
			spans: cast.spans(sp),
			ids:   cast.ids(ip),
			used:  used,
			shift: 64 - log2(size),
		}
		nonzero := 0
		for i, k := range t.keys {
			if k == 0 {
				continue
			}
			nonzero++
			s := t.spans[i]
			if int(s.off)+int(s.n) > idsLen || s.cap < s.n {
				return nil, corruptf("kb: snapshot section %d: slot %d span out of range", spansID, i)
			}
		}
		if nonzero != used {
			return nil, corruptf("kb: snapshot section %d: %d occupied slots, counts say %d", keysID, nonzero, used)
		}
		return t, nil
	}
	if g.sp, err = loadPair(sec2SPKeys, sec2SPSpans, sec2SPIDs, c.spTabSize, c.spUsed, c.spIDsLen); err != nil {
		return err
	}
	if g.po, err = loadPair(sec2POKeys, sec2POSpans, sec2POIDs, c.poTabSize, c.poUsed, c.poIDsLen); err != nil {
		return err
	}

	// Predicates (small; always a heap map).
	pp := section(sec2Preds)
	vr := varintReader{b: pp}
	np, err := vr.uvarint()
	if err != nil {
		return corruptf("kb: snapshot preds: %v", err)
	}
	if int(np) != c.numPreds {
		return corruptf("kb: snapshot preds: %d entries, counts say %d", np, c.numPreds)
	}
	g.preds = make(map[ID]struct{}, c.numPreds)
	var p ID
	for i := 0; i < int(np); i++ {
		d, err := vr.uvarint()
		if err != nil {
			return corruptf("kb: snapshot preds: %v", err)
		}
		if i == 0 {
			p = ID(d)
		} else {
			p += ID(d)
		}
		if int(p) >= c.numNodes {
			return corruptf("kb: snapshot preds: predicate ID %d out of range", p)
		}
		g.preds[p] = struct{}{}
	}

	g.tripleCount = c.tripleCount
	g.gen = c.gen
	g.literalClass = c.literalClass
	g.closureDirty = true
	return nil
}

// checkSpans bounds-checks a span table against its arena length so
// every later view stays inside the section.
func checkSpans(secID byte, spans []pairSpan, arenaLen int) error {
	for i, s := range spans {
		if int(s.off)+int(s.n) > arenaLen || s.cap < s.n {
			return corruptf("kb: snapshot section %d: span %d out of range of arena %d", secID, i, arenaLen)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// File loading

// LoadSnapshotFile loads a DKBS snapshot from disk. Where the platform
// supports it (Linux, little-endian) the file is mmap'd and used in
// place, making the load nearly free and the graph's memory shared
// across processes; elsewhere it goes through LoadSnapshot. Any
// mmap-path failure falls back to LoadSnapshot, whose errors are
// authoritative. (The mmap path reads with ReadAt, so the file offset
// is still 0 for the fallback.)
func LoadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if mmapSupported && hostLittleEndian {
		if g, err := loadSnapshotMapped(f, path); err == nil {
			return g, nil
		}
	}
	return LoadSnapshot(f)
}

// ---------------------------------------------------------------------------
// Inspection (kbtool info)

// SectionInfo describes one snapshot section for tooling.
type SectionInfo struct {
	ID      byte   `json:"id"`
	Name    string `json:"name"`
	Offset  int64  `json:"offset"`
	Length  int64  `json:"length"`
	CRC     uint32 `json:"crc32c"`
	Raw     bool   `json:"mmapEligible"`
	Aligned bool   `json:"pageAligned"`
}

// SnapshotInfo is the section table of a DKBS file, readable without
// decoding the graph.
type SnapshotInfo struct {
	Version  int           `json:"version"`
	FileSize int64         `json:"fileSize"`
	Sections []SectionInfo `json:"sections"`
}

var v2SectionNames = map[byte]string{
	sec2Counts: "counts", sec2Preds: "preds",
	sec2NameBytes: "nameBytes", sec2NameOffs: "nameOffs", sec2NameTab: "nameTab",
	sec2Kinds:     "kinds",
	sec2TypeSpans: "typeSpans", sec2TypeIDs: "typeIDs",
	sec2InstOfSpans: "instOfSpans", sec2InstOfIDs: "instOfIDs",
	sec2SuperSpans: "superSpans", sec2SuperIDs: "superIDs",
	sec2SubSpans: "subSpans", sec2SubIDs: "subIDs",
	sec2OutSpans: "outSpans", sec2OutEdges: "outEdges",
	sec2InSpans: "inSpans", sec2InEdges: "inEdges",
	sec2SPKeys: "spKeys", sec2SPSpans: "spSpans", sec2SPIDs: "spIDs",
	sec2POKeys: "poKeys", sec2POSpans: "poSpans", sec2POIDs: "poIDs",
}

// ReadSnapshotInfo reads a snapshot's header and section table —
// version, per-section offset/length/CRC, alignment and
// mmap-eligibility — without reading any payload, so deploy scripts
// can inspect multi-gigabyte snapshots instantly.
func ReadSnapshotInfo(path string) (*SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	_, dir, err := readDirectory(f, st.Size())
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{Version: SnapshotVersion2, FileSize: st.Size()}
	ids := make([]byte, 0, len(dir))
	for id := range dir {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return dir[ids[i]].off < dir[ids[j]].off })
	for _, id := range ids {
		e := dir[id]
		name := v2SectionNames[id]
		if name == "" {
			name = fmt.Sprintf("unknown(%d)", id)
		}
		info.Sections = append(info.Sections, SectionInfo{
			ID: id, Name: name, Offset: e.off, Length: e.n, CRC: e.crc,
			Raw: e.raw(), Aligned: e.off%snapPageSize == 0,
		})
	}
	return info, nil
}

// varintReader decodes unsigned varints from a byte slice.
type varintReader struct {
	b   []byte
	off int
}

// uvarint keeps the dominant one- and two-byte cases (IDs and counts
// below 2^14) on an inlinable fast path.
func (r *varintReader) uvarint() (uint64, error) {
	if r.off+1 < len(r.b) {
		c := r.b[r.off]
		if c < 0x80 {
			r.off++
			return uint64(c), nil
		}
		if c2 := r.b[r.off+1]; c2 < 0x80 {
			r.off += 2
			return uint64(c&0x7f) | uint64(c2)<<7, nil
		}
	}
	return r.uvarintSlow()
}

func (r *varintReader) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}
