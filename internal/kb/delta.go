package kb

// Incremental KB deltas (DKBD). Production KBs evolve by small edits;
// reloading a whole snapshot for every edit decodes (or at least maps
// and re-freezes) the full graph. A delta is the canonical difference
// between two graph contents — triples, type assertions and subclass
// edges added or removed, keyed by node *name* so it is independent of
// either graph's ID assignment — and ApplyDelta builds the next
// generation copy-on-write from the live graph: untouched structures
// (name storage, the type/taxonomy span tables, the frozen closure
// tables) are shared with the base outright, and only the edge lists and
// pair-table buckets a delta touches are rewritten. In-flight requests
// keep the generation they pinned; the generation bump invalidates
// memo and candidate caches exactly like a full swap.
//
// File format (all integers little-endian, "uv" = unsigned varint):
//
//	magic "DKBD" | u16 version=1 | u16 reserved
//	then sections (u8 id | u32 CRC-32C | u64 len | payload),
//	terminated by the end section:
//	  header    uv: baseNodes, baseTriples, baseFP, newFP
//	  names     uv count, count uv name lengths, name bytes,
//	            count kind bytes — every node any op references, sorted
//	            lexicographically, with the node's kind in the *new*
//	            graph (or the old one for nodes that only survive there)
//	  tripleDel / tripleAdd   uv count, count (uv s, uv p, uv o)
//	  typeDel   / typeAdd     uv count, count (uv inst, uv cls)
//	  subDel    / subAdd      uv count, count (uv sub, uv super)
//	  end       empty
//
// Op values are indexes into the delta's name table; op lists are
// sorted, so Diff output is byte-deterministic (CI's delta-check gate
// verifies this).
//
// Base identification is by *content fingerprint*, not generation or
// node count: the fingerprint is an order- and ID-independent sum over
// the graph's assertions, so a text-parsed graph, a snapshot read
// from a stream, an mmap'd snapshot and a delta-applied graph of equal
// content all agree on it. Node counts deliberately do not participate: applying a delta
// cannot compact nodes the new content no longer references (their IDs
// are baked into shared arenas), so an applied graph may carry orphan
// nodes — and orphaned predicate entries — that contribute nothing to
// any assertion. Chained deltas therefore keep verifying: only content
// matters.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

const (
	deltaMagic = "DKBD"
	// DeltaVersion is the format version written by Delta.Write and
	// required by ReadDelta.
	DeltaVersion = 1
)

// Delta section IDs.
const (
	dsecHeader byte = iota + 1
	dsecNames
	dsecTripleDel
	dsecTripleAdd
	dsecTypeDel
	dsecTypeAdd
	dsecSubDel
	dsecSubAdd
	dsecEnd
)

// maxDeltaOps bounds per-section op counts so a corrupt header cannot
// balloon allocations before the varint decode fails.
const maxDeltaOps = 1 << 28

// Delta is the parsed form of a DKBD file: the canonical, name-keyed
// difference between a base graph content and a new one. Op values
// index Names/Kinds.
type Delta struct {
	// BaseNodes/BaseTriples describe the graph the delta was diffed
	// against. Only BaseTriples is enforced by ApplyDelta (node counts
	// differ across equal-content graphs once orphans exist).
	BaseNodes   int
	BaseTriples int
	// BaseFP must match the live graph's Fingerprint for the delta to
	// apply; NewFP is the fingerprint the applied graph must have.
	BaseFP uint64
	NewFP  uint64

	// Names lists every node any op references, sorted; Kinds carries
	// each name's kind in the new content.
	Names []string
	Kinds []Kind

	TripleDel, TripleAdd [][3]int32 // (subject, predicate, object)
	TypeDel, TypeAdd     [][2]int32 // (instance, class)
	SubDel, SubAdd       [][2]int32 // (subclass, superclass)
}

// Ops returns the total number of assertion edits in the delta.
func (d *Delta) Ops() int {
	return len(d.TripleDel) + len(d.TripleAdd) +
		len(d.TypeDel) + len(d.TypeAdd) +
		len(d.SubDel) + len(d.SubAdd)
}

// TriplesTouched returns how many relationship/property triples the
// delta removes plus adds (the unit the delta metrics count).
func (d *Delta) TriplesTouched() int { return len(d.TripleDel) + len(d.TripleAdd) }

// String summarizes the delta for logs and tooling.
func (d *Delta) String() string {
	return fmt.Sprintf("kb.Delta{names=%d -%d/+%d triples -%d/+%d types -%d/+%d subclasses}",
		len(d.Names), len(d.TripleDel), len(d.TripleAdd),
		len(d.TypeDel), len(d.TypeAdd), len(d.SubDel), len(d.SubAdd))
}

// ---------------------------------------------------------------------------
// Content fingerprint

// fpMemo caches a computed fingerprint for one generation. The pointer
// swap is atomic so concurrent readers of a frozen graph may race to
// compute and publish it safely.
type fpMemo struct {
	gen int64
	fp  uint64
}

// Mixing constants for the per-assertion fingerprint terms (splitmix64
// finalizer over tag-chained inputs). Stable: part of the DKBD format.
const (
	fpTagTriple = 0xA24BAED4963EE407
	fpTagType   = 0x9FB21C651E98DF25
	fpTagSub    = 0xD6E8FEB86659FD93
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpTerm is one assertion's contribution: order-sensitive in (a, b, c)
// so (s,p,o) permutations differ, while the outer sum over terms is
// order-insensitive.
func fpTerm(tag, a, b, c uint64) uint64 {
	h := mix64(tag + a)
	h = mix64(h + b)
	return mix64(h + c)
}

// litBit folds the only kind distinction the canonical text encoding
// gives a triple object — literal vs node — into its term.
func litBit(k Kind) uint64 {
	if k == KindLiteral {
		return 1
	}
	return 0
}

// Fingerprint returns the graph's content fingerprint: a commutative
// sum of one mixed term per triple (with the object's literal-ness),
// per type assertion and per subclass edge, over name hashes. Graphs
// of equal canonical text content always agree regardless of storage
// form, ID assignment or construction order; orphan nodes contribute
// nothing. The result is cached per generation; computing it costs one
// pass over the graph.
func (g *Graph) Fingerprint() uint64 {
	if m := g.fp.Load(); m != nil && m.gen == g.gen {
		return m.fp
	}
	f := g.computeFingerprint()
	g.fp.Store(&fpMemo{gen: g.gen, fp: f})
	return f
}

func (g *Graph) computeFingerprint() uint64 {
	n := g.NumNodes()
	nh := make([]uint64, n)
	for i := 0; i < n; i++ {
		nh[i] = nameHash(g.Name(ID(i)))
	}
	var sum uint64
	for s := 0; s < n; s++ {
		for _, e := range g.Out(ID(s)) {
			sum += fpTerm(fpTagTriple, nh[s], nh[e.Pred], nh[e.To]+litBit(g.kinds[e.To]))
		}
	}
	g.forEachTyped(func(inst ID, classes []ID) {
		for _, c := range classes {
			sum += fpTerm(fpTagType, nh[inst], nh[c], 0)
		}
	})
	g.forEachSubclassed(func(sub ID, supers []ID) {
		for _, sup := range supers {
			sum += fpTerm(fpTagSub, nh[sub], nh[sup], 0)
		}
	})
	return sum
}

// ---------------------------------------------------------------------------
// Diff

func containsID(s []ID, v ID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Diff computes the canonical delta that transforms old's content into
// new's. The comparison is by node name, so the two graphs may use any
// storage form and any ID assignment. The output is deterministic:
// diffing the same two contents always yields identical bytes.
func Diff(old, new *Graph) *Delta {
	d := &Delta{
		BaseNodes:   old.NumNodes(),
		BaseTriples: old.NumTriples(),
		BaseFP:      old.Fingerprint(),
		NewFP:       new.Fingerprint(),
	}

	oldN, newN := old.NumNodes(), new.NumNodes()
	n2o := make([]ID, newN)
	for i := 0; i < newN; i++ {
		n2o[i] = old.Lookup(new.Name(ID(i)))
	}
	o2n := make([]ID, oldN)
	for i := 0; i < oldN; i++ {
		o2n[i] = new.Lookup(old.Name(ID(i)))
	}

	idx := make(map[string]int32, 16)
	local := func(name string, k Kind) int32 {
		if i, ok := idx[name]; ok {
			return i
		}
		i := int32(len(d.Names))
		idx[name] = i
		d.Names = append(d.Names, name)
		d.Kinds = append(d.Kinds, k)
		return i
	}
	// A name's recorded kind is its kind in the new content; names that
	// only survive in the base keep their old kind so applying the
	// delta never mutates them.
	localNew := func(id ID) int32 { return local(new.Name(id), new.kinds[id]) }
	localOld := func(id ID) int32 {
		if n := o2n[id]; n != Invalid {
			return local(old.Name(id), new.kinds[n])
		}
		return local(old.Name(id), old.kinds[id])
	}

	for s := 0; s < newN; s++ {
		for _, e := range new.Out(ID(s)) {
			os, op, oo := n2o[s], n2o[e.Pred], n2o[e.To]
			if os == Invalid || op == Invalid || oo == Invalid || !old.HasEdge(os, op, oo) {
				d.TripleAdd = append(d.TripleAdd, [3]int32{localNew(ID(s)), localNew(e.Pred), localNew(e.To)})
			}
		}
	}
	for s := 0; s < oldN; s++ {
		for _, e := range old.Out(ID(s)) {
			ns, np, no := o2n[s], o2n[e.Pred], o2n[e.To]
			if ns == Invalid || np == Invalid || no == Invalid || !new.HasEdge(ns, np, no) {
				d.TripleDel = append(d.TripleDel, [3]int32{localOld(ID(s)), localOld(e.Pred), localOld(e.To)})
			}
		}
	}

	new.forEachTyped(func(inst ID, classes []ID) {
		oi := n2o[inst]
		for _, c := range classes {
			if oc := n2o[c]; oi == Invalid || oc == Invalid || !containsID(old.directTypes(oi), oc) {
				d.TypeAdd = append(d.TypeAdd, [2]int32{localNew(inst), localNew(c)})
			}
		}
	})
	old.forEachTyped(func(inst ID, classes []ID) {
		ni := o2n[inst]
		for _, c := range classes {
			if nc := o2n[c]; ni == Invalid || nc == Invalid || !containsID(new.directTypes(ni), nc) {
				d.TypeDel = append(d.TypeDel, [2]int32{localOld(inst), localOld(c)})
			}
		}
	})
	new.forEachSubclassed(func(sub ID, supers []ID) {
		os := n2o[sub]
		for _, sup := range supers {
			if osup := n2o[sup]; os == Invalid || osup == Invalid || !containsID(old.directSupers(os), osup) {
				d.SubAdd = append(d.SubAdd, [2]int32{localNew(sub), localNew(sup)})
			}
		}
	})
	old.forEachSubclassed(func(sub ID, supers []ID) {
		ns := o2n[sub]
		for _, sup := range supers {
			if nsup := o2n[sup]; ns == Invalid || nsup == Invalid || !containsID(new.directSupers(ns), nsup) {
				d.SubDel = append(d.SubDel, [2]int32{localOld(sub), localOld(sup)})
			}
		}
	})

	// Nodes in both graphs whose kind changed, even when no assertion
	// edit references them: the name-table entry alone carries the fix.
	for i := 0; i < newN; i++ {
		if o := n2o[i]; o != Invalid && old.kinds[o] != new.kinds[i] {
			localNew(ID(i))
		}
	}

	d.canonicalize()
	return d
}

// canonicalize sorts the name table lexicographically, remaps every op
// and sorts the op lists — insertion order (which follows map
// iteration in the mutable storage form) stops mattering, making Diff
// output deterministic.
func (d *Delta) canonicalize() {
	order := make([]int32, len(d.Names))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return d.Names[order[i]] < d.Names[order[j]] })
	rank := make([]int32, len(d.Names))
	names := make([]string, len(d.Names))
	kinds := make([]Kind, len(d.Names))
	for r, o := range order {
		rank[o] = int32(r)
		names[r] = d.Names[o]
		kinds[r] = d.Kinds[o]
	}
	d.Names, d.Kinds = names, kinds
	for _, ops := range [][][3]int32{d.TripleDel, d.TripleAdd} {
		for i, t := range ops {
			ops[i] = [3]int32{rank[t[0]], rank[t[1]], rank[t[2]]}
		}
		sort.Slice(ops, func(i, j int) bool { return less3(ops[i], ops[j]) })
	}
	for _, ops := range [][][2]int32{d.TypeDel, d.TypeAdd, d.SubDel, d.SubAdd} {
		for i, t := range ops {
			ops[i] = [2]int32{rank[t[0]], rank[t[1]]}
		}
		sort.Slice(ops, func(i, j int) bool { return less2(ops[i], ops[j]) })
	}
}

func less3(a, b [3]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

func less2(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// ---------------------------------------------------------------------------
// Serialization

// Write serializes the delta in the DKBD format. Output is canonical
// for a canonicalized delta (Diff always canonicalizes).
func (d *Delta) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(deltaMagic); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], DeltaVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	h := make([]byte, 0, 6*binary.MaxVarintLen64)
	for _, v := range []uint64{uint64(d.BaseNodes), uint64(d.BaseTriples), d.BaseFP, d.NewFP} {
		h = binary.AppendUvarint(h, v)
	}
	if err := writeSection(bw, dsecHeader, h); err != nil {
		return err
	}

	nb := binary.AppendUvarint(nil, uint64(len(d.Names)))
	for _, nm := range d.Names {
		nb = binary.AppendUvarint(nb, uint64(len(nm)))
	}
	for _, nm := range d.Names {
		nb = append(nb, nm...)
	}
	for _, k := range d.Kinds {
		nb = append(nb, byte(k))
	}
	if err := writeSection(bw, dsecNames, nb); err != nil {
		return err
	}

	w3 := func(id byte, ops [][3]int32) error {
		b := binary.AppendUvarint(nil, uint64(len(ops)))
		for _, t := range ops {
			b = binary.AppendUvarint(b, uint64(t[0]))
			b = binary.AppendUvarint(b, uint64(t[1]))
			b = binary.AppendUvarint(b, uint64(t[2]))
		}
		return writeSection(bw, id, b)
	}
	w2 := func(id byte, ops [][2]int32) error {
		b := binary.AppendUvarint(nil, uint64(len(ops)))
		for _, t := range ops {
			b = binary.AppendUvarint(b, uint64(t[0]))
			b = binary.AppendUvarint(b, uint64(t[1]))
		}
		return writeSection(bw, id, b)
	}
	if err := w3(dsecTripleDel, d.TripleDel); err != nil {
		return err
	}
	if err := w3(dsecTripleAdd, d.TripleAdd); err != nil {
		return err
	}
	if err := w2(dsecTypeDel, d.TypeDel); err != nil {
		return err
	}
	if err := w2(dsecTypeAdd, d.TypeAdd); err != nil {
		return err
	}
	if err := w2(dsecSubDel, d.SubDel); err != nil {
		return err
	}
	if err := w2(dsecSubAdd, d.SubAdd); err != nil {
		return err
	}
	if err := writeSection(bw, dsecEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// sectionHeaderLen is id(1) + crc(4) + length(8).
const sectionHeaderLen = 13

// writeSection frames one DKBD section: header, then payload.
func writeSection(bw *bufio.Writer, id byte, payload []byte) error {
	var h [sectionHeaderLen]byte
	h[0] = id
	binary.LittleEndian.PutUint32(h[1:5], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(h[5:13], uint64(len(payload)))
	if _, err := bw.Write(h[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// ErrCorruptDelta matches (via errors.Is) every error that reports
// bytes which are not a well-formed DKBD delta — bad magic, an unknown
// version, a truncated, duplicated or missing section, a checksum
// mismatch, or a payload that fails its structural bounds — and a
// Delta whose name and kind tables disagree. Read failures of the
// underlying source are reported as they are, not as corruption.
var ErrCorruptDelta = errors.New("kb: corrupt delta")

func corruptDeltaf(format string, args ...any) error {
	return &corruptError{fmt.Sprintf(format, args...), ErrCorruptDelta}
}

// ReadDelta parses a DKBD delta. Every section is checksum-verified
// and every op index bounds-checked against the name table, so a
// corrupt or truncated delta fails here, with an error matching
// ErrCorruptDelta, rather than during apply.
func ReadDelta(r io.Reader) (*Delta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kb: reading delta: %w", err)
	}
	if len(data) < len(deltaMagic)+4 || string(data[:4]) != deltaMagic {
		return nil, corruptDeltaf("kb: bad delta magic (not a DKBD delta)")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != DeltaVersion {
		return nil, corruptDeltaf("kb: unsupported delta version %d (this build reads version %d)", v, DeltaVersion)
	}

	secs := make(map[byte][]byte, 9)
	crcs := make(map[byte]uint32, 9)
	off := len(deltaMagic) + 4
	sawEnd := false
	for off < len(data) {
		if len(data)-off < sectionHeaderLen {
			return nil, corruptDeltaf("kb: delta truncated in section header at offset %d", off)
		}
		id := data[off]
		crc := binary.LittleEndian.Uint32(data[off+1 : off+5])
		n := binary.LittleEndian.Uint64(data[off+5 : off+13])
		off += sectionHeaderLen
		if n > uint64(len(data)-off) {
			return nil, corruptDeltaf("kb: delta section %d truncated: need %d bytes, have %d", id, n, len(data)-off)
		}
		payload := data[off : off+int(n)]
		off += int(n)
		if id == dsecEnd {
			sawEnd = true
			break
		}
		if _, dup := secs[id]; dup {
			return nil, corruptDeltaf("kb: duplicate delta section %d", id)
		}
		secs[id] = payload
		crcs[id] = crc
	}
	if !sawEnd {
		return nil, corruptDeltaf("kb: delta truncated: end section missing")
	}
	checked := func(id byte) ([]byte, error) {
		p, ok := secs[id]
		if !ok {
			return nil, corruptDeltaf("kb: delta section %d missing", id)
		}
		if got := crc32.Checksum(p, crcTable); got != crcs[id] {
			return nil, corruptDeltaf("kb: delta section %d checksum mismatch (corrupt): got %08x, want %08x", id, got, crcs[id])
		}
		return p, nil
	}

	d := &Delta{}
	hp, err := checked(dsecHeader)
	if err != nil {
		return nil, err
	}
	hr := varintReader{b: hp}
	for _, f := range []struct {
		name string
		set  func(uint64)
	}{
		{"baseNodes", func(v uint64) { d.BaseNodes = int(v) }},
		{"baseTriples", func(v uint64) { d.BaseTriples = int(v) }},
		{"baseFP", func(v uint64) { d.BaseFP = v }},
		{"newFP", func(v uint64) { d.NewFP = v }},
	} {
		v, err := hr.uvarint()
		if err != nil {
			return nil, corruptDeltaf("kb: delta header (%s): %v", f.name, err)
		}
		f.set(v)
	}

	np, err := checked(dsecNames)
	if err != nil {
		return nil, err
	}
	nr := varintReader{b: np}
	cnt, err := nr.uvarint()
	if err != nil {
		return nil, corruptDeltaf("kb: delta names: %v", err)
	}
	if cnt > uint64(len(np)) {
		return nil, corruptDeltaf("kb: delta names: implausible count %d in %d payload bytes", cnt, len(np))
	}
	lens := make([]int, cnt)
	total := 0
	for i := range lens {
		v, err := nr.uvarint()
		if err != nil {
			return nil, corruptDeltaf("kb: delta name lengths: %v", err)
		}
		if v > uint64(len(np)) {
			return nil, corruptDeltaf("kb: delta names: entry %d claims %d bytes in a %d-byte payload", i, v, len(np))
		}
		lens[i] = int(v)
		total += int(v)
	}
	if nr.off+total+int(cnt) != len(np) {
		return nil, corruptDeltaf("kb: delta names: payload is %d bytes, layout needs %d", len(np), nr.off+total+int(cnt))
	}
	blob := string(np[nr.off : nr.off+total])
	d.Names = make([]string, cnt)
	pos := 0
	for i, n := range lens {
		d.Names[i] = blob[pos : pos+n]
		pos += n
	}
	d.Kinds = make([]Kind, cnt)
	for i, b := range np[nr.off+total:] {
		if b > byte(KindLiteral) {
			return nil, corruptDeltaf("kb: delta names: entry %d has invalid kind %d", i, b)
		}
		d.Kinds[i] = Kind(b)
	}

	r3 := func(id byte, what string) ([][3]int32, error) {
		p, err := checked(id)
		if err != nil {
			return nil, err
		}
		vr := varintReader{b: p}
		n, err := vr.uvarint()
		if err != nil {
			return nil, corruptDeltaf("kb: delta %s: %v", what, err)
		}
		if n > maxDeltaOps {
			return nil, corruptDeltaf("kb: delta %s: implausible op count %d", what, n)
		}
		if n == 0 {
			return nil, nil
		}
		ops := make([][3]int32, n)
		for i := range ops {
			for j := 0; j < 3; j++ {
				v, err := vr.uvarint()
				if err != nil {
					return nil, corruptDeltaf("kb: delta %s op %d: %v", what, i, err)
				}
				if v >= cnt {
					return nil, corruptDeltaf("kb: delta %s op %d references name %d of %d", what, i, v, cnt)
				}
				ops[i][j] = int32(v)
			}
		}
		return ops, nil
	}
	r2 := func(id byte, what string) ([][2]int32, error) {
		p, err := checked(id)
		if err != nil {
			return nil, err
		}
		vr := varintReader{b: p}
		n, err := vr.uvarint()
		if err != nil {
			return nil, corruptDeltaf("kb: delta %s: %v", what, err)
		}
		if n > maxDeltaOps {
			return nil, corruptDeltaf("kb: delta %s: implausible op count %d", what, n)
		}
		if n == 0 {
			return nil, nil
		}
		ops := make([][2]int32, n)
		for i := range ops {
			for j := 0; j < 2; j++ {
				v, err := vr.uvarint()
				if err != nil {
					return nil, corruptDeltaf("kb: delta %s op %d: %v", what, i, err)
				}
				if v >= cnt {
					return nil, corruptDeltaf("kb: delta %s op %d references name %d of %d", what, i, v, cnt)
				}
				ops[i][j] = int32(v)
			}
		}
		return ops, nil
	}
	if d.TripleDel, err = r3(dsecTripleDel, "tripleDel"); err != nil {
		return nil, err
	}
	if d.TripleAdd, err = r3(dsecTripleAdd, "tripleAdd"); err != nil {
		return nil, err
	}
	if d.TypeDel, err = r2(dsecTypeDel, "typeDel"); err != nil {
		return nil, err
	}
	if d.TypeAdd, err = r2(dsecTypeAdd, "typeAdd"); err != nil {
		return nil, err
	}
	if d.SubDel, err = r2(dsecSubDel, "subDel"); err != nil {
		return nil, err
	}
	if d.SubAdd, err = r2(dsecSubAdd, "subAdd"); err != nil {
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Copy-on-write apply

// ErrDeltaBaseMismatch reports that a delta was built against content
// that differs from the graph it is being applied to. The live graph
// is untouched.
var ErrDeltaBaseMismatch = errors.New("kb: delta base mismatch")

// ApplyDelta builds a new graph with d's edits applied, sharing every
// untouched structure with g copy-on-write: name storage, the
// type/taxonomy span tables and the frozen closure tables are reused
// outright when the delta does not touch them, span tables and arenas
// are cloned with only the touched buckets rewritten (at the arena
// tail, in canonical order), and g itself — possibly pinned by
// in-flight requests — is never mutated. The result is always in
// snapshot (read-only) storage form with a strictly larger generation.
//
// The base must match d.BaseFP (and triple count); a delta built
// against different content returns ErrDeltaBaseMismatch. Nodes whose
// every assertion is removed stay interned as orphans — they are
// unreachable from any index and do not perturb the fingerprint, so
// chained deltas keep applying.
//
// Arenas are copied, not aliased: Go slices cannot share a prefix and
// extend privately, and the base's backing arrays may be read-only
// mmap'd pages. The copies are flat memmoves (no per-element work), a
// small fraction of full-reload cost; the expensive structures — the
// name table and blob, the four assertion indexes and the closure
// tables — are the ones shared without copying on the triple-only path.
func (g *Graph) ApplyDelta(d *Delta) (*Graph, error) {
	if len(d.Kinds) != len(d.Names) {
		return nil, corruptDeltaf("kb: malformed delta: %d kinds for %d names", len(d.Kinds), len(d.Names))
	}
	if d.BaseTriples != g.NumTriples() {
		return nil, fmt.Errorf("%w: delta expects a base with %d triples, live graph has %d",
			ErrDeltaBaseMismatch, d.BaseTriples, g.NumTriples())
	}
	if fp := g.Fingerprint(); fp != d.BaseFP {
		return nil, fmt.Errorf("%w: live graph content %016x, delta built against %016x",
			ErrDeltaBaseMismatch, fp, d.BaseFP)
	}

	// Resolve delta-local names against the base; misses become new
	// node IDs appended after the base's, and kind disagreements on
	// existing nodes become kind fixes.
	n0 := g.NumNodes()
	ids := make([]ID, len(d.Names))
	var newNames []string
	var newKinds []Kind
	type kindFix struct {
		id ID
		k  Kind
	}
	var kindFixes []kindFix
	next := ID(n0)
	for i, nm := range d.Names {
		if id := g.Lookup(nm); id != Invalid {
			ids[i] = id
			if g.kinds[id] != d.Kinds[i] {
				kindFixes = append(kindFixes, kindFix{id, d.Kinds[i]})
			}
		} else {
			ids[i] = next
			next++
			newNames = append(newNames, nm)
			newKinds = append(newKinds, d.Kinds[i])
		}
	}
	nTotal := int(next)

	// Resolve ops to base-ID space and validate them against the base:
	// removals must exist, additions must not.
	opName := func(i int32) string { return d.Names[i] }
	trDel := make([][3]ID, len(d.TripleDel))
	for i, t := range d.TripleDel {
		s, p, o := ids[t[0]], ids[t[1]], ids[t[2]]
		if int(s) >= n0 || int(p) >= n0 || int(o) >= n0 || !g.HasEdge(s, p, o) {
			return nil, fmt.Errorf("%w: delta removes triple (%s, %s, %s) the base does not assert",
				ErrDeltaBaseMismatch, opName(t[0]), opName(t[1]), opName(t[2]))
		}
		trDel[i] = [3]ID{s, p, o}
	}
	trAdd := make([][3]ID, len(d.TripleAdd))
	for i, t := range d.TripleAdd {
		s, p, o := ids[t[0]], ids[t[1]], ids[t[2]]
		if int(s) < n0 && int(p) < n0 && int(o) < n0 && g.HasEdge(s, p, o) {
			return nil, fmt.Errorf("%w: delta adds triple (%s, %s, %s) the base already asserts",
				ErrDeltaBaseMismatch, opName(t[0]), opName(t[1]), opName(t[2]))
		}
		trAdd[i] = [3]ID{s, p, o}
	}
	resolve2 := func(ops [][2]int32, del bool, direct func(ID) []ID, what string) ([][2]ID, error) {
		out := make([][2]ID, len(ops))
		for i, t := range ops {
			a, b := ids[t[0]], ids[t[1]]
			present := int(a) < n0 && int(b) < n0 && containsID(direct(a), b)
			if del && !present {
				return nil, fmt.Errorf("%w: delta removes %s (%s, %s) the base does not assert",
					ErrDeltaBaseMismatch, what, opName(t[0]), opName(t[1]))
			}
			if !del && present {
				return nil, fmt.Errorf("%w: delta adds %s (%s, %s) the base already asserts",
					ErrDeltaBaseMismatch, what, opName(t[0]), opName(t[1]))
			}
			out[i] = [2]ID{a, b}
		}
		return out, nil
	}
	tyDel, err := resolve2(d.TypeDel, true, g.directTypes, "type assertion")
	if err != nil {
		return nil, err
	}
	tyAdd, err := resolve2(d.TypeAdd, false, g.directTypes, "type assertion")
	if err != nil {
		return nil, err
	}
	sbDel, err := resolve2(d.SubDel, true, g.directSupers, "subclass edge")
	if err != nil {
		return nil, err
	}
	sbAdd, err := resolve2(d.SubAdd, false, g.directSupers, "subclass edge")
	if err != nil {
		return nil, err
	}
	if err := rejectDup3(trDel, "triple removal"); err != nil {
		return nil, err
	}
	if err := rejectDup3(trAdd, "triple addition"); err != nil {
		return nil, err
	}
	for _, l := range []struct {
		ops  [][2]ID
		what string
	}{{tyDel, "type removal"}, {tyAdd, "type addition"}, {sbDel, "subclass removal"}, {sbAdd, "subclass addition"}} {
		if err := rejectDup2(l.ops, l.what); err != nil {
			return nil, err
		}
	}

	ng := &Graph{
		tripleCount:  g.tripleCount - len(trDel) + len(trAdd),
		gen:          g.gen + int64(d.Ops()) + 1,
		literalClass: g.literalClass,
		mapped:       g.mapped,
	}

	// Name storage. A snapshot-form base's blob/offsets/table (possibly
	// mmap'd file pages) are shared verbatim; delta-added nodes go into
	// a small extension — own blob, local offsets, local lookup table —
	// that Name and Lookup consult for IDs past the flat base. A chained
	// base's extension is concatenated into the new one, so the flat
	// arrays always belong to the original snapshot. A mutable base has
	// no snapshot-form name storage at all, so it is built flat once.
	if g.byName != nil {
		var sb strings.Builder
		offs := make([]uint32, nTotal+1)
		grow := blobLen(newNames)
		for _, nm := range g.names {
			grow += len(nm)
		}
		sb.Grow(grow)
		for i, nm := range g.names {
			offs[i] = uint32(sb.Len())
			sb.WriteString(nm)
		}
		offs[n0] = uint32(sb.Len())
		for i, nm := range newNames {
			sb.WriteString(nm)
			offs[n0+1+i] = uint32(sb.Len())
		}
		ng.nameBlob = sb.String()
		ng.nameOffs = offs
		ng.nameTab = newNameTable(nTotal)
		for i := 0; i < nTotal; i++ {
			ng.nameTab.insert(ng.nameBlob[offs[i]:offs[i+1]], ID(i))
		}
	} else {
		ng.nameBlob, ng.nameOffs, ng.nameTab = g.nameBlob, g.nameOffs, g.nameTab
		if len(newNames) == 0 {
			ng.nameExtBlob, ng.nameExtOffs, ng.nameExtTab = g.nameExtBlob, g.nameExtOffs, g.nameExtTab
		} else {
			extOld := 0
			if g.nameExtOffs != nil {
				extOld = len(g.nameExtOffs) - 1
			}
			var sb strings.Builder
			sb.Grow(len(g.nameExtBlob) + blobLen(newNames))
			sb.WriteString(g.nameExtBlob)
			offs := make([]uint32, extOld+len(newNames)+1)
			copy(offs, g.nameExtOffs)
			for i, nm := range newNames {
				sb.WriteString(nm)
				offs[extOld+1+i] = uint32(sb.Len())
			}
			ng.nameExtBlob = sb.String()
			ng.nameExtOffs = offs
			ng.nameExtTab = newNameTable(extOld + len(newNames))
			for i := 0; i < extOld+len(newNames); i++ {
				ng.nameExtTab.insert(ng.nameExtBlob[offs[i]:offs[i+1]], ID(i))
			}
		}
	}
	if len(newNames) == 0 && len(kindFixes) == 0 {
		ng.kinds = g.kinds
	} else {
		kinds := make([]Kind, nTotal)
		copy(kinds, g.kinds)
		copy(kinds[n0:], newKinds)
		for _, f := range kindFixes {
			kinds[f.id] = f.k
		}
		ng.kinds = kinds
	}

	// Edge indexes and pair tables: clone with only touched buckets
	// rewritten.
	outDel := make([]edgePatch, len(trDel))
	inDel := make([]edgePatch, len(trDel))
	spDel := make([]pairPatch, len(trDel))
	poDel := make([]pairPatch, len(trDel))
	for i, t := range trDel {
		outDel[i] = edgePatch{t[0], Edge{Pred: t[1], To: t[2]}}
		inDel[i] = edgePatch{t[2], Edge{Pred: t[1], To: t[0]}}
		spDel[i] = pairPatch{pairKey(t[0], t[1]), t[2]}
		poDel[i] = pairPatch{pairKey(t[1], t[2]), t[0]}
	}
	outAdd := make([]edgePatch, len(trAdd))
	inAdd := make([]edgePatch, len(trAdd))
	spAdd := make([]pairPatch, len(trAdd))
	poAdd := make([]pairPatch, len(trAdd))
	for i, t := range trAdd {
		outAdd[i] = edgePatch{t[0], Edge{Pred: t[1], To: t[2]}}
		inAdd[i] = edgePatch{t[2], Edge{Pred: t[1], To: t[0]}}
		spAdd[i] = pairPatch{pairKey(t[0], t[1]), t[2]}
		poAdd[i] = pairPatch{pairKey(t[1], t[2]), t[0]}
	}
	// The four indexes patch independently — overlay them in parallel.
	var wg sync.WaitGroup
	var outErr, inErr, spErr, poErr error
	wg.Add(4)
	go func() { defer wg.Done(); ng.out, outErr = cowPatchEdges(&g.out, nTotal, outDel, outAdd) }()
	go func() { defer wg.Done(); ng.in, inErr = cowPatchEdges(&g.in, nTotal, inDel, inAdd) }()
	go func() { defer wg.Done(); ng.sp, spErr = cowPatchPairs(g.sp, spDel, spAdd) }()
	go func() { defer wg.Done(); ng.po, poErr = cowPatchPairs(g.po, poDel, poAdd) }()
	wg.Wait()
	for _, e := range []error{outErr, inErr, spErr, poErr} {
		if e != nil {
			return nil, e
		}
	}

	// Type and taxonomy indexes: shared untouched when the delta has
	// no type/subclass edits, and so are the closures derived from
	// them (the dominant share of full-reload cost): ensureClosures
	// never rebuilds in place, and new nodes are absent from them,
	// exactly the semantics of an untyped node. Otherwise the indexes
	// are patched and the closures rebuilt on first use.
	touchTax := len(tyDel)+len(tyAdd)+len(sbDel)+len(sbAdd) > 0
	if !touchTax {
		if g.byName == nil {
			ng.typesIdx, ng.instOfIdx = g.typesIdx, g.instOfIdx
			ng.superOfIdx, ng.subOfIdx = g.superOfIdx, g.subOfIdx
		} else {
			// Mutable base: materialize the snapshot-form tables once
			// (the result graph is always snapshot-form).
			sp, ar, _ := canonIDList(n0, g.forEachTyped)
			ng.typesIdx = idListIndex{sp, ar}
			isp, iar, _ := invertIDList(n0, sp, ar)
			ng.instOfIdx = idListIndex{isp, iar}
			ssp, sar, _ := canonIDList(n0, g.forEachSubclassed)
			ng.superOfIdx = idListIndex{ssp, sar}
			bsp, bar, _ := invertIDList(n0, ssp, sar)
			ng.subOfIdx = idListIndex{bsp, bar}
		}
		ng.typeClosure, ng.instClosure, ng.closed = g.typeClosure, g.instClosure, g.closed
	} else {
		baseIdx := func(snap *idListIndex, forEach func(func(ID, []ID))) idListIndex {
			if g.byName == nil {
				return *snap
			}
			sp, ar, _ := canonIDList(n0, forEach)
			return idListIndex{sp, ar}
		}
		types := baseIdx(&g.typesIdx, g.forEachTyped)
		instOf := baseIdx(&g.instOfIdx, func(f func(ID, []ID)) {
			for k, v := range g.instOf {
				f(k, v)
			}
		})
		superOf := baseIdx(&g.superOfIdx, g.forEachSubclassed)
		subOf := baseIdx(&g.subOfIdx, func(f func(ID, []ID)) {
			for k, v := range g.subOf {
				f(k, v)
			}
		})
		if ng.typesIdx, err = cowPatchIDList(types, nTotal, fwdPatches(tyDel), fwdPatches(tyAdd)); err != nil {
			return nil, err
		}
		if ng.instOfIdx, err = cowPatchIDList(instOf, nTotal, invPatches(tyDel), invPatches(tyAdd)); err != nil {
			return nil, err
		}
		if ng.superOfIdx, err = cowPatchIDList(superOf, nTotal, fwdPatches(sbDel), fwdPatches(sbAdd)); err != nil {
			return nil, err
		}
		if ng.subOfIdx, err = cowPatchIDList(subOf, nTotal, invPatches(sbDel), invPatches(sbAdd)); err != nil {
			return nil, err
		}
	}

	preds := make(map[ID]struct{}, len(g.preds)+1)
	for p := range g.preds {
		preds[p] = struct{}{}
	}
	for _, t := range trAdd {
		preds[t[1]] = struct{}{}
	}
	ng.preds = preds

	// Verify the applied content's fingerprint incrementally against
	// the delta's promise. Kind fixes invalidate the term-by-term
	// update (a changed literal-ness alters every triple term naming
	// the node), so that rare case recomputes lazily instead.
	if len(kindFixes) == 0 {
		dnh := make([]uint64, len(d.Names))
		for i, nm := range d.Names {
			dnh[i] = nameHash(nm)
		}
		fp := d.BaseFP
		for _, t := range d.TripleDel {
			fp -= fpTerm(fpTagTriple, dnh[t[0]], dnh[t[1]], dnh[t[2]]+litBit(d.Kinds[t[2]]))
		}
		for _, t := range d.TripleAdd {
			fp += fpTerm(fpTagTriple, dnh[t[0]], dnh[t[1]], dnh[t[2]]+litBit(d.Kinds[t[2]]))
		}
		for _, t := range d.TypeDel {
			fp -= fpTerm(fpTagType, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.TypeAdd {
			fp += fpTerm(fpTagType, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.SubDel {
			fp -= fpTerm(fpTagSub, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.SubAdd {
			fp += fpTerm(fpTagSub, dnh[t[0]], dnh[t[1]], 0)
		}
		if fp != d.NewFP {
			return nil, fmt.Errorf("kb: delta apply fingerprint mismatch: applied content %016x, delta promises %016x", fp, d.NewFP)
		}
		ng.fp.Store(&fpMemo{gen: ng.gen, fp: fp})
	}
	return ng, nil
}

func blobLen(names []string) int {
	n := 0
	for _, nm := range names {
		n += len(nm)
	}
	return n
}

func rejectDup3(ops [][3]ID, what string) error {
	s := append([][3]ID(nil), ops...)
	slices.SortFunc(s, func(a, b [3]ID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		if a[1] != b[1] {
			return int(a[1]) - int(b[1])
		}
		return int(a[2]) - int(b[2])
	})
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("kb: malformed delta: duplicate %s", what)
		}
	}
	return nil
}

func rejectDup2(ops [][2]ID, what string) error {
	s := append([][2]ID(nil), ops...)
	slices.SortFunc(s, func(a, b [2]ID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("kb: malformed delta: duplicate %s", what)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Patch helpers

// edgePatch is one edge removal or addition keyed by a dense node ID.
type edgePatch struct {
	key ID
	e   Edge
}

// pairPatch is one value removal or addition under a packed pair key.
type pairPatch struct {
	k uint64
	v ID
}

// idPatch is one assertion removal or addition in an ID-list index.
type idPatch struct {
	key, val ID
}

func fwdPatches(ops [][2]ID) []idPatch {
	out := make([]idPatch, len(ops))
	for i, t := range ops {
		out[i] = idPatch{t[0], t[1]}
	}
	return out
}

func invPatches(ops [][2]ID) []idPatch {
	out := make([]idPatch, len(ops))
	for i, t := range ops {
		out[i] = idPatch{t[1], t[0]}
	}
	return out
}

// forEachGroup merge-walks two key-sorted patch lists and calls fn
// once per touched key with that key's removals and additions.
func forEachGroup[T any](del, add []T, key func(T) uint64, fn func(k uint64, dels, adds []T)) {
	di, ai := 0, 0
	for di < len(del) || ai < len(add) {
		var k uint64
		switch {
		case di >= len(del):
			k = key(add[ai])
		case ai >= len(add):
			k = key(del[di])
		case key(del[di]) < key(add[ai]):
			k = key(del[di])
		default:
			k = key(add[ai])
		}
		d0 := di
		for di < len(del) && key(del[di]) == k {
			di++
		}
		a0 := ai
		for ai < len(add) && key(add[ai]) == k {
			ai++
		}
		fn(k, del[d0:di], add[a0:ai])
	}
}

// cmpEdge orders edges canonically by (Pred, To) — the order the v2
// snapshot writer emits, kept by every rewritten bucket.
func cmpEdge(a, b Edge) int {
	if a.Pred != b.Pred {
		if a.Pred < b.Pred {
			return -1
		}
		return 1
	}
	if a.To != b.To {
		if a.To < b.To {
			return -1
		}
		return 1
	}
	return 0
}

func cmpEdgePatch(a, b edgePatch) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return cmpEdge(a.e, b.e)
}

func cmpPairPatch(a, b pairPatch) int {
	if a.k != b.k {
		if a.k < b.k {
			return -1
		}
		return 1
	}
	return int(a.v) - int(b.v)
}

func cmpIDPatch(a, b idPatch) int {
	if a.key != b.key {
		return int(a.key) - int(b.key)
	}
	return int(a.val) - int(b.val)
}

// cowPatchEdges layers a copy-on-write overlay over x covering nTotal
// nodes with del removed and add appended. The base span and edge
// arrays — typically mmap'd file pages — are shared verbatim; only the
// touched nodes get rewritten lists, in the overlay's own small arena,
// sorted by (Pred, To) (the canonical order, so snapshot re-encoding of
// the result stays deterministic). A chained base's overlay buckets are
// carried into the new overlay, so the shared arrays always belong to
// the original flat snapshot and a lookup costs at most one overlay
// probe plus one array read. The per-bucket merge runs in place at the
// overlay arena tail: base list plus additions appended, sorted, then
// removals dropped by one linear walk against the del list (sorted the
// same way). When the overlay would shadow a large share of the index,
// the result is flattened instead — past that point the probe on every
// view costs more than the one-time copy.
func cowPatchEdges(x *edgeIndex, nTotal int, del, add []edgePatch) (edgeIndex, error) {
	slices.SortFunc(del, cmpEdgePatch)
	slices.SortFunc(add, cmpEdgePatch)
	ekey := func(p edgePatch) uint64 { return uint64(uint32(p.key)) }
	touched, extra := 0, 0
	forEachGroup(del, add, ekey, func(k uint64, dels, adds []edgePatch) {
		touched++
		extra += len(x.view(ID(uint32(k)))) + len(adds)
	})
	if touched == 0 {
		return edgeIndex{spans: x.spans, edges: x.edges, over: x.over}, nil
	}
	carry := x.over
	carryN := 0
	if carry != nil {
		carryN = carry.used
		extra += len(carry.edges)
	}
	o := newEdgeOverlay(touched+carryN, extra, nTotal)
	var perr error
	forEachGroup(del, add, ekey, func(k uint64, dels, adds []edgePatch) {
		if perr != nil {
			return
		}
		key := ID(uint32(k))
		start := len(o.edges)
		merged, err := patchEdgeList(o.edges, key, x.view(key), dels, adds)
		if err != nil {
			perr = err
			return
		}
		o.edges = merged
		n := uint32(len(merged) - start)
		o.setSpan(key, pairSpan{off: uint32(start), n: n, cap: n})
	})
	if perr != nil {
		return edgeIndex{}, perr
	}
	// Carry the chained base's overlay buckets this delta left alone —
	// their spans point into the old overlay's arena, so the lists are
	// copied (they are small by the same flatten bound below).
	if carry != nil {
		for i, ck := range carry.keys {
			if ck == 0 {
				continue
			}
			key := ID(ck - 1)
			if _, ok := o.find(key); ok {
				continue
			}
			s := carry.spans[i]
			start := len(o.edges)
			o.edges = append(o.edges, carry.edges[s.off:s.off+s.n]...)
			o.setSpan(key, pairSpan{off: uint32(start), n: s.n, cap: s.n})
		}
	}
	if 2*o.used > nTotal {
		return flattenEdgeOverlay(x, o, nTotal), nil
	}
	return edgeIndex{spans: x.spans, edges: x.edges, over: o}, nil
}

// flattenEdgeOverlay folds overlay o over x's arrays into a flat index
// covering nTotal nodes: clone the base arrays, then point each patched
// node at its overlay list re-appended to the arena tail. Content is
// identical to the overlay view; snapshot encoding re-canonicalizes
// arena order anyway (canonEdges), so no per-bucket sort is needed.
func flattenEdgeOverlay(x *edgeIndex, o *edgeOverlay, nTotal int) edgeIndex {
	spans := make([]pairSpan, nTotal)
	copy(spans, x.spans)
	edges := make([]Edge, len(x.edges), len(x.edges)+len(o.edges))
	copy(edges, x.edges)
	for i, k := range o.keys {
		if k == 0 {
			continue
		}
		key := ID(k - 1)
		s := o.spans[i]
		if s.n == 0 {
			spans[key] = pairSpan{}
			continue
		}
		off := uint32(len(edges))
		edges = append(edges, o.edges[s.off:s.off+s.n]...)
		spans[key] = pairSpan{off: off, n: s.n, cap: s.n}
	}
	return edgeIndex{spans: spans, edges: edges}
}

func missingEdgeErr(key ID, p edgePatch) error {
	return fmt.Errorf("kb: delta apply: edge (%d -[%d]-> %d) not present", key, p.e.Pred, p.e.To)
}

// patchEdgeList appends base's list with dels removed and adds woven
// in to dst, in canonical (Pred, To) order. Snapshot-form base lists
// are already canonically sorted and the patch groups arrive sorted
// the same way, so the common case is one linear three-way merge; an
// unsorted base list (a mutable graph feeding its first delta) falls
// back to sort-then-filter.
func patchEdgeList(dst []Edge, key ID, base []Edge, dels, adds []edgePatch) ([]Edge, error) {
	sorted := true
	for i := 1; i < len(base); i++ {
		if cmpEdge(base[i-1], base[i]) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		bi, di, ai := 0, 0, 0
		for bi < len(base) {
			if di < len(dels) {
				if c := cmpEdge(dels[di].e, base[bi]); c == 0 {
					di++
					bi++
					continue
				} else if c < 0 {
					return dst, missingEdgeErr(key, dels[di])
				}
			}
			if ai < len(adds) && cmpEdge(adds[ai].e, base[bi]) < 0 {
				dst = append(dst, adds[ai].e)
				ai++
				continue
			}
			dst = append(dst, base[bi])
			bi++
		}
		if di < len(dels) {
			return dst, missingEdgeErr(key, dels[di])
		}
		for ; ai < len(adds); ai++ {
			dst = append(dst, adds[ai].e)
		}
		return dst, nil
	}
	start := len(dst)
	dst = append(dst, base...)
	for _, ap := range adds {
		dst = append(dst, ap.e)
	}
	slices.SortFunc(dst[start:], cmpEdge)
	w, di := start, 0
	for r := start; r < len(dst); r++ {
		if di < len(dels) {
			switch c := cmpEdge(dels[di].e, dst[r]); {
			case c == 0:
				di++
				continue
			case c < 0:
				return dst[:start], missingEdgeErr(key, dels[di])
			}
		}
		dst[w] = dst[r]
		w++
	}
	if di < len(dels) {
		return dst[:start], missingEdgeErr(key, dels[di])
	}
	return dst[:w], nil
}

// patchIDValues is patchEdgeList for plain ascending ID value lists —
// the pair-table buckets.
func patchIDValues(dst []ID, k uint64, base []ID, dels, adds []pairPatch) ([]ID, error) {
	missing := func(p pairPatch) error {
		return fmt.Errorf("kb: delta apply: pair value %d not present under key %x", p.v, k)
	}
	sorted := true
	for i := 1; i < len(base); i++ {
		if base[i-1] > base[i] {
			sorted = false
			break
		}
	}
	if sorted {
		bi, di, ai := 0, 0, 0
		for bi < len(base) {
			if di < len(dels) {
				if v := dels[di].v; v == base[bi] {
					di++
					bi++
					continue
				} else if v < base[bi] {
					return dst, missing(dels[di])
				}
			}
			if ai < len(adds) && adds[ai].v < base[bi] {
				dst = append(dst, adds[ai].v)
				ai++
				continue
			}
			dst = append(dst, base[bi])
			bi++
		}
		if di < len(dels) {
			return dst, missing(dels[di])
		}
		for ; ai < len(adds); ai++ {
			dst = append(dst, adds[ai].v)
		}
		return dst, nil
	}
	start := len(dst)
	dst = append(dst, base...)
	for _, ap := range adds {
		dst = append(dst, ap.v)
	}
	slices.Sort(dst[start:])
	w, di := start, 0
	for r := start; r < len(dst); r++ {
		if di < len(dels) {
			switch {
			case dels[di].v == dst[r]:
				di++
				continue
			case dels[di].v < dst[r]:
				return dst[:start], missing(dels[di])
			}
		}
		dst[w] = dst[r]
		w++
	}
	if di < len(dels) {
		return dst[:start], missing(dels[di])
	}
	return dst[:w], nil
}

// cowPatchPairs layers a copy-on-write overlay over t with del removed
// and add appended. The flat base's slot arrays and arena — typically
// mmap'd file pages — are shared by reference (pairTable.base); the
// overlay's own small table holds only the touched keys, each rewritten
// ascending in the overlay arena by the same in-place tail merge as
// cowPatchEdges. A key whose list empties stays present with a
// zero-length span, masking the base bucket — get answers nil for it.
// A chained base's overlay buckets are carried so the chain never
// deepens past one, and an overlay that would shadow a large share of
// the base is flattened instead.
func cowPatchPairs(t *pairTable, del, add []pairPatch) (*pairTable, error) {
	slices.SortFunc(del, cmpPairPatch)
	slices.SortFunc(add, cmpPairPatch)
	pkey := func(p pairPatch) uint64 { return p.k }
	flat := t
	if t.base != nil {
		flat = t.base
	}
	touched, extra, lenDelta := 0, 0, 0
	forEachGroup(del, add, pkey, func(k uint64, dels, adds []pairPatch) {
		touched++
		before := len(t.get(k))
		extra += before + len(adds)
		after := before + len(adds) - len(dels)
		if before == 0 && after > 0 {
			lenDelta++
		}
		if before > 0 && after <= 0 {
			lenDelta--
		}
	})
	if touched == 0 {
		return t, nil
	}
	carryN := 0
	if t.base != nil {
		carryN = t.used
		extra += len(t.ids)
	}
	size := 8
	for 3*size < 4*(touched+carryN) {
		size *= 2
	}
	nt := &pairTable{
		keys:     make([]uint64, size),
		spans:    make([]pairSpan, size),
		ids:      make([]ID, 0, extra),
		shift:    64 - log2(size),
		base:     flat,
		lenTotal: t.len() + lenDelta,
	}
	var perr error
	forEachGroup(del, add, pkey, func(k uint64, dels, adds []pairPatch) {
		if perr != nil {
			return
		}
		start := len(nt.ids)
		merged, err := patchIDValues(nt.ids, k, t.get(k), dels, adds)
		if err != nil {
			perr = err
			return
		}
		nt.ids = merged
		slot, _ := nt.find(k)
		nt.keys[slot] = k
		nt.used++
		n := uint32(len(merged) - start)
		nt.spans[slot] = pairSpan{off: uint32(start), n: n, cap: n}
	})
	if perr != nil {
		return nil, perr
	}
	// Carry the chained base's overlay buckets this delta left alone.
	if t.base != nil {
		for i, ck := range t.keys {
			if ck == 0 {
				continue
			}
			if _, ok := nt.find(ck); ok {
				continue
			}
			s := t.spans[i]
			start := len(nt.ids)
			nt.ids = append(nt.ids, t.ids[s.off:s.off+s.n]...)
			slot, _ := nt.find(ck)
			nt.keys[slot] = ck
			nt.used++
			nt.spans[slot] = pairSpan{off: uint32(start), n: s.n, cap: s.n}
		}
	}
	if 2*nt.used > flat.used {
		return flattenPairOverlay(nt), nil
	}
	return nt, nil
}

// flattenPairOverlay folds overlay nt into a flat table by cloning its
// base's arrays and rewriting only the patched buckets at the arena
// tail. Slot placement is the base's, not canonical insertion order —
// get-content identical, and snapshot encoding re-canonicalizes via
// canonPairTable. An emptied bucket keeps its slot with a zero-length
// span, which get answers nil for.
func flattenPairOverlay(nt *pairTable) *pairTable {
	f := nt.base
	size := len(f.keys)
	for 4*(f.used+nt.used) > 3*size {
		size *= 2
	}
	ft := &pairTable{used: f.used}
	if size == len(f.keys) {
		ft.keys = append([]uint64(nil), f.keys...)
		ft.spans = append([]pairSpan(nil), f.spans...)
		ft.shift = f.shift
	} else {
		ft.keys = make([]uint64, size)
		ft.spans = make([]pairSpan, size)
		ft.shift = 64 - log2(size)
		mask := size - 1
		for i, k := range f.keys {
			if k == 0 {
				continue
			}
			j := ft.slot(k)
			for ft.keys[j] != 0 {
				j = (j + 1) & mask
			}
			ft.keys[j] = k
			ft.spans[j] = f.spans[i]
		}
	}
	ft.ids = make([]ID, len(f.ids), len(f.ids)+len(nt.ids))
	copy(ft.ids, f.ids)
	for i, k := range nt.keys {
		if k == 0 {
			continue
		}
		s := nt.spans[i]
		slot, ok := ft.find(k)
		if !ok {
			ft.keys[slot] = k
			ft.used++
		}
		if s.n == 0 {
			ft.spans[slot] = pairSpan{}
			continue
		}
		off := uint32(len(ft.ids))
		ft.ids = append(ft.ids, nt.ids[s.off:s.off+s.n]...)
		ft.spans[slot] = pairSpan{off: off, n: s.n, cap: s.n}
	}
	return ft
}

// cowPatchIDList builds a copy of x covering nTotal keys with del
// removed and add appended. Touched lists are rewritten ascending at
// the arena tail by the same in-place merge.
func cowPatchIDList(x idListIndex, nTotal int, del, add []idPatch) (idListIndex, error) {
	slices.SortFunc(del, cmpIDPatch)
	slices.SortFunc(add, cmpIDPatch)
	ikey := func(p idPatch) uint64 { return uint64(uint32(p.key)) }
	extra := 0
	forEachGroup(del, add, ikey, func(k uint64, dels, adds []idPatch) {
		extra += len(x.view(ID(uint32(k)))) + len(adds)
	})
	spans := make([]pairSpan, nTotal)
	copy(spans, x.spans)
	ids := make([]ID, len(x.ids), len(x.ids)+extra)
	copy(ids, x.ids)
	var perr error
	forEachGroup(del, add, ikey, func(k uint64, dels, adds []idPatch) {
		if perr != nil {
			return
		}
		key := ID(uint32(k))
		start := len(ids)
		ids = append(ids, x.view(key)...)
		for _, ap := range adds {
			ids = append(ids, ap.val)
		}
		tail := ids[start:]
		slices.Sort(tail)
		w, di := start, 0
		for r := start; r < len(ids); r++ {
			if di < len(dels) {
				switch {
				case dels[di].val == ids[r]:
					di++
					continue
				case dels[di].val < ids[r]:
					perr = fmt.Errorf("kb: delta apply: assertion (%d, %d) not present", key, dels[di].val)
					return
				}
			}
			ids[w] = ids[r]
			w++
		}
		if di < len(dels) {
			perr = fmt.Errorf("kb: delta apply: assertion (%d, %d) not present", key, dels[di].val)
			return
		}
		ids = ids[:w]
		spans[key] = pairSpan{off: uint32(start), n: uint32(w - start), cap: uint32(w - start)}
	})
	if perr != nil {
		return idListIndex{}, perr
	}
	return idListIndex{spans: spans, ids: ids}, nil
}
