// Global cross-request repair memoization.
//
// Repair is a pure function of (rule set, KB generation, tuple
// values): the engine is read-only after construction and every tuple
// pins one frozen graph for its whole repair. That makes whole
// outcomes cacheable across chunks, requests, and connections — not
// just within one pipeline chunk — and real dirty data is heavily
// value-skewed (Zipf), so a small bounded cache absorbs most of the
// stream. The memo here has two tiers:
//
//   - Tier 1 caches whole-tuple outcomes keyed by a 64-bit
//     fingerprint of (schema, cell values, marks): repaired values,
//     marks, and the quarantine/step-budget verdict, so a replay is
//     byte-identical to a fresh repair, degradation semantics
//     included.
//   - Tier 2 caches per-cell evidence verdicts keyed by (check ID,
//     cell value), so a novel tuple that shares a hot value with
//     earlier traffic still skips the KB probe (the per-check
//     EvidenceCheckOn is itself a pure function of the value and the
//     pinned graph; see rules.Matcher).
//
// Both tiers are sharded 64 ways by the fingerprint's high bits, each
// shard guarded by one mutex and bounded by an intrusive CLOCK over a
// slot array (ref bits live in the slots; eviction walks the slots,
// never allocates). Entries are tagged with the generation of the
// graph the repair actually ran on; a generation mismatch on read
// evicts the entry and counts as a miss, so kb.Store.Swap invalidates
// the whole memo coherently with zero stop-the-world work —
// generations are strictly increasing and never reused, so a stale
// entry can be wasted but never wrong. Fingerprints are verified
// against the full stored key on every hit, so a 64-bit collision
// degrades to a miss instead of a wrong answer.
package repair

import (
	"context"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"detective/internal/relation"
)

// DefaultMemoBytes is the memo's default byte budget (both tiers
// together) when Options.MemoBytes is 0: comfortably thousands of
// cached tuples at eval-dataset row sizes while staying irrelevant
// next to the KB's own footprint.
const DefaultMemoBytes = 64 << 20

const (
	memoShardBits  = 6
	memoShardCount = 1 << memoShardBits
)

// Fixed per-entry cost estimates: slot struct + map entry + slice
// headers. Cell values and row strings are accounted exactly on top.
const (
	tupleEntryOverhead = 160
	cellEntryOverhead  = 96
	stringOverhead     = 16
)

// ---------------------------------------------------------------------------
// Fingerprinting — xxhash/murmur-style 64-bit mixing, allocation-free.

const (
	fpPrime1 = 0x9E3779B185EBCA87
	fpPrime2 = 0xC2B2AE3D27D4EB4F
	fpPrime3 = 0x165667B19E3779F9
	fpPrime4 = 0x85EBCA77C2B2AE63
)

// fpMix folds one 64-bit lane into the running hash.
func fpMix(h, k uint64) uint64 {
	k *= fpPrime2
	k = bits.RotateLeft64(k, 31)
	k *= fpPrime1
	h ^= k
	return bits.RotateLeft64(h, 27)*fpPrime1 + fpPrime4
}

// fpFinish is the final avalanche; without it the high bits (which
// pick the shard) would be dominated by the last lane mixed in.
func fpFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= fpPrime2
	h ^= h >> 29
	h *= fpPrime3
	h ^= h >> 32
	return h
}

// fpString folds one length-prefixed string into h, eight bytes at a
// time. The length prefix frames each cell, so concatenations that
// shuffle bytes across cell boundaries cannot collide structurally.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		k := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = fpMix(h, k)
	}
	if i < len(s) {
		var k uint64
		for j := len(s) - 1; j >= i; j-- {
			k = k<<8 | uint64(s[j])
		}
		h = fpMix(h, k)
	}
	return h
}

// ---------------------------------------------------------------------------
// Stats.

// MemoTierStats is one tier's counters in a MemoStats snapshot.
type MemoTierStats struct {
	Hits int64 `json:"hits"`
	// Misses counts lookups not answered by the tier, including
	// fingerprint collisions and generation mismatches.
	Misses int64 `json:"misses"`
	// Evictions counts entries evicted by the CLOCK to stay under the
	// byte budget; GenEvictions counts entries dropped on read because
	// their pinned KB generation was superseded by a hot reload.
	Evictions    int64 `json:"evictions"`
	GenEvictions int64 `json:"genEvictions"`
	Entries      int64 `json:"entries"`
	Bytes        int64 `json:"bytes"`
}

// MemoStats is a point-in-time snapshot of the repair memo, exposed
// through Engine.MemoStats, the server's /stats document, and (as
// individual series) Prometheus exposition.
type MemoStats struct {
	// Enabled reports whether the engine was built with the memo on;
	// all other fields are zero when it is false.
	Enabled bool `json:"enabled"`
	// BudgetBytes is the configured byte budget across both tiers.
	BudgetBytes int64         `json:"budgetBytes"`
	Tuple       MemoTierStats `json:"tuple"`
	Cell        MemoTierStats `json:"cell"`
}

// memoCounters is one tier's live counter set.
type memoCounters struct {
	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	genEvictions atomic.Int64
	entries      atomic.Int64
	bytes        atomic.Int64
}

func (c *memoCounters) snapshot() MemoTierStats {
	return MemoTierStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		GenEvictions: c.genEvictions.Load(),
		Entries:      c.entries.Load(),
		Bytes:        c.bytes.Load(),
	}
}

// ---------------------------------------------------------------------------
// Tier 1 — whole-tuple outcomes.

// tupleEntry is one cached whole-tuple repair. orig/origMk hold the
// exact input (verified on every hit; origMk nil means all-unmarked,
// the streaming common case), vals/mk/oc the byte-identical result.
type tupleEntry struct {
	fp     uint64
	gen    int64
	orig   []string
	origMk []bool
	vals   []string
	mk     []bool
	oc     tupleOutcome
	conf   float64
	bytes  int64
	ref    bool
	used   bool
}

type tupleShard struct {
	mu    sync.Mutex
	idx   map[uint64]int32
	slots []tupleEntry
	free  []int32
	hand  int
	bytes int64
}

// remove frees slot i. Slice capacity stays with the slot for reuse;
// the string contents are released by the overwriting insert.
func (s *tupleShard) remove(i int32, c *memoCounters) {
	e := &s.slots[i]
	delete(s.idx, e.fp)
	s.bytes -= e.bytes
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
	e.used = false
	e.ref = false
	s.free = append(s.free, i)
}

// ---------------------------------------------------------------------------
// Tier 2 — per-cell evidence verdicts.

type cellEntry struct {
	fp    uint64
	gen   int64
	id    int32
	val   string
	hold  bool
	bytes int64
	ref   bool
	used  bool
}

type cellShard struct {
	mu    sync.Mutex
	idx   map[uint64]int32
	slots []cellEntry
	free  []int32
	hand  int
	bytes int64
}

func (s *cellShard) remove(i int32, c *memoCounters) {
	e := &s.slots[i]
	delete(s.idx, e.fp)
	s.bytes -= e.bytes
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
	e.used = false
	e.ref = false
	e.val = ""
	s.free = append(s.free, i)
}

// ---------------------------------------------------------------------------
// The memo.

// repairMemo is the engine's global cross-request memo. One instance
// per engine; all methods are safe for concurrent use.
type repairMemo struct {
	schemaFP    uint64
	budget      int64 // total configured budget, for MemoStats
	tupleBudget int64 // per-shard tier-1 budget
	cellBudget  int64 // per-shard tier-2 budget

	tuple      [memoShardCount]tupleShard
	cell       [memoShardCount]cellShard
	tupleStats memoCounters
	cellStats  memoCounters
}

// newRepairMemo sizes the memo for schema under a total byte budget,
// split 3/4 tier 1 : 1/4 tier 2 — whole-tuple hits skip strictly more
// work than cell hits, so they get the larger share.
func newRepairMemo(schema *relation.Schema, budget int64) *repairMemo {
	h := fpString(uint64(fpPrime3), schema.Name)
	for _, a := range schema.Attrs {
		h = fpString(h, a)
	}
	m := &repairMemo{
		schemaFP:    fpFinish(h),
		budget:      budget,
		tupleBudget: budget * 3 / 4 / memoShardCount,
		cellBudget:  budget / 4 / memoShardCount,
	}
	for i := range m.tuple {
		m.tuple[i].idx = make(map[uint64]int32)
	}
	for i := range m.cell {
		m.cell[i].idx = make(map[uint64]int32)
	}
	return m
}

func memoShard(fp uint64) int { return int(fp >> (64 - memoShardBits)) }

// tupleFP fingerprints a row's cell values and marks against the
// schema, without allocating. mk nil is the all-unmarked row and
// hashes identically to an explicit all-false slice.
func (m *repairMemo) tupleFP(vals []string, mk []bool) uint64 {
	h := m.schemaFP
	for _, v := range vals {
		h = fpString(h, v)
	}
	var markBits, any uint64
	for i, b := range mk {
		if b {
			markBits |= 1 << (uint(i) & 63)
			any = 1
		}
	}
	if any != 0 {
		h = fpMix(h, markBits)
	}
	return fpFinish(h)
}

func equalRow(a []string, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// equalMarks treats nil as all-false on either side.
func equalMarks(a, b []bool) bool {
	switch {
	case a == nil:
		for _, v := range b {
			if v {
				return false
			}
		}
	case b == nil:
		for _, v := range a {
			if v {
				return false
			}
		}
	default:
		for i, v := range a {
			if v != b[i] {
				return false
			}
		}
	}
	return true
}

func rowBytes(vals []string) int64 {
	n := int64(0)
	for _, v := range vals {
		n += stringOverhead + int64(len(v))
	}
	return n
}

// lookupTuple finds, verifies, and touches the entry for (gen, fp,
// vals, mk) under the shard lock, counting the outcome. It returns
// nil on any miss — absent, superseded generation (the entry is
// evicted), or fingerprint collision.
func (s *tupleShard) lookupTuple(c *memoCounters, gen int64, fp uint64, vals []string, mk []bool) *tupleEntry {
	i, ok := s.idx[fp]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	e := &s.slots[i]
	if e.gen != gen {
		s.remove(i, c)
		c.genEvictions.Add(1)
		c.misses.Add(1)
		return nil
	}
	if !equalRow(e.orig, vals) || !equalMarks(e.origMk, mk) {
		c.misses.Add(1)
		return nil
	}
	e.ref = true
	c.hits.Add(1)
	return e
}

// getRowInto copies the memoized repair of the input row (vals, mk)
// into dst without allocating.
func (m *repairMemo) getRowInto(gen int64, fp uint64, vals []string, mk []bool, dst *relation.Tuple) (tupleOutcome, float64, bool) {
	s := &m.tuple[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookupTuple(&m.tupleStats, gen, fp, vals, mk)
	if e == nil {
		return 0, 0, false
	}
	copy(dst.Values, e.vals)
	copy(dst.Marked, e.mk)
	return e.oc, e.conf, true
}

// putTuple inserts the repair of (origVals, origMk) → (out, oc, conf)
// under generation gen. conf is the row confidence stored alongside
// the outcome (single-engine paths pass 1). owned says the input
// strings are safe to retain (deep-copied rows, table tuples); when
// false (the serial stream's ReuseRecord buffers) every retained
// string is cloned first. Oversized entries are dropped rather than
// thrashing the CLOCK.
func (m *repairMemo) putTuple(gen int64, fp uint64, origVals []string, origMk []bool, out *relation.Tuple, oc tupleOutcome, conf float64, owned bool) {
	size := int64(tupleEntryOverhead) + rowBytes(origVals) + rowBytes(out.Values) + int64(len(origVals)+2*len(out.Values))
	if size > m.tupleBudget {
		return
	}
	s := &m.tuple[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()

	var i int32
	if j, ok := s.idx[fp]; ok {
		// Overwrite in place: same fingerprint, possibly a newer
		// generation or a colliding row — the newest repair wins.
		i = j
		e := &s.slots[i]
		s.bytes -= e.bytes
		m.tupleStats.bytes.Add(-e.bytes)
	} else if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.idx[fp] = i
		m.tupleStats.entries.Add(1)
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, tupleEntry{})
		s.idx[fp] = i
		m.tupleStats.entries.Add(1)
	}

	e := &s.slots[i]
	e.fp, e.gen, e.oc, e.conf, e.bytes = fp, gen, oc, conf, size
	e.used, e.ref = true, true
	e.orig = copyRowInto(e.orig, origVals, owned)
	if anyMarked(origMk) {
		e.origMk = append(e.origMk[:0], origMk...)
	} else {
		e.origMk = nil
	}
	// Repaired values: a cell the repair left byte-identical shares the
	// (possibly cloned) original string; a rewritten cell holds a
	// KB-owned canonical string, safe to retain as-is.
	if cap(e.vals) < len(out.Values) {
		e.vals = make([]string, len(out.Values))
	}
	e.vals = e.vals[:len(out.Values)]
	for k, v := range out.Values {
		if k < len(e.orig) && v == origVals[k] {
			e.vals[k] = e.orig[k]
		} else {
			e.vals[k] = v
		}
	}
	e.mk = append(e.mk[:0], out.Marked...)

	s.bytes += size
	m.tupleStats.bytes.Add(size)
	s.evictTuple(m.tupleBudget, &m.tupleStats, i)
}

// evictTuple is the shard's CLOCK sweep: clear ref bits as the hand
// passes, evict the first unreferenced entry, repeat until under
// budget. keep (the just-inserted slot) is never evicted. The pass
// bound forces progress even when every entry is hot.
func (s *tupleShard) evictTuple(budget int64, c *memoCounters, keep int32) {
	n := len(s.slots)
	for steps := 0; s.bytes > budget && steps < 3*n; steps++ {
		h := s.hand
		s.hand++
		if s.hand >= n {
			s.hand = 0
		}
		e := &s.slots[h]
		if !e.used || int32(h) == keep {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		s.remove(int32(h), c)
		c.evictions.Add(1)
	}
}

// copyRowInto reuses dst's capacity; !owned additionally clones every
// string so nothing retained aliases a csv.Reader's reused buffers.
func copyRowInto(dst, src []string, owned bool) []string {
	if cap(dst) < len(src) {
		dst = make([]string, len(src))
	}
	dst = dst[:len(src)]
	if owned {
		copy(dst, src)
	} else {
		for i, v := range src {
			dst[i] = strings.Clone(v)
		}
	}
	return dst
}

func anyMarked(mk []bool) bool {
	for _, b := range mk {
		if b {
			return true
		}
	}
	return false
}

// cellFP fingerprints one (check ID, value) evidence probe.
func (m *repairMemo) cellFP(id int32, v string) uint64 {
	h := fpMix(m.schemaFP, uint64(uint32(id))|1<<40)
	return fpFinish(fpString(h, v))
}

// getCell answers a memoized evidence verdict for value v under check
// id and generation gen.
func (m *repairMemo) getCell(gen int64, id int32, v string) (hold, ok bool) {
	fp := m.cellFP(id, v)
	s := &m.cell[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.idx[fp]
	if !found {
		m.cellStats.misses.Add(1)
		return false, false
	}
	e := &s.slots[i]
	if e.gen != gen {
		s.remove(i, &m.cellStats)
		m.cellStats.genEvictions.Add(1)
		m.cellStats.misses.Add(1)
		return false, false
	}
	if e.id != id || e.val != v {
		m.cellStats.misses.Add(1)
		return false, false
	}
	e.ref = true
	m.cellStats.hits.Add(1)
	return e.hold, true
}

// putCell records an evidence verdict. The value is always cloned:
// cell inserts happen on the repair path where v may alias a reused
// record buffer, and one small copy per distinct hot value is noise.
func (m *repairMemo) putCell(gen int64, id int32, v string, hold bool) {
	size := int64(cellEntryOverhead+len(v)) + stringOverhead
	if size > m.cellBudget {
		return
	}
	fp := m.cellFP(id, v)
	s := &m.cell[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()

	var i int32
	if j, ok := s.idx[fp]; ok {
		i = j
		e := &s.slots[i]
		s.bytes -= e.bytes
		m.cellStats.bytes.Add(-e.bytes)
	} else if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.idx[fp] = i
		m.cellStats.entries.Add(1)
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, cellEntry{})
		s.idx[fp] = i
		m.cellStats.entries.Add(1)
	}
	e := &s.slots[i]
	e.fp, e.gen, e.id, e.hold, e.bytes = fp, gen, id, hold, size
	e.val = strings.Clone(v)
	e.used, e.ref = true, true
	s.bytes += size
	m.cellStats.bytes.Add(size)

	n := len(s.slots)
	for steps := 0; s.bytes > m.cellBudget && steps < 3*n; steps++ {
		h := s.hand
		s.hand++
		if s.hand >= n {
			s.hand = 0
		}
		se := &s.slots[h]
		if !se.used || int32(h) == i {
			continue
		}
		if se.ref {
			se.ref = false
			continue
		}
		s.remove(int32(h), &m.cellStats)
		m.cellStats.evictions.Add(1)
	}
}

// stats snapshots both tiers.
func (m *repairMemo) stats() MemoStats {
	return MemoStats{
		Enabled:     true,
		BudgetBytes: m.budget,
		Tuple:       m.tupleStats.snapshot(),
		Cell:        m.cellStats.snapshot(),
	}
}

// MemoStats snapshots the engine's repair memo counters; the zero
// MemoStats (Enabled false) is returned when the memo is disabled.
func (e *Engine) MemoStats() MemoStats {
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.stats()
}

// RowOutcome classifies how RepairRow ended, mirroring the engine's
// internal per-tuple outcomes.
type RowOutcome uint8

const (
	// RowRepaired: the repair reached its fixpoint; dst holds the
	// repaired values and marks.
	RowRepaired RowOutcome = iota
	// RowBudgetExhausted: the step budget ran out; dst holds the
	// original values, unmarked (keep-original-value degradation).
	RowBudgetExhausted
	// RowQuarantined: the repair panicked; dst holds the original
	// values, unmarked.
	RowQuarantined
)

// RepairRow is the allocation-free serving-path repair of one row: it
// repairs rec into the caller-owned dst (whose Values and Marked must
// have the schema's arity) through the global memo when enabled,
// under the same panic-quarantine and keep-original-value semantics
// as the streaming cleaner. It reports the outcome and whether the
// memo served the row. rec's strings may be retained by the memo, so
// they must not alias a reused read buffer.
func (e *Engine) RepairRow(dst *relation.Tuple, rec []string) (RowOutcome, bool) {
	oc, _, hit := e.repairRow(context.TODO(), dst, rec, nil, true, rowServe)
	return RowOutcome(oc), hit
}
