package rules

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"detective/internal/kb"
	"detective/internal/similarity"
)

// MaxEDThreshold is the largest edit-distance threshold rule nodes may
// use. The per-class signature indexes are built once with this bound
// (PASS-JOIN segments are fixed at index-build time).
const MaxEDThreshold = 3

// DefaultCandidateCacheSize is the total number of candidate lists the
// cross-tuple cache retains before evicting (spread across its
// shards). Real dirty tables repeat values heavily (§V's Nobel/UIS/
// WebTables workloads), so even a modest bound absorbs most lookups.
const DefaultCandidateCacheSize = 1 << 16

// candShards is the number of cache shards; a power of two so the
// shard pick is a mask. Sharding keeps the read-mostly cache from
// serializing RepairTableParallel workers on one lock.
const candShards = 64

// candKey identifies one candidate retrieval: (class ID, sim spec,
// value). Spec is a small comparable struct, so the key hashes without
// any string assembly.
type candKey struct {
	cls   kb.ID
	spec  similarity.Spec
	value string
}

// shard picks the cache shard for the key (FNV-1a over the value,
// folded with the class and spec).
func (k candKey) shard() uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k.value); i++ {
		h ^= uint32(k.value[i])
		h *= 16777619
	}
	h ^= uint32(k.cls) * 2654435761
	h ^= uint32(k.spec.Op)<<24 ^ uint32(k.spec.K)<<16
	h ^= uint32(math.Float64bits(k.spec.Tau) >> 32)
	return h & (candShards - 1)
}

// candEntry is one cached candidate list, tagged with the generation
// of the graph it was computed against. A hit requires the tag to
// match the reader's pinned graph, so entries inserted by stragglers
// still running on a pre-swap graph can never be served against the
// post-swap one (and vice versa) — no locking between swap and insert
// is needed for correctness.
type candEntry struct {
	gen int64
	ids []kb.ID
}

type candShard struct {
	mu sync.RWMutex
	m  map[candKey]candEntry
}

// idxKey identifies one per-class signature index: indexes are keyed
// by (class, graph generation) because class IDs are only meaningful
// within one graph.
type idxKey struct {
	cls kb.ID
	gen int64
}

// Catalog answers "which KB instances of class T match value v under
// sim?" — the instance-matching primitive of §IV-B(2). It lazily
// builds one signature-based StringIndex per KB class, shared by all
// rules and all tuples, so similarity matching never scans a class
// extent.
//
// In front of the indexes sits a sharded, read-mostly *candidate
// cache* keyed by (class, sim, value): the repeated values that
// dominate real dirty tables hit the cache instead of re-running
// q-gram/PASS-JOIN retrieval.
//
// The catalog reads its KB through a kb.Store, so the graph can be
// hot-swapped while repairs are streaming. Correctness across a swap
// rests on generations (kb.Store.Swap stamps each incoming graph
// strictly above its predecessor): cache entries are tagged with the
// generation they were computed under and only hit when the tag
// matches the caller's pinned graph, and signature indexes are keyed
// by (class, generation) with the two most recent generations
// retained — in-flight tuples that pinned the old graph keep full
// index service through the swap window. Callers doing multi-step
// work pin a graph once (Graph()) and pass it to LookupID.
type Catalog struct {
	store *kb.Store

	mu  sync.RWMutex
	idx map[idxKey]*similarity.StringIndex

	cacheCap     int // per-shard entry bound; 0 disables the cache
	gen          atomic.Int64
	shards       [candShards]candShard
	hits, misses atomic.Int64
}

// NewCatalog creates a catalog over a fixed graph g with the default
// candidate cache size. For hot-swappable serving use NewCatalogStore.
func NewCatalog(g *kb.Graph) *Catalog {
	return NewCatalogStore(kb.NewStore(g))
}

// NewCatalogStore creates a catalog reading the current graph of s
// with the default candidate cache size.
func NewCatalogStore(s *kb.Store) *Catalog {
	c := &Catalog{store: s, idx: make(map[idxKey]*similarity.StringIndex)}
	c.cacheCap = DefaultCandidateCacheSize / candShards
	c.gen.Store(-1)
	return c
}

// Graph returns the store's current graph. Multi-step callers pin it
// once and pass it to LookupID so the whole step sees one graph.
func (c *Catalog) Graph() *kb.Graph { return c.store.Graph() }

// Store returns the underlying swappable KB handle.
func (c *Catalog) Store() *kb.Store { return c.store }

// SetCacheSize re-bounds the candidate cache to about n entries in
// total; n <= 0 disables caching entirely. Existing entries are
// dropped.
func (c *Catalog) SetCacheSize(n int) {
	if n <= 0 {
		c.cacheCap = 0
	} else if n < candShards {
		c.cacheCap = 1
	} else {
		c.cacheCap = n / candShards
	}
	c.Invalidate()
}

// CacheStats reports candidate-cache hits, misses, and the current
// number of cached lists.
func (c *Catalog) CacheStats() (hits, misses int64, size int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		size += len(sh.m)
		sh.mu.RUnlock()
	}
	return c.hits.Load(), c.misses.Load(), size
}

// IndexStats aggregates hit/miss/size accounting over every built
// per-class signature index (similarity.StringIndex.Stats): hits are
// lookups that found at least one candidate, size is the total number
// of indexed instance names. Together with CacheStats this makes both
// caching layers — the candidate cache in front, the signature
// indexes behind it — observable through the same telemetry registry.
func (c *Catalog) IndexStats() (hits, misses int64, size int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.idx {
		h, m, s := ix.Stats()
		hits += h
		misses += m
		size += s
	}
	return hits, misses, size
}

// Invalidate drops the candidate cache and the per-class signature
// indexes. Lookups rebuild both lazily. It is not needed around KB
// swaps or mutations — advance handles those via generations — but
// remains useful to release memory.
func (c *Catalog) Invalidate() {
	c.mu.Lock()
	c.idx = make(map[idxKey]*similarity.StringIndex)
	c.mu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}

// advance notes that a reader is operating at generation gen. When gen
// moves past the highest generation seen so far (a KB swap or
// mutation), the candidate-cache shards are cleared — their
// generation tags already prevent stale hits, clearing just frees the
// memory promptly — and signature indexes older than the previous
// generation are pruned, keeping at most the last two generations
// alive for stragglers. Readers on older graphs (gen below current)
// advance nothing.
func (c *Catalog) advance(gen int64) {
	cur := c.gen.Load()
	if gen <= cur {
		return
	}
	if !c.gen.CompareAndSwap(cur, gen) {
		return // someone else advanced concurrently
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
	c.mu.Lock()
	for k := range c.idx {
		if k.gen != gen && k.gen != cur {
			delete(c.idx, k)
		}
	}
	c.mu.Unlock()
}

// classIndex returns (building on first use) the signature index over
// the instance names of cls in g. Indexes are per-generation, so
// concurrent readers on pre- and post-swap graphs each get an index
// built from their own graph.
func (c *Catalog) classIndex(g *kb.Graph, cls kb.ID) *similarity.StringIndex {
	key := idxKey{cls: cls, gen: g.Generation()}
	c.mu.RLock()
	ix, ok := c.idx[key]
	c.mu.RUnlock()
	if ok {
		return ix
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix, ok := c.idx[key]; ok {
		return ix
	}
	ix = similarity.NewStringIndex(MaxEDThreshold)
	for _, inst := range g.InstancesOf(cls) {
		ix.Add(g.Name(inst), int32(inst))
	}
	c.idx[key] = ix
	return ix
}

// Candidates returns the instances of class typeName whose names match
// value under spec, evaluated against the store's current graph. A
// type unknown to the KB yields no candidates. The returned slice may
// be shared with the cache and other callers — treat it as read-only.
func (c *Catalog) Candidates(typeName string, spec similarity.Spec, value string) []kb.ID {
	g := c.store.Graph()
	return c.LookupID(g, g.Lookup(typeName), spec, value, false)
}

// LookupID retrieves the instances of class cls (already resolved
// against g; kb.Invalid yields none) whose names match value under
// spec. It is the lookup compiled match plans use, so no type name is
// resolved per call. scan=true charges the basic algorithm's full
// class-extent scan instead of the signature indexes, uncached.
// Edit-distance specs beyond MaxEDThreshold are rejected at rule
// validation time; reaching here with one is a programming error.
func (c *Catalog) LookupID(g *kb.Graph, cls kb.ID, spec similarity.Spec, value string, scan bool) []kb.ID {
	if spec.Op == similarity.OpED && spec.K > MaxEDThreshold && !scan {
		panic(fmt.Sprintf("rules: ED threshold %d exceeds MaxEDThreshold %d", spec.K, MaxEDThreshold))
	}
	if cls == kb.Invalid {
		return nil
	}
	if scan {
		var out []kb.ID
		for _, inst := range g.InstancesOf(cls) {
			if spec.Match(value, g.Name(inst)) {
				out = append(out, inst)
			}
		}
		return out
	}
	if c.cacheCap == 0 {
		return c.retrieve(g, cls, spec, value)
	}
	gen := g.Generation()
	c.advance(gen)
	key := candKey{cls: cls, spec: spec, value: value}
	sh := &c.shards[key.shard()]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok && e.gen == gen {
		c.hits.Add(1)
		return e.ids
	}
	c.misses.Add(1)
	out := c.retrieve(g, cls, spec, value)
	sh.mu.Lock()
	if sh.m == nil {
		// Grown on demand rather than sized to the bound: a catalog
		// serving a small tenant never needs its full cacheCap, and
		// every admission and reload builds a fresh catalog.
		sh.m = make(map[candKey]candEntry)
	}
	if len(sh.m) >= c.cacheCap {
		// The shard is full: evict an arbitrary eighth. Map iteration
		// order is effectively random, which is eviction enough for a
		// cache whose working set is the table's value distribution.
		drop := c.cacheCap/8 + 1
		for k := range sh.m {
			delete(sh.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	sh.m[key] = candEntry{gen: gen, ids: out}
	sh.mu.Unlock()
	return out
}

// retrieve runs the underlying signature-index lookup on g.
func (c *Catalog) retrieve(g *kb.Graph, cls kb.ID, spec similarity.Spec, value string) []kb.ID {
	raw := c.classIndex(g, cls).Lookup(spec, value)
	if len(raw) == 0 {
		return nil
	}
	out := make([]kb.ID, len(raw))
	for i, p := range raw {
		out[i] = kb.ID(p)
	}
	return out
}

// CandidatesScan is the unindexed counterpart of Candidates: it
// enumerates every instance of the class and tests the matching
// operation directly, the O(|C|·|X|) per-node cost the paper charges
// to the basic repair algorithm (§IV-A complexity analysis). The fast
// repair algorithm replaces this with the signature indexes. It is
// deliberately uncached: it models the basic algorithm's cost, and
// caching it would corrupt the ablation contrast.
func (c *Catalog) CandidatesScan(typeName string, spec similarity.Spec, value string) []kb.ID {
	g := c.store.Graph()
	return c.LookupID(g, g.Lookup(typeName), spec, value, true)
}
