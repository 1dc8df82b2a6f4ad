// Package detective is a data-cleaning library that detects and
// repairs wrong relational data — and marks correct data — using
// well-curated knowledge bases, implementing the detective rules (DRs)
// of Hao, Tang, Li and Li, "Cleaning Relations using Knowledge Bases"
// (ICDE 2017).
//
// A detective rule binds a subset of a table's columns to types and
// relationships in a KB twice over: once with the *positive* semantics
// a correct tuple exhibits, and once with the *negative* semantics a
// specific wrong value exhibits (for example, City holding the city a
// laureate was born in rather than the city they work in). When a
// tuple matches the positive side, the touched cells are proven
// correct; when it matches the negative side and the KB supplies a
// replacement, the error is repaired — deterministically, with no
// heuristics.
//
// Basic usage:
//
//	g, _ := detective.ParseKB(kbFile)
//	rs, _ := detective.ParseRules(rulesFile)
//	tb, _ := detective.ReadCSV("Nobel", csvFile)
//	c, _ := detective.NewCleaner(rs, g, tb.Schema)
//	cleaned := c.CleanTable(tb)
//
// The subpackages under internal/ implement the full system: the KB
// store, the matching machinery, the basic and fast repair algorithms,
// rule generation from examples, consistency checking, the baselines
// the paper compares against (KATARA, Llunatic-style FD repair,
// constant CFDs) and the complete experiment suite.
package detective

import (
	"context"
	"io"

	"detective/internal/consistency"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rulegen"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// Core re-exported types. These aliases are the public names of the
// engine's building blocks; see the originating packages for full
// method documentation.
type (
	// KB is an in-memory RDF-style knowledge graph.
	KB = kb.Graph
	// Schema names a relation and its attributes.
	Schema = relation.Schema
	// Table is a relation instance whose cells carry positive marks.
	Table = relation.Table
	// Tuple is one row plus its per-cell marks.
	Tuple = relation.Tuple
	// Rule is a detective rule.
	Rule = rules.DR
	// Node binds a column to a KB type under a matching operation.
	Node = rules.Node
	// Edge labels a pair of rule nodes with a KB relationship.
	Edge = rules.Edge
	// MatchingGraph is a schema-level matching graph (also the table-
	// pattern shape used by KATARA-style systems).
	MatchingGraph = rules.Graph
	// Sim is a matching operation: equality, edit distance, Jaccard or
	// cosine.
	Sim = similarity.Spec
	// Outcome is the verdict of one rule on one tuple.
	Outcome = rules.Outcome
	// Violation is an order-dependent repair found by CheckConsistency.
	Violation = consistency.Violation
	// RuleGenConfig tunes example-driven rule generation.
	RuleGenConfig = rulegen.Config
)

// Matching-operation constructors.
var (
	// Eq is exact string equality ("=").
	Eq = similarity.Eq
)

// EditDistance returns the "ED,k" matching operation.
func EditDistance(k int) Sim { return similarity.EDK(k) }

// Jaccard returns the "JAC,tau" matching operation.
func Jaccard(tau float64) Sim { return similarity.JaccardAtLeast(tau) }

// Cosine returns the "COS,tau" matching operation.
func Cosine(tau float64) Sim { return similarity.CosineAtLeast(tau) }

// ParseSim parses "=", "ED,2", "JAC,0.8" or "COS,0.7".
func ParseSim(s string) (Sim, error) { return similarity.ParseSpec(s) }

// NewKB returns an empty knowledge graph.
func NewKB() *KB { return kb.New() }

// ParseKB reads a KB in the line-oriented triple format:
//
//	<Avram Hershko> <worksAt> <Israel Institute of Technology> .
//	<Avram Hershko> <bornOnDate> "1937-12-31" .
//	<Avram Hershko> <type> <Nobel laureates in Chemistry> .
//	<city> <subClassOf> <location> .
func ParseKB(r io.Reader) (*KB, error) { return kb.Parse(r) }

// WriteKBSnapshot writes g in the binary DKBS snapshot format:
// versioned, checksummed per section, byte-identical for the same
// graph content, and laid out page-aligned so LoadKBSnapshotFile can
// map its arenas read-only and serve them in place (see cmd/kbtool
// pack/unpack/verify).
func WriteKBSnapshot(w io.Writer, g *KB) error { return g.WriteSnapshotV2(w) }

// LoadKBSnapshot reads a KB written by WriteKBSnapshot, verifying the
// header and every section checksum. The returned graph is read-only;
// re-parse its text encoding (Encode, then ParseKB) to mutate it.
// Files in the retired DKBS version 1 layout are refused with an error
// that says to re-pack them from their text source.
func LoadKBSnapshot(r io.Reader) (*KB, error) { return kb.LoadSnapshot(r) }

// LoadKBSnapshotFile loads a snapshot by path: the file is mmap'd in
// place on supported platforms and read through LoadKBSnapshot
// elsewhere. The returned graph is read-only.
func LoadKBSnapshotFile(path string) (*KB, error) { return kb.LoadSnapshotFile(path) }

// KBStore atomically publishes the current KB graph for zero-downtime
// hot swaps: readers pin a graph per tuple while KBStore.Swap installs
// a replacement with a bumped generation (see internal/kb.Store).
type KBStore = kb.Store

// NewKBStore wraps g (frozen) in a swappable store.
func NewKBStore(g *KB) *KBStore { return kb.NewStore(g) }

// KBDelta is the parsed form of a DKBD incremental delta file: the
// canonical, name-keyed difference between two KB contents. Deltas are
// produced by DiffKB (or `kbtool diff`) and applied copy-on-write to a
// live graph by KB.ApplyDelta or KBStore.ApplyDelta, sharing every
// untouched arena with the base generation.
type KBDelta = kb.Delta

// DiffKB computes the canonical delta that transforms old's content
// into new's. Output is deterministic: equal contents diff to equal
// bytes regardless of either graph's storage form or ID assignment.
func DiffKB(old, new *KB) *KBDelta { return kb.Diff(old, new) }

// ReadKBDelta parses a DKBD delta file, verifying magic, framing and
// every section checksum.
func ReadKBDelta(r io.Reader) (*KBDelta, error) { return kb.ReadDelta(r) }

// NewSchema creates a relation schema; attribute names must be unique.
func NewSchema(name string, attrs ...string) *Schema {
	return relation.NewSchema(name, attrs...)
}

// ReadCSV loads a table whose first CSV record is the header.
func ReadCSV(name string, r io.Reader) (*Table, error) { return relation.ReadCSV(name, r) }

// ParseRules reads detective rules in the textual rule format (see
// the rules package documentation for the grammar).
func ParseRules(r io.Reader) ([]*Rule, error) { return rules.ParseRules(r) }

// EncodeRules writes rules in the textual rule format.
func EncodeRules(w io.Writer, rs []*Rule) error { return rules.EncodeRules(w, rs) }

// Cleaner applies a set of consistent detective rules to tuples of
// one schema against one KB. It is cheap to reuse across tuples and
// tables; construct it once per (rules, KB, schema) combination.
type Cleaner struct {
	engine *Engine
}

// Engine is the underlying repair engine (exposed for benchmarking
// and for callers that need the basic algorithm or rule-order
// control).
type Engine = repair.Engine

// EngineOptions tunes the repair engine: the §IV-B ablation switches,
// the per-tuple step budget, and the streaming pipeline's Workers and
// ChunkSize. The zero value is the full fast algorithm on the serial
// streaming path.
type EngineOptions = repair.Options

// NewCleaner validates the rules against the schema and builds the
// fast repair engine of the paper's Algorithm 2 (rule-graph ordering,
// signature indexes, shared computation).
func NewCleaner(rs []*Rule, g *KB, schema *Schema) (*Cleaner, error) {
	return NewCleanerWithOptions(rs, g, schema, EngineOptions{})
}

// NewCleanerWithOptions is NewCleaner with engine tuning — most
// usefully EngineOptions.Workers, which fans the streaming cleaner
// out over a chunked parallel pipeline with ordered reassembly.
func NewCleanerWithOptions(rs []*Rule, g *KB, schema *Schema, opts EngineOptions) (*Cleaner, error) {
	e, err := repair.NewEngineWithOptions(rs, g, schema, opts)
	if err != nil {
		return nil, err
	}
	return &Cleaner{engine: e}, nil
}

// NewCleanerStore is NewCleanerWithOptions on a caller-owned KBStore,
// the shape ensemble mode needs: auxiliary proposers built on the
// same store see every graph the cleaner serves, including hot swaps.
func NewCleanerStore(rs []*Rule, store *KBStore, schema *Schema, opts EngineOptions) (*Cleaner, error) {
	e, err := repair.NewEngineStore(rs, store, schema, opts)
	if err != nil {
		return nil, err
	}
	return &Cleaner{engine: e}, nil
}

// Engine returns the underlying repair engine.
func (c *Cleaner) Engine() *Engine { return c.engine }

// Clean repairs and marks one tuple with the fast algorithm, leaving
// the input untouched. Multi-version repairs resolve to the candidate
// most similar to the current value; use CleanVersions to obtain all
// fixpoints. A tuple whose repair panics is quarantined: it comes back
// unchanged and is tallied in the engine's Stats().Quarantined.
func (c *Cleaner) Clean(t *Tuple) *Tuple { return c.engine.FastRepair(t) }

// CleanBasic repairs one tuple with the chase-style basic algorithm
// (Algorithm 1). Results equal Clean's for consistent rule sets; the
// cost model differs (no indexes, no rule ordering).
func (c *Cleaner) CleanBasic(t *Tuple) *Tuple { return c.engine.BasicRepair(t) }

// CleanVersions returns every repair fixpoint of t (multi-version
// repairs, §IV-C of the paper).
func (c *Cleaner) CleanVersions(t *Tuple) []*Tuple { return c.engine.RepairVersions(t) }

// Step is one rule application recorded by Explain — which rule
// fired, what it repaired and marked, and the KB instances that
// witness the decision.
type Step = repair.Step

// Explain cleans t and returns the ordered rule applications behind
// the result: the white-box provenance that distinguishes rule-based
// cleaning from IC-based black boxes (paper §I).
func (c *Cleaner) Explain(t *Tuple) (*Tuple, []Step) { return c.engine.FastRepairExplain(t) }

// CleanTable repairs and marks every tuple of tb into a new table.
// Tuples whose repair panics are quarantined as in Clean.
func (c *Cleaner) CleanTable(tb *Table) *Table { return c.engine.RepairTable(tb, true) }

// CleanTableParallel is CleanTable fanned out over worker goroutines
// (0 = GOMAXPROCS); tuples are independent, so results are identical.
func (c *Cleaner) CleanTableParallel(tb *Table, workers int) *Table {
	return c.engine.RepairTableParallel(tb, workers)
}

// StreamStats is the per-call accounting of one streaming clean:
// rows written, quarantined and budget-degraded rows, and rows
// answered from a cache instead of a fresh repair (the global repair
// memo, or with the memo disabled the pipeline's in-chunk duplicate
// cache).
type StreamStats = repair.StreamResult

// CleanCSVStream cleans CSV row by row without materializing the
// table; the first record must be a header matching the cleaner's
// schema, and marked cells get a "+" suffix when marked is true. With
// EngineOptions.Workers > 1 rows are repaired by the parallel
// pipeline; output is byte-identical to the serial path. Mid-stream
// failures arrive as a *repair.PartialError after everything cleaned
// so far has been flushed to w.
func (c *Cleaner) CleanCSVStream(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamStats, error) {
	return c.engine.CleanCSVStreamContext(ctx, r, w, marked)
}

// CleanCSVStreamEnsemble is CleanCSVStream in ensemble mode: rows are
// repaired by the weighted vote over the detective engine and the
// EngineOptions.Ensemble proposers, and the output CSV carries a
// trailing "confidence" column. Errors when the cleaner was built
// without EngineOptions.Ensemble.Enabled.
func (c *Cleaner) CleanCSVStreamEnsemble(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamStats, error) {
	return c.engine.CleanCSVStreamEnsembleContext(ctx, r, w, marked)
}

// UsageReport aggregates per-rule application counts over a table.
type UsageReport = repair.UsageReport

// CleanTableWithUsage is CleanTable plus the per-rule audit report.
func (c *Cleaner) CleanTableWithUsage(tb *Table) (*Table, UsageReport) {
	return c.engine.RepairTableWithUsage(tb)
}

// CheckConsistency runs the tuples of tb through up to maxOrders rule
// application orders (0 = default) and reports tuples whose fixpoint
// depends on the order. An empty result means the rule set is
// consistent for this data (Corollary 2 of the paper).
func (c *Cleaner) CheckConsistency(tb *Table, maxOrders int) []Violation {
	return consistency.Check(c.engine, tb, maxOrders)
}

// Warning is a statically detected conflict pattern between rules.
type Warning = consistency.Warning

// AnalyzeRules statically screens a rule set for the classic conflict
// shapes (opposed semantics, divergent corrections) before any data
// is seen. Warnings are candidates to confirm with CheckConsistency;
// the general problem is coNP-complete (paper Theorem 1), so a clean
// report is not a proof.
func AnalyzeRules(rs []*Rule) []Warning { return consistency.Analyze(rs) }

// GenerateRules discovers candidate detective rules from examples:
// positives are fully correct tuples; negatives[A] are tuples wrong
// exactly in attribute A (§III-A of the paper). The returned rules
// should be reviewed before use and checked with CheckConsistency.
func GenerateRules(g *KB, schema *Schema, positives *Table,
	negatives map[string]*Table, cfg RuleGenConfig) ([]*Rule, error) {
	return rulegen.Generate(g, schema, positives, negatives, cfg)
}
