package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
)

// extent locates bytes in the arena. Requests hold extents, not
// slices, so the request tables are pointer-free and the server's GC
// never scans the load generator's inputs.
type extent struct{ off, n uint32 }

// arena is one anonymous mapping outside the Go heap that holds every
// pre-encoded request body and reference response of a run.
type arena struct {
	mem  []byte
	used int
}

func newArena(size int) (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping a %d-byte arena: %w", size, err)
	}
	return &arena{mem: mem}, nil
}

func (a *arena) add(p []byte) (extent, error) {
	if len(p) > len(a.mem)-a.used {
		return extent{}, fmt.Errorf("arena full: %d of %d bytes used, %d more needed", a.used, len(a.mem), len(p))
	}
	x := extent{off: uint32(a.used), n: uint32(len(p))}
	a.used += copy(a.mem[a.used:], p)
	return x, nil
}

func (a *arena) bytes(x extent) []byte { return a.mem[x.off : x.off+x.n : x.off+x.n] }

func (a *arena) release() {
	if a.mem != nil {
		_ = syscall.Munmap(a.mem) // the process is about to exit or reuse nothing of it
		a.mem = nil
	}
}

// body is one pre-encoded POST /clean request body.
type body struct {
	tenant  int32
	rows    int32
	data    extent
	ref     extent // expected response; n == 0 until computed
	wantRef bool   // the body is in the checked sample
}

// bodyWriter encodes CSV request bodies with the schema header.
type bodyWriter struct {
	buf   bytes.Buffer
	w     *csv.Writer
	attrs []string
	rows  int
}

func newBodyWriter(attrs []string) *bodyWriter {
	bw := &bodyWriter{attrs: attrs}
	bw.w = csv.NewWriter(&bw.buf)
	bw.reset()
	return bw
}

func (bw *bodyWriter) reset() {
	bw.w.Flush()
	bw.buf.Reset()
	bw.rows = 0
	_ = bw.w.Write(bw.attrs) // writes to a bytes.Buffer cannot fail
}

func (bw *bodyWriter) add(rec []string) {
	_ = bw.w.Write(rec)
	bw.rows++
}

func (bw *bodyWriter) bytes() []byte {
	bw.w.Flush()
	return bw.buf.Bytes()
}

// cellNoise is the per-cell corruption probability of generated rows;
// half the corruptions are typos, half semantic swaps (a related value
// of the same entity, e.g. birth city for work city), as in §V-A.
const cellNoise = 0.3

// rowGen draws dirty rows of a Nobel world, never the same row twice.
type rowGen struct {
	b    *dataset.Bundle
	rng  *rand.Rand
	seen map[uint64]struct{}
	rec  []string
}

func newRowGen(b *dataset.Bundle, seed int64) *rowGen {
	return &rowGen{
		b:    b,
		rng:  rand.New(rand.NewSource(seed)),
		seen: make(map[uint64]struct{}),
		rec:  make([]string, b.Schema.Arity()),
	}
}

// next returns a row no earlier call returned. The slice is reused.
func (g *rowGen) next() []string {
	attrs := g.b.Schema.Attrs
	for {
		li := g.rng.Intn(g.b.Truth.Len())
		for c, v := range g.b.Truth.Tuples[li].Values {
			g.rec[c] = v
			if g.rng.Float64() >= cellNoise {
				continue
			}
			if g.rng.Intn(2) == 0 {
				if s, ok := g.b.Semantic(li, attrs[c], g.rng); ok {
					g.rec[c] = s
					continue
				}
			}
			g.rec[c] = dataset.Typo(g.rng, v)
		}
		h := fnv.New64a()
		for _, v := range g.rec {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		fp := h.Sum64()
		if _, dup := g.seen[fp]; dup {
			continue
		}
		g.seen[fp] = struct{}{}
		return g.rec
	}
}

// tenantKB is one tenant's knowledge base as the benchmark ships it:
// a DKBS v2 snapshot on disk, the mmap'd graph loaded from it, and a
// forward delta with its inverse, both built with kb.Diff.
type tenantKB struct {
	name     string
	snapshot string
	graph    *kb.Graph
	fwd, inv []byte // encoded DKBD deltas
}

// deltaGroups is how many fresh copies of every rule's pattern the
// forward delta adds.
const deltaGroups = 8

// buildTenantKB generates a Nobel world of n laureates, packs its KB
// as a v2 snapshot under dir, maps it back, and derives the reload
// deltas. The bundle is returned for row generation.
func buildTenantKB(dir, name string, seed int64, n int) (*dataset.Bundle, *tenantKB, error) {
	b := dataset.NewNobel(seed, n)
	path := filepath.Join(dir, name+".dkbs")
	if err := writeSnapshot(path, b.Yago); err != nil {
		return nil, nil, err
	}
	base, err := kb.LoadSnapshotFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s: %w", path, err)
	}
	next := b.Yago
	addDeltaEntities(next, b.Rules, rand.New(rand.NewSource(seed^0x5eed)))
	t := &tenantKB{name: name, snapshot: path, graph: base}
	if t.fwd, err = encodeDelta(kb.Diff(base, next)); err != nil {
		return nil, nil, err
	}
	if t.inv, err = encodeDelta(kb.Diff(next, base)); err != nil {
		return nil, nil, err
	}
	b.Yago, b.DBpedia = nil, nil
	return b, t, nil
}

func writeSnapshot(path string, g *kb.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := g.WriteSnapshotV2(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func encodeDelta(d *kb.Delta) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return nil, fmt.Errorf("encoding delta: %w", err)
	}
	return buf.Bytes(), nil
}

// addDeltaEntities adds deltaGroups fresh instances of every rule's
// pattern to g: new nodes of the rule's types joined by the rule's
// edges. Their random names are far, in edit distance, from every
// value a request row carries, so no repair depends on them and the
// reference outputs hold across KB generations.
func addDeltaEntities(g *kb.Graph, drs []*rules.DR, rng *rand.Rand) {
	for i := 0; i < deltaGroups; i++ {
		for _, r := range drs {
			names := make(map[string]string)
			lit := make(map[string]bool)
			nodes := append(append([]rules.Node(nil), r.Evidence...), r.Pos)
			if r.Neg != nil {
				nodes = append(nodes, *r.Neg)
			}
			for _, nd := range nodes {
				names[nd.Name] = fmt.Sprintf("Perfbench Delta %016x", rng.Uint64())
				if nd.Type == kb.LiteralClass {
					lit[nd.Name] = true
					continue
				}
				g.AddType(names[nd.Name], nd.Type)
			}
			for _, e := range r.Edges {
				if lit[e.To] {
					g.AddPropertyTriple(names[e.From], e.Rel, names[e.To])
				} else {
					g.AddTriple(names[e.From], e.Rel, names[e.To])
				}
			}
		}
	}
	g.Freeze()
}

// writeRules stores the rule set in the text format the registry reads.
func writeRules(path string, drs []*rules.DR) error {
	var buf bytes.Buffer
	if err := rules.EncodeRules(&buf, drs); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// rowsTable wraps generated rows as a relation table.
func rowsTable(schema *relation.Schema, rows [][]string) *relation.Table {
	tb := relation.NewTable(schema)
	for _, r := range rows {
		tb.Append(r...)
	}
	return tb
}

var errExhausted = errors.New("request sequence exhausted: the host served more distinct rows than were generated")
