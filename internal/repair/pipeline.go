// The chunked, order-preserving parallel pipeline behind the
// streaming cleaner (Options.Workers > 1).
//
// Three stages connected by bounded channels:
//
//	reader ──chunks──▶ workers(×N) ──done──▶ reassembly
//
// The reader batches CSV rows into fixed-size chunks, copying each
// record out of the csv.Reader's reused slice; workers run the
// in-place fast repair (pooled fastState, shared candidate cache)
// over whole chunks as a read-through of the global cross-request
// memo (falling back to in-chunk-only deduplication when the memo is
// disabled); the reassembly stage — the calling goroutine — writes
// chunks back in input order and recycles each chunk, with its input
// and output arenas, through a pool. Once the pool is warm the
// pipeline does no per-row allocation of its own, so a memo-served
// row costs roughly its ~0.2µs cache hit rather than a dozen output
// allocations.
//
// Memory is bounded to O(workers · chunk): the reader must acquire an
// in-flight token before emitting a chunk and the reassembly stage
// releases it only after the chunk is written, so at most maxInflight
// chunks exist between the two at any moment, however skewed the
// per-chunk repair times are. Because the done channel's capacity
// equals that in-flight bound, workers never block on it, which keeps
// the pipeline deadlock-free even when reassembly is stalled waiting
// for the lowest outstanding sequence number.
//
// Per-tuple repair is independent of every other tuple (§V-B), so
// repairing chunks out of order and reassembling by sequence number
// yields output byte-identical to the serial path — same rows, same
// order, same flush cadence, same PartialError semantics.
package repair

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sync"

	"detective/internal/relation"
)

// DefaultStreamChunkSize is the pipeline's default rows-per-chunk. It
// is large enough to amortize the three channel operations a chunk
// costs and to give the in-chunk dedup a useful window over the
// bursty duplicate runs of real dirty data, while keeping
// worst-case buffered memory (maxInflight chunks) small.
const DefaultStreamChunkSize = 256

// rowChunk is one unit of pipeline work: a batch of copied input
// rows, and after a worker has processed it, the formatted output
// rows plus the batch's tally.
//
// Chunks are recycled through rowChunkPool: rows and out are
// fixed-stride views into the flat rowBuf/outBuf arenas, so a full
// reader→worker→reassembly trip costs zero per-row allocations once
// the pool is warm — the difference between the memoized 8-worker
// pipeline beating or losing to memoized serial on skewed corpora,
// where the repair itself is a ~0.2µs memo hit and the per-row output
// record used to dominate.
type rowChunk struct {
	seq  int        // position in the input stream, 0-based
	rows [][]string // copied input records (arena-backed)
	out  [][]string // formatted output rows (worker-filled, arena-backed)

	rowBuf []string // flat arena behind rows
	outBuf []string // flat arena behind out

	res StreamResult // the batch's tally, merged by reassembly (Rows unused)
}

var rowChunkPool = sync.Pool{New: func() any { return new(rowChunk) }}

// getRowChunk returns a recycled chunk sized for chunkSize rows of
// arity cells, with row headers reset. Stale string
// headers from the previous use stay in the arenas until overwritten;
// they pin at most one chunk's worth of cells per pooled object.
func getRowChunk(seq, chunkSize, arity int) *rowChunk {
	c := rowChunkPool.Get().(*rowChunk)
	c.seq = seq
	if n := chunkSize * arity; cap(c.rowBuf) < n {
		c.rowBuf = make([]string, n)
	}
	if cap(c.rows) < chunkSize {
		c.rows = make([][]string, 0, chunkSize)
	}
	c.rows = c.rows[:0]
	c.out = c.out[:0]
	return c
}

// appendRow copies rec into the chunk's next arena slot. Only the
// string headers are copied: the csv.Reader's ReuseRecord recycles the
// record slice, but the field strings themselves are freshly built per
// record (one batched allocation in encoding/csv), so a header copy is
// a complete deep copy.
func (c *rowChunk) appendRow(rec []string) {
	arity := len(rec)
	n := len(c.rows) * arity
	row := c.rowBuf[n : n+arity : n+arity]
	copy(row, rec)
	c.rows = append(c.rows, row)
}

// cleanStreamParallel drives the pipeline over an already-validated
// CSV stream. The header has been written to cw and cr has
// ReuseRecord set; arity is the schema arity.
func (e *Engine) cleanStreamParallel(ctx context.Context, cr *csv.Reader, cw *csv.Writer, arity int, marked, ens bool) (StreamResult, error) {
	res := newStreamResult(ens)
	workers := e.opts.Workers
	chunkSize := e.opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunkSize
	}
	// Enough slack that a straggler chunk does not idle the other
	// workers, but small enough that buffered rows stay O(workers·chunk).
	maxInflight := 2*workers + 2

	// pctx cancels the producer side when reassembly hits a write
	// error; user cancellation flows through it too.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	chunks := make(chan *rowChunk, workers)    // reader -> workers
	done := make(chan *rowChunk, maxInflight)  // workers -> reassembly; never blocks (cap = in-flight bound)
	tokens := make(chan struct{}, maxInflight) // in-flight chunk budget
	var readErr error                          // reader's terminal error; published by close(chunks)

	// --- reader stage -------------------------------------------------
	go func() {
		defer close(chunks)
		seq := 0
		cur := getRowChunk(seq, chunkSize, arity)
		send := func(c *rowChunk) bool {
			select {
			case tokens <- struct{}{}:
			case <-pctx.Done():
				return false
			}
			select {
			case chunks <- c:
				return true
			case <-pctx.Done():
				return false
			}
		}
		for lineno := 2; ; lineno++ {
			if pctx.Err() != nil {
				// User cancellation is reported by reassembly (it
				// re-checks ctx); a write-error cancel keeps the write
				// error. Either way the reader just stops producing.
				break
			}
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = fmt.Errorf("repair: reading CSV: %w", err)
				break
			}
			if len(rec) != arity {
				readErr = fmt.Errorf("repair: CSV line %d has %d fields, want %d", lineno, len(rec), arity)
				break
			}
			// Copy before the row crosses the chunk channel: with
			// ReuseRecord the record slice aliases the reader's
			// internal buffer, which the next Read overwrites (the
			// field strings are fresh; see appendRow).
			cur.appendRow(rec)
			if len(cur.rows) == chunkSize {
				if !send(cur) {
					return
				}
				seq++
				cur = getRowChunk(seq, chunkSize, arity)
			}
		}
		// Rows read before a mid-stream failure still get cleaned and
		// flushed, exactly like the serial path.
		if len(cur.rows) > 0 {
			send(cur)
		} else {
			rowChunkPool.Put(cur)
		}
	}()

	// --- worker stage -------------------------------------------------
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				e.repairChunk(pctx, c, marked, ens)
				done <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// --- reassembly stage (calling goroutine) -------------------------
	partial := func(err error) (StreamResult, error) {
		cw.Flush()
		return res, &PartialError{Done: res.Rows, Err: err}
	}
	writeChunk := func(c *rowChunk) error {
		for _, row := range c.out {
			if err := cw.Write(row); err != nil {
				return err
			}
			res.Rows++
			if res.Rows%flushEvery == 0 {
				cw.Flush()
				if err := cw.Error(); err != nil {
					return err
				}
			}
		}
		res.merge(c.res)
		return nil
	}
	next := 0
	pending := make(map[int]*rowChunk, maxInflight)
	var werr error
	for c := range done {
		pending[c.seq] = c
		for werr == nil {
			nc, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err := writeChunk(nc); err != nil {
				werr = err
				// Stop the reader; in-flight chunks drain into the
				// buffered done channel without blocking anyone.
				cancel()
				break
			}
			// The csv.Writer has copied every cell into its own
			// buffer, so the chunk and its arenas can be recycled.
			rowChunkPool.Put(nc)
			<-tokens
		}
		if werr != nil {
			break
		}
	}
	if werr != nil {
		return partial(werr)
	}
	if readErr != nil {
		// close(chunks) happened after readErr was set and the workers
		// finished every chunk before done closed, so the read is safe
		// and every row before the failure has been written.
		return partial(readErr)
	}
	if err := ctx.Err(); err != nil {
		return partial(err)
	}
	cw.Flush()
	return res, cw.Error()
}

// repairChunk repairs every row of c in place of the worker's pooled
// state and renders the formatted output rows. Repair is a pure
// function of the row's values (the engine is read-only and
// deterministic), so a cached outcome stands in for a fresh repair:
// with the global memo enabled each row is a read-through of the
// cross-request cache, deduplicating identical rows across chunks,
// calls, and connections, and counting each memo-served row exactly
// once in c.res.Deduped and the stream-dedup telemetry. With the memo
// disabled, the pre-memo in-chunk duplicate map stands in, limited to
// one chunk. Outcome tallies count every row, duplicates included, so
// the stream's accounting matches the serial path.
func (e *Engine) repairChunk(ctx context.Context, c *rowChunk, marked, ens bool) {
	c.res = newStreamResult(ens)
	arity := 0
	if len(c.rows) > 0 {
		arity = len(c.rows[0])
	}
	tup := &relation.Tuple{
		Values: make([]string, arity),
		Marked: make([]bool, arity),
	}
	// Output rows are fixed-stride views into the chunk's recycled
	// arena; nextOut never allocates once the chunk has been through
	// the pool at this (chunkSize, arity) shape. Ensemble mode widens
	// the stride by one for the trailing confidence column.
	outArity := arity
	if ens {
		outArity++
	}
	if n := len(c.rows) * outArity; cap(c.outBuf) < n {
		c.outBuf = make([]string, n)
	}
	nextOut := func() []string {
		n := len(c.out) * outArity
		out := c.outBuf[n : n+outArity : n+outArity]
		c.out = append(c.out, out)
		return out
	}
	// In-chunk dedup sits in front of repairRow on both the
	// memo-enabled and memo-disabled paths. With the memo on it is a
	// contention shield, not a correctness feature: skewed corpora
	// repeat the same hot row many times per chunk, and N workers
	// re-fetching one memo entry serialize on its shard — the
	// chunk-local map serves repeats with zero shared state while the
	// memo still deduplicates across chunks, calls, and connections.
	// With the memo off it is the only dedup there is. Either way,
	// duplicates are skipped while the circuit breaker is engaged, so
	// detect-only degradation and half-open probes see every row
	// exactly like the serial path.
	type dedupEntry struct {
		rec  []string // arena-backed input row, for collision checks
		out  []string
		oc   tupleOutcome
		conf float64
	}
	var dedup map[uint64]dedupEntry
	if len(c.rows) > 1 {
		dedup = make(map[uint64]dedupEntry, len(c.rows))
	}
	// Dedup-served rows touch no shared state in the loop: their
	// outcome counters accumulate here and flush once per chunk, so on
	// a skewed corpus the workers' only per-row cross-core traffic is
	// the occasional distinct row that actually reaches the memo.
	var dupOutcomes [3]int64
	for _, rec := range c.rows {
		var fp uint64
		cached := false
		if dedup != nil && !e.breakerEngaged() {
			// Keyed by the same alloc-free hash the memo uses; the
			// stored input row guards against a 64-bit collision.
			fp = chunkRowFP(rec)
			cached = true
			if ent, ok := dedup[fp]; ok && equalRow(ent.rec, rec) {
				// Copy the cached row into this row's own arena slot
				// (header copies only) rather than aliasing it: every
				// out row stays a distinct arena view, which is what
				// makes recycling the chunk safe.
				copy(nextOut(), ent.out)
				e.tally(&c.res, ent.oc, ent.conf, true, ens)
				// Duplicates still count as processed tuples in the
				// engine's lifetime and telemetry counters — batched
				// into the per-chunk flush below.
				dupOutcomes[ent.oc]++
				continue
			}
		}
		// owned=true: the reader stage copied the row out of the
		// csv.Reader's buffers, so the memo may retain its strings.
		out := nextOut()
		oc, conf, _ := e.streamRow(ctx, &c.res, tup, rec, out, marked, true, ens)
		if cached {
			dedup[fp] = dedupEntry{rec: rec, out: out, oc: oc, conf: conf}
		}
	}
	for oc, n := range dupOutcomes {
		e.countN(tupleOutcome(oc), n)
	}
	if c.res.Deduped > 0 {
		e.instr.streamDeduped.Add(int64(c.res.Deduped))
	}
	e.instr.streamChunks.Inc()
}

// chunkRowFP hashes one input row for the in-chunk dedup map with the
// memo's alloc-free mixer (unseeded: the chunk map never outlives one
// chunk of one schema, so the memo's schema seed adds nothing).
func chunkRowFP(rec []string) uint64 {
	var h uint64
	for _, v := range rec {
		h = fpString(h, v)
	}
	return fpFinish(h)
}
