package repair

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"detective/internal/relation"
)

// flushEvery is how many cleaned rows the streaming cleaner buffers
// before forcing the csv.Writer through to the sink. Keeping it small
// bounds both memory and the staleness of partial output: whatever was
// cleaned before a mid-stream failure has already been flushed.
const flushEvery = 64

// StreamResult is the per-call accounting of one streaming clean.
type StreamResult struct {
	// Rows is the number of rows written to the sink (cleaned,
	// quarantined and degraded rows alike).
	Rows int
	// Quarantined counts rows whose repair panicked and were emitted
	// unchanged.
	Quarantined int
	// BudgetExhausted counts rows that exceeded the fixpoint step
	// budget and were emitted unchanged.
	BudgetExhausted int
	// Deduped counts rows whose repair was answered from a cache
	// instead of being recomputed: the global cross-request memo when
	// it is enabled (serial and parallel paths alike, and across
	// chunks and calls), otherwise the parallel pipeline's in-chunk
	// duplicate cache (always 0 on the serial path). Each served row
	// is counted exactly once, and still counts in Rows and in the
	// outcome tallies above.
	Deduped int

	// Ensemble-mode confidence accounting (zero on single-engine
	// streams): ConfidenceSum is the sum of per-row confidences (mean
	// = ConfidenceSum/Rows), MinConfidence the minimum over all rows
	// (1 when no row was contested), and BelowThreshold the number of
	// rows whose confidence fell below the acceptance threshold —
	// rows carrying at least one detect-only degraded cell.
	ConfidenceSum  float64
	MinConfidence  float64
	BelowThreshold int
}

// CleanCSVStream cleans CSV row by row without materializing the
// table — the shape needed for inputs larger than memory (the paper's
// engine is embarrassingly per-tuple, §V-B). The first record must be
// a header matching the engine's schema. Marked cells get a "+"
// suffix when marked is true. It returns the number of rows cleaned.
func (e *Engine) CleanCSVStream(r io.Reader, w io.Writer, marked bool) (int, error) {
	res, err := e.CleanCSVStreamContext(context.Background(), r, w, marked)
	return res.Rows, err
}

// CleanCSVStreamContext is CleanCSVStream with cancellation, panic
// quarantine, and per-call accounting. Between rows it checks ctx and
// stops promptly when the context is done. Any mid-stream failure —
// cancellation, a CSV parse error, a read error, a sink write error —
// returns a *PartialError whose Done field equals Rows: every row
// cleaned before the failure has already been flushed to w. Header
// validation errors are returned plain (nothing was written). A row
// whose repair panics or exhausts the step budget is emitted
// unchanged and tallied, not treated as a failure.
//
// With Options.Workers > 1 the rows are repaired by the chunked
// parallel pipeline (see pipeline.go); the output bytes, the flush
// cadence and the error semantics are identical to the serial path.
func (e *Engine) CleanCSVStreamContext(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamResult, error) {
	return e.cleanCSVStream(ctx, r, w, marked, false)
}

// CleanCSVStreamEnsemble is CleanCSVStreamEnsembleContext without
// cancellation.
func (e *Engine) CleanCSVStreamEnsemble(r io.Reader, w io.Writer, marked bool) (StreamResult, error) {
	return e.CleanCSVStreamEnsembleContext(context.Background(), r, w, marked)
}

// CleanCSVStreamEnsembleContext is the ensemble-mode streaming clean:
// every row is repaired by the weighted vote over the detective
// engine and the configured auxiliary proposers, and the output CSV
// carries one extra trailing "confidence" column holding the row's
// confidence (three decimals). Error and flush semantics match
// CleanCSVStreamContext. It errors when the engine was built without
// Options.Ensemble.Enabled.
func (e *Engine) CleanCSVStreamEnsembleContext(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamResult, error) {
	if e.ens == nil {
		return StreamResult{}, fmt.Errorf("repair: ensemble mode not enabled on this engine")
	}
	return e.cleanCSVStream(ctx, r, w, marked, true)
}

func (e *Engine) cleanCSVStream(ctx context.Context, r io.Reader, w io.Writer, marked, ens bool) (StreamResult, error) {
	var res StreamResult
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return res, fmt.Errorf("repair: reading CSV header: %w", err)
	}
	if len(header) != e.Schema.Arity() {
		return res, fmt.Errorf("repair: CSV has %d columns, schema %q has %d",
			len(header), e.Schema.Name, e.Schema.Arity())
	}
	for i, a := range e.Schema.Attrs {
		if header[i] != a {
			return res, fmt.Errorf("repair: CSV column %d is %q, schema expects %q", i, header[i], a)
		}
	}

	cw := csv.NewWriter(w)
	outHeader := header
	if ens {
		outHeader = append(append([]string(nil), header...), "confidence")
	}
	if err := cw.Write(outHeader); err != nil {
		return res, err
	}
	// Steady-state cleaning reuses the reader's record buffer; the
	// serial path consumes each record before the next read, and the
	// parallel reader stage deep-copies rows before they cross the
	// chunk channel.
	cr.ReuseRecord = true
	if e.opts.Workers > 1 {
		return e.cleanStreamParallel(ctx, cr, cw, len(header), marked, ens)
	}
	return e.cleanStreamSerial(ctx, cr, cw, len(header), marked, ens)
}

// formatConf renders a row confidence for the CSV confidence column.
func formatConf(conf float64) string { return strconv.FormatFloat(conf, 'f', 3, 64) }

// cleanStreamSerial is the single-core streaming path: one record, one
// tuple, and the engine's pooled repair state are reused, so the only
// per-row allocations left are the rewritten cell values themselves.
func (e *Engine) cleanStreamSerial(ctx context.Context, cr *csv.Reader, cw *csv.Writer, arity int, marked, ens bool) (StreamResult, error) {
	res := newStreamResult(ens)
	// partial wraps a mid-stream failure: everything written so far is
	// pushed through to the sink first, so the error's Done count is
	// also the number of rows the consumer actually received.
	partial := func(err error) (StreamResult, error) {
		cw.Flush()
		return res, &PartialError{Done: res.Rows, Err: err}
	}
	outArity := arity
	if ens {
		outArity++ // trailing confidence column
	}
	out := make([]string, outArity)
	tup := &relation.Tuple{
		Values: make([]string, arity),
		Marked: make([]bool, arity),
	}
	for lineno := 2; ; lineno++ {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return partial(fmt.Errorf("repair: reading CSV: %w", err))
		}
		if len(rec) != arity {
			return partial(fmt.Errorf("repair: CSV line %d has %d fields, want %d", lineno, len(rec), arity))
		}
		// owned=false: with ReuseRecord the record's strings alias the
		// reader's buffer, so anything the memo retains is cloned.
		if _, _, hit := e.streamRow(ctx, &res, tup, rec, out, marked, false, ens); hit {
			e.instr.streamDeduped.Inc()
		}
		if err := cw.Write(out); err != nil {
			return partial(err)
		}
		res.Rows++
		if res.Rows%flushEvery == 0 {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return partial(err)
			}
		}
	}
	cw.Flush()
	return res, cw.Error()
}

// newStreamResult is the zero tally of one stream (or one pipeline
// chunk): an ensemble stream's MinConfidence starts at 1, the
// confidence of a row no engine contested.
func newStreamResult(ens bool) StreamResult {
	var r StreamResult
	if ens {
		r.MinConfidence = 1
	}
	return r
}

// merge folds a pipeline chunk's tally into r. Rows is not merged:
// the reassembly stage counts rows as it writes them.
func (r *StreamResult) merge(c StreamResult) {
	r.Quarantined += c.Quarantined
	r.BudgetExhausted += c.BudgetExhausted
	r.Deduped += c.Deduped
	r.ConfidenceSum += c.ConfidenceSum
	r.MinConfidence = min(r.MinConfidence, c.MinConfidence)
	r.BelowThreshold += c.BelowThreshold
}

// tally folds one emitted row into r: its degradation verdict, whether
// a cache served it, and on ensemble streams its confidence.
func (e *Engine) tally(r *StreamResult, oc tupleOutcome, conf float64, hit, ens bool) {
	switch oc {
	case tupleQuarantined:
		r.Quarantined++
	case tupleBudgetExhausted:
		r.BudgetExhausted++
	}
	if hit {
		r.Deduped++
	}
	if ens {
		r.ConfidenceSum += conf
		r.MinConfidence = min(r.MinConfidence, conf)
		if conf < e.ens.threshold {
			r.BelowThreshold++
		}
	}
}

// streamRow is the per-row step shared by the serial stream loop and
// the pipeline's workers: it repairs the unmarked record rec into tup
// through repairRow, renders the output row into out (whose last cell
// is the confidence column on ensemble streams) and tallies the row
// into res. owned follows putTuple's contract.
func (e *Engine) streamRow(ctx context.Context, res *StreamResult, tup *relation.Tuple, rec, out []string, marked, owned, ens bool) (tupleOutcome, float64, bool) {
	mode := rowServe
	if ens {
		mode = rowEnsemble
	}
	oc, conf, hit := e.repairRow(ctx, tup, rec, nil, owned, mode)
	formatRow(out[:len(rec)], tup, marked)
	if ens {
		out[len(rec)] = formatConf(conf)
	}
	e.tally(res, oc, conf, hit, ens)
	return oc, conf, hit
}

// formatRow renders a repaired tuple into dst, applying the "+" mark
// suffix when marked is set.
func formatRow(dst []string, tup *relation.Tuple, marked bool) {
	for i, v := range tup.Values {
		if marked && tup.Marked[i] {
			dst[i] = v + "+"
		} else {
			dst[i] = v
		}
	}
}
