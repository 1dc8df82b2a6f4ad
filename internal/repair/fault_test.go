package repair_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/faultinject"
	"detective/internal/relation"
	"detective/internal/repair"
)

// --- panic quarantine -------------------------------------------------

func TestFaultPanicQuarantineParallel(t *testing.T) {
	ex := dataset.NewPaperExample()
	poison := "POISON-NAME-77Q"
	dirty := ex.Dirty.Clone()
	dirty.SetCell(2, "Name", poison)

	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.PanicOnValue(poison)()

	out, stats, err := e.RepairTableContext(context.Background(), dirty, 4)
	if err != nil {
		t.Fatalf("RepairTableContext: %v", err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("stats.Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Repaired != int64(dirty.Len()-1) {
		t.Fatalf("stats.Repaired = %d, want %d", stats.Repaired, dirty.Len()-1)
	}
	// The poisoned row passes through unchanged and unmarked.
	if !out.Tuples[2].EqualMarked(dirty.Tuples[2]) {
		t.Errorf("poisoned row was modified: %v", out.Tuples[2])
	}
	// The other rows of the same request are still cleaned.
	want := e.RepairTable(ex.Dirty, true)
	for _, i := range []int{0, 1, 3} {
		if !out.Tuples[i].EqualMarked(want.Tuples[i]) {
			t.Errorf("row %d: got %v, want %v", i, out.Tuples[i], want.Tuples[i])
		}
	}
	if got := e.Stats(); got.Quarantined != 1 {
		t.Errorf("engine lifetime Quarantined = %d, want 1", got.Quarantined)
	}

	// Every other fast entry point runs through the same row core, so
	// each quarantines the poisoned row identically on a fresh engine:
	// returned unchanged and unmarked, tallied once.
	poisoned := dirty.Tuples[2]
	fresh := func(t *testing.T) *repair.Engine {
		t.Helper()
		e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	quarantined := func(t *testing.T, e *repair.Engine, got *relation.Tuple, before int64) {
		t.Helper()
		if !got.EqualMarked(poisoned) {
			t.Errorf("poisoned row was modified: %v", got)
		}
		if q := e.Stats().Quarantined; q != before+1 {
			t.Errorf("Quarantined = %d, want %d", q, before+1)
		}
	}
	t.Run("RepairTable", func(t *testing.T) {
		e := fresh(t)
		quarantined(t, e, e.RepairTable(dirty, true).Tuples[2], 0)
	})
	t.Run("FastRepair", func(t *testing.T) {
		e := fresh(t)
		quarantined(t, e, e.FastRepair(poisoned), 0)
	})
	t.Run("FastRepairAfterStream", func(t *testing.T) {
		// The stream memoizes the quarantine verdict; FastRepair then
		// replays it from the memo.
		e := fresh(t)
		var in, out bytes.Buffer
		if err := dirty.WriteCSV(&in); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CleanCSVStreamContext(context.Background(), &in, &out, false); err != nil {
			t.Fatal(err)
		}
		quarantined(t, e, e.FastRepair(poisoned), 1)
	})
	t.Run("FastRepairExplain", func(t *testing.T) {
		e := fresh(t)
		got, steps := e.FastRepairExplain(poisoned)
		quarantined(t, e, got, 0)
		if len(steps) != 0 {
			t.Errorf("quarantined explain kept %d steps", len(steps))
		}
	})
}

func TestFaultPanicQuarantineStream(t *testing.T) {
	ex := dataset.NewPaperExample()
	poison := "POISON-NAME-88S"
	dirty := ex.Dirty.Clone()
	dirty.SetCell(1, "Name", poison)

	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.PanicOnValue(poison)()

	var in, out bytes.Buffer
	if err := dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	res, err := e.CleanCSVStreamContext(context.Background(), &in, &out, false)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Rows != dirty.Len() || res.Quarantined != 1 {
		t.Fatalf("res = %+v, want Rows=%d Quarantined=1", res, dirty.Len())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != dirty.Len()+1 {
		t.Fatalf("output has %d lines, want %d", len(lines), dirty.Len()+1)
	}
	// The poisoned row is emitted with its original values.
	if got, want := lines[2], strings.Join(dirty.Tuples[1].Values, ","); got != want {
		t.Errorf("poisoned row = %q, want %q", got, want)
	}
	// A non-poisoned row is still cleaned (r1's City Karcag -> Haifa).
	if !strings.Contains(lines[1], "Haifa") {
		t.Errorf("row 1 not cleaned: %q", lines[1])
	}
}

// --- step budget ------------------------------------------------------

func TestFaultStepBudgetDegradesToOriginal(t *testing.T) {
	ex := dataset.NewPaperExample()
	// Every dirty row of the running example needs more than one rule
	// application, so budget 1 forces the degrade path.
	e, err := repair.NewEngineWithOptions(ex.Rules, ex.KB, ex.Schema, repair.Options{StepBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	tu := ex.Dirty.Tuples[0]
	if got := e.FastRepair(tu); !got.EqualMarked(tu) {
		t.Errorf("fast: degraded tuple differs from original: %v", got)
	}
	if got := e.BasicRepair(tu); !got.EqualMarked(tu) {
		t.Errorf("basic: degraded tuple differs from original: %v", got)
	}
	repaired, steps := e.FastRepairExplain(tu)
	if !repaired.EqualMarked(tu) || len(steps) != 0 {
		t.Errorf("explain: degraded tuple changed or kept %d steps", len(steps))
	}
	if got := e.Stats(); got.BudgetExhausted < 3 {
		t.Errorf("BudgetExhausted = %d, want >= 3", got.BudgetExhausted)
	}

	// A generous budget repairs normally.
	full, err := repair.NewEngineWithOptions(ex.Rules, ex.KB, ex.Schema, repair.Options{StepBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	def, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.FastRepair(tu), def.FastRepair(tu); !got.EqualMarked(want) {
		t.Errorf("budget 1000 changed the result: %v != %v", got, want)
	}
	if got := full.Stats(); got.BudgetExhausted != 0 {
		t.Errorf("generous budget exhausted %d times", got.BudgetExhausted)
	}
}

func TestFaultStepBudgetStream(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngineWithOptions(ex.Rules, ex.KB, ex.Schema, repair.Options{StepBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var in, out bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	res, err := e.CleanCSVStreamContext(context.Background(), &in, &out, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != ex.Dirty.Len() || res.BudgetExhausted != ex.Dirty.Len() {
		t.Fatalf("res = %+v, want all %d rows budget-exhausted", res, ex.Dirty.Len())
	}
	// Degraded rows are the original values, unmarked.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, tu := range ex.Dirty.Tuples {
		if got, want := lines[i+1], strings.Join(tu.Values, ","); got != want {
			t.Errorf("row %d = %q, want original %q", i, got, want)
		}
	}
}

// --- cancellation -----------------------------------------------------

func TestFaultRepairTableContextCancel(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := e.RepairTableContext(ctx, ex.Dirty, 2)
	var pe *repair.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err does not wrap context.Canceled: %v", err)
	}
	if pe.Done != int(stats.Repaired+stats.Quarantined+stats.BudgetExhausted) {
		t.Errorf("Done = %d, stats = %+v", pe.Done, stats)
	}
	// The partial table is complete and well-formed: unprocessed rows
	// pass through unchanged.
	if out.Len() != ex.Dirty.Len() {
		t.Fatalf("partial table has %d rows, want %d", out.Len(), ex.Dirty.Len())
	}
	for i, tu := range out.Tuples {
		if tu == nil {
			t.Fatalf("row %d is nil", i)
		}
	}
}

func TestFaultStreamCancelBeforeRows(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var in, out bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.CleanCSVStreamContext(ctx, &in, &out, false)
	var pe *repair.PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *PartialError wrapping context.Canceled", err)
	}
	if res.Rows != 0 || pe.Done != 0 {
		t.Errorf("res.Rows = %d, Done = %d, want 0", res.Rows, pe.Done)
	}
	// The header was already validated and flushed; nothing else.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "Name,") {
		t.Errorf("partial output = %q, want header only", out.String())
	}
}

// --- chaotic I/O ------------------------------------------------------

// TestFaultStreamChaoticReader drives the cleaner through a reader
// that delivers 7-byte short reads and dies mid-way through the third
// data row: every previously cleaned row must already be flushed and
// counted.
func TestFaultStreamChaoticReader(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	data := in.Bytes()
	// Fail five bytes into the third data row.
	nl := 0
	cut := 0
	for i, b := range data {
		if b == '\n' {
			if nl++; nl == 3 { // header + two rows delivered intact
				cut = i + 1 + 5
				break
			}
		}
	}
	r := &faultinject.Reader{R: bytes.NewReader(data), Chunk: 7, FailAfter: int64(cut)}
	var out bytes.Buffer
	res, err := e.CleanCSVStreamContext(context.Background(), r, &out, false)
	var pe *repair.PartialError
	if !errors.As(err, &pe) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want *PartialError wrapping ErrInjected", err)
	}
	if res.Rows != 2 || pe.Done != 2 {
		t.Fatalf("res.Rows = %d, Done = %d, want 2", res.Rows, pe.Done)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("flushed output has %d lines, want header + 2 cleaned rows:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[1], "Haifa") {
		t.Errorf("row 1 was not cleaned before the fault: %q", lines[1])
	}
}

func TestFaultStreamFailingWriter(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	w := &faultinject.Writer{FailAfter: 0}
	if _, err := e.CleanCSVStreamContext(context.Background(), &in, w, false); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
