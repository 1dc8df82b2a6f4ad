package repair

import "sync/atomic"

// BreakerOptions configures the repair circuit breaker. The breaker
// watches the rate of bad outcomes (quarantines and step-budget
// exhaustions) over a sliding sample window; when the rate trips the
// threshold the engine degrades to detect-only — rules still evaluate
// and mark the cells they implicate, but no value is rewritten and the
// memo is bypassed — until a half-open probe repair succeeds. The zero
// value leaves the breaker disabled.
type BreakerOptions struct {
	// Enabled turns the breaker on for the serving paths
	// (RepairTableParallel/RepairTableContext, the ensemble APIs,
	// streaming cleans, RepairRow). The evaluation paths (FastRepair,
	// RepairTable, BasicRepair, explanations) never consult it.
	Enabled bool
	// Window is how many full-repair outcomes one sample window holds.
	// The trip ratio is computed over the current and previous
	// windows, so the effective memory is up to 2×Window rows.
	// Default 512.
	Window int
	// MinSamples is the minimum combined sample count before the
	// breaker may trip, so a single early quarantine cannot open it.
	// Default 64.
	MinSamples int
	// TripRatio is the bad-outcome fraction at or above which the
	// breaker opens. Default 0.5.
	TripRatio float64
	// CooldownRows is how many rows are served detect-only after a
	// trip before the breaker goes half-open and risks one probe
	// repair. Default 256.
	CooldownRows int
	// PerRule additionally gives every rule its own breaker: a rule
	// whose own evaluations keep quarantining is skipped (its repairs
	// and marks suppressed) while healthy rules keep repairing,
	// recovering independently via per-rule half-open probes.
	PerRule bool
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 64
	}
	if o.TripRatio <= 0 || o.TripRatio > 1 {
		o.TripRatio = 0.5
	}
	if o.CooldownRows <= 0 {
		o.CooldownRows = 256
	}
	return o
}

// Breaker states. Closed = repairing normally; open = detect-only;
// half-open = detect-only except for single probe repairs that decide
// between reopening and closing.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerWindow is one sample window; all fields are atomics so the
// hot path records outcomes without a lock.
type breakerWindow struct {
	total atomic.Int64
	bad   atomic.Int64
}

// breaker is a lock-free sliding-window circuit breaker. Outcomes are
// recorded into a ring of windows indexed by an atomic epoch; the trip
// ratio reads the current and previous windows, giving a sliding view
// without stop-the-world resets. The ring holds 4 windows so the
// "next" window being zeroed for reuse is never one of the two being
// read.
type breaker struct {
	opts BreakerOptions

	state atomic.Int32
	epoch atomic.Int64
	win   [4]breakerWindow

	// degraded counts rows served detect-only since the breaker last
	// opened; reaching CooldownRows moves it to half-open.
	degraded atomic.Int64
	// probe is the half-open probe token: 1 when a probe repair may be
	// claimed.
	probe atomic.Int32

	// lifetime counters for stats and telemetry.
	trips         atomic.Int64
	reopens       atomic.Int64
	recoveries    atomic.Int64
	degradedTotal atomic.Int64
}

func (b *breaker) init(o BreakerOptions) { b.opts = o }

// admit decides how the next tuple runs: degrade means detect-only
// (skip the repair and the memo), probe means this tuple holds the
// half-open probe token and must run a fresh full repair whose outcome
// resolves the breaker.
func (b *breaker) admit() (degrade, probe bool) {
	switch b.state.Load() {
	case breakerClosed:
		return false, false
	case breakerOpen:
		b.degradedTotal.Add(1)
		if b.degraded.Add(1) >= int64(b.opts.CooldownRows) {
			if b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
				b.probe.Store(1)
			}
		}
		return true, false
	default: // half-open
		if b.probe.CompareAndSwap(1, 0) {
			return false, true
		}
		b.degradedTotal.Add(1)
		return true, false
	}
}

// record folds one full-repair outcome into the sliding window and
// trips the breaker when the bad rate crosses the threshold. Degraded
// (detect-only) rows are not samples; memo replays are not samples
// either — only repairs that actually ran.
func (b *breaker) record(bad bool) {
	e := b.epoch.Load()
	w := &b.win[e&3]
	t := w.total.Add(1)
	if bad {
		w.bad.Add(1)
	}
	if t == int64(b.opts.Window) {
		// This exact add filled the window: zero the window after next
		// for reuse, then advance. The CAS makes late stragglers (who
		// loaded the old epoch) harmless — they add to the previous
		// window, which the ratio still reads.
		nxt := &b.win[(e+2)&3]
		nxt.total.Store(0)
		nxt.bad.Store(0)
		b.epoch.CompareAndSwap(e, e+1)
	}
	if bad {
		b.maybeTrip()
	}
}

func (b *breaker) maybeTrip() {
	if b.state.Load() != breakerClosed {
		return
	}
	e := b.epoch.Load()
	cur, prev := &b.win[e&3], &b.win[(e+3)&3]
	total := cur.total.Load() + prev.total.Load()
	if total < int64(b.opts.MinSamples) {
		return
	}
	bad := cur.bad.Load() + prev.bad.Load()
	if float64(bad) >= b.opts.TripRatio*float64(total) {
		if b.state.CompareAndSwap(breakerClosed, breakerOpen) {
			b.degraded.Store(0)
			b.trips.Add(1)
		}
	}
}

// resolveProbe records the outcome of the half-open probe repair. Only
// the goroutine that claimed the probe token calls this, so plain
// stores are race-free against admit's loads.
func (b *breaker) resolveProbe(bad bool) {
	if bad {
		b.degraded.Store(0)
		b.reopens.Add(1)
		b.state.Store(breakerOpen)
		return
	}
	// Recovered: clear every window so pre-trip history cannot
	// immediately re-trip, then close.
	for i := range b.win {
		b.win[i].total.Store(0)
		b.win[i].bad.Store(0)
	}
	b.recoveries.Add(1)
	b.state.Store(breakerClosed)
}

// windowCounts returns the sample and bad counts the trip ratio
// currently sees.
func (b *breaker) windowCounts() (total, bad int64) {
	e := b.epoch.Load()
	cur, prev := &b.win[e&3], &b.win[(e+3)&3]
	return cur.total.Load() + prev.total.Load(), cur.bad.Load() + prev.bad.Load()
}

// BreakerStats is a snapshot of the circuit breaker, surfaced through
// GET /stats and expvar-style debugging. The zero value (Enabled
// false) is returned when the breaker is disabled.
type BreakerStats struct {
	Enabled bool `json:"enabled"`
	// State is "closed", "open", or "half-open".
	State string `json:"state,omitempty"`
	// Trips counts closed→open transitions; Reopens counts failed
	// half-open probes; Recoveries counts successful ones.
	Trips      int64 `json:"trips,omitempty"`
	Reopens    int64 `json:"reopens,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// DegradedRows counts rows served detect-only.
	DegradedRows int64 `json:"degradedRows,omitempty"`
	// WindowTotal/WindowBad are the samples the trip ratio currently
	// sees.
	WindowTotal int64 `json:"windowTotal,omitempty"`
	WindowBad   int64 `json:"windowBad,omitempty"`
	// OpenRules names the rules whose per-rule breakers are not
	// closed, when BreakerOptions.PerRule is set.
	OpenRules []string `json:"openRules,omitempty"`
}

// BreakerStats snapshots the engine's circuit breaker.
func (e *Engine) BreakerStats() BreakerStats {
	b := e.breaker
	if b == nil {
		return BreakerStats{}
	}
	total, bad := b.windowCounts()
	s := BreakerStats{
		Enabled:      true,
		State:        breakerStateName(b.state.Load()),
		Trips:        b.trips.Load(),
		Reopens:      b.reopens.Load(),
		Recoveries:   b.recoveries.Load(),
		DegradedRows: b.degradedTotal.Load(),
		WindowTotal:  total,
		WindowBad:    bad,
	}
	for i := range e.ruleBreakers {
		rb := &e.ruleBreakers[i]
		if rb.state.Load() != breakerClosed {
			s.OpenRules = append(s.OpenRules, e.Graph.Rules[i].Name)
		}
	}
	return s
}

// breakerAdmit consults the global breaker for the next serving-path
// tuple; (false, false) when the breaker is disabled.
func (e *Engine) breakerAdmit() (degrade, probe bool) {
	if e.breaker == nil {
		return false, false
	}
	return e.breaker.admit()
}

// breakerEngaged reports whether the global breaker is anywhere but
// closed. The streaming pipeline bypasses its chunk-local dedup while
// it is, so detect-only degradation and half-open probes see every
// row, exactly like the serial path.
func (e *Engine) breakerEngaged() bool {
	return e.breaker != nil && e.breaker.state.Load() != breakerClosed
}

// breakerObserve folds one completed full repair into the global and
// per-rule breakers. runSafe calls it exactly once per non-degraded
// serving-path tuple — including after a panic, where st (though
// abandoned for pooling) still carries the rule attribution.
func (e *Engine) breakerObserve(st *fastState, oc tupleOutcome) {
	bad := oc != tupleOK
	if b := e.breaker; b != nil {
		if st.probe {
			b.resolveProbe(bad)
		} else {
			b.record(bad)
		}
	}
	if e.ruleBreakers != nil {
		badRule := int32(-1)
		if bad {
			// The rule being evaluated when the panic or budget
			// exhaustion happened; -1 when the failure predates any
			// rule step.
			badRule = st.lastRule
		}
		for _, idx := range st.ran {
			e.ruleBreakers[idx].record(idx == badRule)
		}
		for _, p := range st.probes {
			e.ruleBreakers[p].resolveProbe(p == badRule)
		}
	}
}
