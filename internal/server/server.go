// Package server exposes a loaded cleaning engine over HTTP — the
// deployment shape a downstream user would actually run: load the KB
// and the verified rule set once, then clean tables by POSTing CSV.
//
//	POST /clean          CSV in, cleaned CSV out, streamed row by row
//	                     (?marked=1 appends '+' to positively proven
//	                     cells); per-request stats arrive as trailers
//	POST /explain        CSV in, JSON out: per-tuple repairs, marks and
//	                     rule applications with their KB witnesses
//	GET  /rules          the loaded rule set in the rule text format
//	GET  /stats          KB, rule-set and engine statistics as JSON
//	GET  /healthz        liveness (the process is up)
//	GET  /readyz         readiness (warmed and not draining)
//
// The handler is safe for concurrent requests: the engine is read-only
// after construction and is pre-warmed at server creation. Requests
// run under a per-request deadline, cleaning endpoints behind a
// concurrency limit that sheds overload with 429 + Retry-After, and
// every per-tuple failure (panic, step-budget exhaustion) is
// quarantined by the engine instead of failing the request. Errors are
// JSON envelopes: {"error":{"status":...,"message":...}}. With
// Config.StreamWorkers > 1, each /clean request's rows are repaired by
// the chunked parallel pipeline with ordered reassembly — same output
// bytes, more cores per stream.
//
// Every route is instrumented through internal/telemetry: per-route
// request counters and latency histograms, an in-flight gauge,
// shed/413/timeout counters, and catalog + signature-index cache
// exports, all scrapeable as Prometheus text on the ops listener
// (cmd/detectived -ops-addr). Each request carries a span whose ID is
// echoed as X-Request-ID and attached to the structured logs.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"detective/internal/kb"
	"detective/internal/kb/verify"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/repair/ensemble"
	"detective/internal/rules"
	"detective/internal/telemetry"
)

// Trailer names carrying per-request cleaning stats on POST /clean.
// The X-Clean-Confidence-* trailers appear only on ensemble requests
// (?ensemble=1 against an ensemble-enabled server).
const (
	TrailerRows            = "X-Clean-Rows"
	TrailerQuarantined     = "X-Clean-Quarantined"
	TrailerBudgetExhausted = "X-Clean-Budget-Exhausted"
	TrailerConfidenceMean  = "X-Clean-Confidence-Mean"
	TrailerConfidenceMin   = "X-Clean-Confidence-Min"
	TrailerConfidenceBelow = "X-Clean-Confidence-Below"
)

// Config tunes the server's fault-tolerance envelope. The zero value
// picks production defaults.
type Config struct {
	// RequestTimeout is the per-request deadline. /clean enforces it
	// through the request context (checked between streamed rows);
	// buffered endpoints sit behind http.TimeoutHandler. Default 30s.
	RequestTimeout time.Duration
	// MaxConcurrent bounds concurrently served cleaning requests
	// (/clean and /explain); excess load is shed with 429 and a
	// Retry-After header. Default 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxBodyBytes caps the request body; larger bodies get 413.
	// Default 64 MiB.
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs (access
	// logs at Debug, slow requests at Warn). Nil uses slog.Default().
	Logger *slog.Logger
	// Metrics is the registry the server's HTTP metrics and cache
	// exports register into. Nil uses telemetry.Default().
	Metrics *telemetry.Registry
	// SlowRequestThreshold is the latency above which a request is
	// logged as slow (sampled, with its request ID). Default 5s.
	SlowRequestThreshold time.Duration
	// StreamWorkers fans each POST /clean request's repair work out
	// over this many pipeline workers (repair.Options.Workers). 0 or 1
	// keeps the serial per-request path — the right default when the
	// server is already saturated by MaxConcurrent parallel requests;
	// raise it when individual large streams need to finish faster
	// than one core allows. Output is byte-identical either way.
	StreamWorkers int
	// StreamChunkSize is the rows-per-chunk of the streaming pipeline
	// when StreamWorkers > 1. 0 picks repair.DefaultStreamChunkSize.
	StreamChunkSize int
	// MemoBytes is the byte budget of the engine's global
	// cross-request repair memo (repair.Options.MemoBytes): repeated
	// tuples and hot cell values across requests and connections are
	// answered from cache, byte-identical to a fresh repair, and hot
	// KB reloads invalidate it by generation. 0 picks
	// repair.DefaultMemoBytes; negative disables it, as does
	// MemoDisabled.
	MemoBytes int64
	// MemoDisabled turns the repair memo off.
	MemoDisabled bool
	// VerifyMode is the KB integrity self-check mode applied to every
	// candidate graph handed to StageReloadKB: "off", "warn" (default —
	// findings are logged, the reload proceeds) or "strict" (a report
	// with errors rejects the candidate before it is ever served).
	VerifyMode string
	// RetainGenerations is how many previously-served graphs the store
	// keeps for rollback (POST /rollback and the canary watchdog).
	// 0 picks 2; negative disables retention.
	RetainGenerations int
	// RecorderRows and RecorderSampleEvery size the ring buffer of
	// recent input rows the canary replays against a candidate graph:
	// up to RecorderRows rows (0 picks 1024), sampling one row in every
	// RecorderSampleEvery (0 picks 16). RecorderSampleEvery < 0
	// disables recording — and with it the shadow replay.
	RecorderRows        int
	RecorderSampleEvery int
	// CanaryRows caps how many recorded rows the staged reload replays
	// through scratch engines on the live and candidate graphs before
	// promoting. 0 replays the whole ring; negative skips the replay.
	CanaryRows int
	// CanaryMaxBadDelta is the gate on the shadow replay: the
	// candidate's bad-row rate (quarantined or step-budget-exhausted)
	// may exceed the live graph's by at most this fraction, else the
	// candidate is rejected. 0 picks 0.10.
	CanaryMaxBadDelta float64
	// CanaryMaxDivergence, when > 0, additionally rejects a candidate
	// whose replay output differs from the live graph's on more than
	// this fraction of rows. Divergence is expected when the KB content
	// legitimately changed, so it is reported but not gated by default.
	CanaryMaxDivergence float64
	// CanaryWatch enables the post-promote watchdog for this long: if
	// the live bad-row rate over the rows served on the new generation
	// exceeds the pre-swap rate by CanaryMaxBadDelta (after
	// CanaryWatchMinRows rows), the server auto-rolls back to the
	// previous retained generation. 0 disables the watchdog.
	CanaryWatch time.Duration
	// CanaryWatchMinRows is the minimum number of post-swap rows before
	// the watchdog may roll back. 0 picks 32.
	CanaryWatchMinRows int
	// Breaker configures the engine's repair circuit breaker
	// (repair.BreakerOptions); the zero value leaves it disabled.
	Breaker repair.BreakerOptions
	// Ensemble configures the engine's multi-engine repair vote
	// (repair.Options.Ensemble). When Enabled, POST /clean?ensemble=1
	// repairs each row by the weighted vote over the detective engine
	// and the configured auxiliary proposers; the response carries a
	// trailing "confidence" CSV column and X-Clean-Confidence-*
	// trailers. Plain /clean requests keep the single-engine path and
	// its exact output bytes. The KB integrity self-check
	// (VerifyMode != "off") additionally feeds the vote's suspicion
	// signal on every (re)load, and each promoted canary refreshes the
	// per-engine reliability weights.
	Ensemble repair.EnsembleOptions
	// MetricLabels is attached to every KB-lifecycle and cache series
	// this server registers (reload/rollback/canary counters, load
	// gauge, generation, catalog caches). Multi-tenant deployments set
	// {tenant="..."} so each tenant's server owns its own series in the
	// shared registry; single-tenant servers leave it nil and keep the
	// historical unlabeled names.
	MetricLabels []telemetry.Label
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.Default()
	}
	if c.SlowRequestThreshold <= 0 {
		c.SlowRequestThreshold = 5 * time.Second
	}
	if c.RetainGenerations == 0 {
		c.RetainGenerations = 2
	}
	if c.RecorderRows <= 0 {
		c.RecorderRows = 1024
	}
	if c.RecorderSampleEvery == 0 {
		c.RecorderSampleEvery = 16
	}
	if c.CanaryMaxBadDelta <= 0 {
		c.CanaryMaxBadDelta = 0.10
	}
	if c.CanaryWatchMinRows <= 0 {
		c.CanaryWatchMinRows = 32
	}
	return c
}

// Server handles cleaning requests for one (rules, KB, schema) triple.
type Server struct {
	engine *repair.Engine
	store  *kb.Store
	rules  []*rules.DR
	schema *relation.Schema
	mux    *http.ServeMux
	cfg    Config
	log    *slog.Logger
	sem    chan struct{} // cleaning-concurrency semaphore
	ready  atomic.Bool   // readiness: warmed and not draining

	// reloadMu serializes ReloadKB: one load-and-swap at a time, so an
	// operator hammering POST /reload cannot interleave half-built
	// graphs. Cleaning requests never take it — they pin a graph per
	// tuple and are oblivious to swaps.
	reloadMu sync.Mutex

	// Overload/limit counters, exported through the telemetry registry
	// next to the middleware's per-route metrics.
	shedTotal     *telemetry.Counter // 429: concurrency limit
	tooLargeTotal *telemetry.Counter // 413: body over MaxBodyBytes
	timeoutTotal  *telemetry.Counter // request deadline expiries

	reloadTotal *telemetry.Counter // completed KB hot-swaps
	loadSeconds *telemetry.Gauge   // wall time of the last KB load

	// Incremental (DKBD) delta reload accounting: promoted delta
	// applies, the triple ops they carried, and the wall time of the
	// most recent copy-on-write apply.
	deltaAppliedTotal *telemetry.Counter
	deltaTriplesTotal *telemetry.Counter
	deltaApplySeconds *telemetry.Gauge

	// Self-healing lifecycle (canary.go): the integrity self-check mode
	// for candidate graphs, the sampled ring of recent input rows the
	// canary replays, and the rollback/canary accounting.
	verifyMode          verify.Mode
	recorder            *repair.RowRecorder
	canaryStagedTotal   *telemetry.Counter // StageReloadKB candidates considered
	canaryRejectedTotal *telemetry.Counter // candidates rejected pre-promote
	canaryRollbackTotal *telemetry.Counter // watchdog-initiated rollbacks
	rollbackTotal       *telemetry.Counter // all rollbacks (manual + auto)
}

// New builds the server with default Config and pre-warms the
// engine's indexes.
func New(drs []*rules.DR, g *kb.Graph, schema *relation.Schema) (*Server, error) {
	return NewWithConfig(drs, g, schema, Config{})
}

// NewWithConfig is New with explicit fault-tolerance settings.
func NewWithConfig(drs []*rules.DR, g *kb.Graph, schema *relation.Schema, cfg Config) (*Server, error) {
	return NewWithStore(drs, kb.NewStore(g), schema, cfg)
}

// NewWithStore builds the server on a caller-owned kb.Store, the
// hot-swap shape: the caller (cmd/detectived's SIGHUP handler, tests)
// can later publish a replacement graph through ReloadKB or the store
// itself while requests keep streaming.
func NewWithStore(drs []*rules.DR, store *kb.Store, schema *relation.Schema, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	mode, err := verify.ParseMode(cfg.VerifyMode)
	if err != nil {
		return nil, err
	}
	var recorder *repair.RowRecorder
	if cfg.RecorderSampleEvery > 0 {
		recorder = repair.NewRowRecorder(cfg.RecorderRows, cfg.RecorderSampleEvery)
	}
	if cfg.RetainGenerations > 0 {
		store.SetRetain(cfg.RetainGenerations)
	}
	e, err := repair.NewEngineStore(drs, store, schema, repair.Options{
		Workers:      cfg.StreamWorkers,
		ChunkSize:    cfg.StreamChunkSize,
		MemoBytes:    cfg.MemoBytes,
		MemoDisabled: cfg.MemoDisabled,
		Breaker:      cfg.Breaker,
		Recorder:     recorder,
		Ensemble:     cfg.Ensemble,
	})
	if err != nil {
		return nil, err
	}
	e.Warm()
	s := &Server{
		engine:     e,
		store:      store,
		rules:      drs,
		schema:     schema,
		mux:        http.NewServeMux(),
		cfg:        cfg,
		log:        cfg.Logger,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		verifyMode: mode,
		recorder:   recorder,
	}

	reg := cfg.Metrics
	labels := cfg.MetricLabels
	s.shedTotal = reg.Counter("detective_http_shed_total",
		"Cleaning requests shed with 429 because the concurrency limit was reached.", labels...)
	s.tooLargeTotal = reg.Counter("detective_http_body_too_large_total",
		"Requests rejected with 413 because the body exceeded the limit.", labels...)
	s.timeoutTotal = reg.Counter("detective_http_timeout_total",
		"Requests whose per-request deadline expired.", labels...)
	s.reloadTotal = reg.Counter("detective_kb_reload_total",
		"Knowledge-base hot-swaps completed (ReloadKB / POST /reload / SIGHUP).", labels...)
	s.loadSeconds = reg.Gauge("detective_kb_load_seconds",
		"Wall-clock seconds the most recent KB load (parse or snapshot decode) took.", labels...)
	s.deltaAppliedTotal = reg.Counter("detective_kb_delta_applied",
		"Incremental DKBD deltas applied copy-on-write and promoted.", labels...)
	s.deltaTriplesTotal = reg.Counter("detective_kb_delta_triples",
		"Triple add/remove operations carried by promoted deltas.", labels...)
	s.deltaApplySeconds = reg.Gauge("detective_kb_delta_apply_seconds",
		"Wall-clock seconds the most recent copy-on-write delta apply took.", labels...)
	s.canaryStagedTotal = reg.Counter("detective_kb_canary_staged_total",
		"Candidate graphs considered by the staged (canary) reload.", labels...)
	s.canaryRejectedTotal = reg.Counter("detective_kb_canary_rejected_total",
		"Candidate graphs rejected before promotion (integrity self-check or shadow-replay gate).", labels...)
	s.canaryRollbackTotal = reg.Counter("detective_kb_canary_rollback_total",
		"Automatic rollbacks initiated by the post-promote canary watchdog.", labels...)
	s.rollbackTotal = reg.Counter("detective_kb_rollback_total",
		"Rollbacks to a retained knowledge-base generation (manual and automatic).", labels...)
	reg.GaugeFunc("detective_kb_generation",
		"Generation of the currently served knowledge-base graph.",
		func() float64 { return float64(store.Generation()) }, labels...)
	registerCacheMetrics(reg, e.Cat, labels)

	httpm := telemetry.NewHTTPMetrics(reg, "detective")
	httpm.SetLogger(s.log)
	httpm.SetSlowLogger(&telemetry.SlowLogger{
		Logger:    s.log,
		Threshold: cfg.SlowRequestThreshold,
		Every:     1,
	})
	// Every route sits behind the middleware: per-route request
	// counters by status, latency histograms, the in-flight gauge, a
	// root span whose ID is echoed as X-Request-ID, and Debug access
	// logs carrying that ID.
	handle := func(pattern, route string, h http.Handler) {
		s.mux.Handle(pattern, httpm.Handler(route, h))
	}
	// /clean streams its response, so it cannot sit behind
	// http.TimeoutHandler (which buffers the whole body to be able to
	// replace it); its deadline is enforced through the request
	// context instead, checked between rows.
	handle("POST /clean", "/clean", s.limit(http.HandlerFunc(s.handleClean)))
	handle("POST /explain", "/explain", s.limit(s.timeout(http.HandlerFunc(s.handleExplain))))
	handle("GET /rules", "/rules", s.timeout(http.HandlerFunc(s.handleRules)))
	handle("GET /stats", "/stats", s.timeout(http.HandlerFunc(s.handleStats)))
	handle("GET /healthz", "/healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	handle("GET /readyz", "/readyz", http.HandlerFunc(s.handleReadyz))
	// Seed the ensemble's dirty-KB suspicion signal from the graph the
	// server starts on; reloads and canary promotions refresh it.
	s.refreshSuspicion(store.Graph())
	s.ready.Store(true)
	return s, nil
}

// refreshSuspicion recomputes the ensemble vote's dirty-KB suspicion
// signal for g by running the KB integrity self-check and feeding the
// names flagged by its content checks (taxonomy cycles, degree
// outliers, duplicate labels) into the engine. KB-backed proposals of
// those values are down-weighted in every subsequent vote. No-op when
// ensemble mode is off; with the self-check off the signal is cleared
// (it described a graph no longer served).
func (s *Server) refreshSuspicion(g *kb.Graph) {
	if !s.engine.EnsembleEnabled() {
		return
	}
	if s.verifyMode == verify.ModeOff {
		s.engine.SetEnsembleSuspicion(nil)
		return
	}
	s.applySuspicion(g, verify.Check(g, verify.Options{}))
}

// applySuspicion publishes the suspicion signal derived from an
// already-computed verify report (nil clears it).
func (s *Server) applySuspicion(g *kb.Graph, vr *verify.Report) {
	if !s.engine.EnsembleEnabled() {
		return
	}
	var names []string
	if vr != nil {
		names = vr.SuspectNames(g)
	}
	if len(names) == 0 {
		s.engine.SetEnsembleSuspicion(nil)
		return
	}
	s.log.Info("ensemble suspicion refreshed", "suspect_names", len(names))
	s.engine.SetEnsembleSuspicion(ensemble.NewSuspicion(names, s.cfg.Ensemble.SuspicionPenalty))
}

// registerCacheMetrics exports the catalog's two caching layers as
// scrape-time series: the cross-tuple candidate cache in front
// (rules.Catalog.CacheStats) and the per-class signature indexes
// behind it (rules.Catalog.IndexStats). Func collectors replace on
// re-registration, so the newest server's catalog wins the series.
func registerCacheMetrics(reg *telemetry.Registry, cat *rules.Catalog, labels []telemetry.Label) {
	reg.CounterFunc("detective_catalog_cache_hits_total",
		"Candidate-cache lookups answered from the cache.",
		func() float64 { h, _, _ := cat.CacheStats(); return float64(h) }, labels...)
	reg.CounterFunc("detective_catalog_cache_misses_total",
		"Candidate-cache lookups that fell through to the signature indexes.",
		func() float64 { _, m, _ := cat.CacheStats(); return float64(m) }, labels...)
	reg.GaugeFunc("detective_catalog_cache_size",
		"Candidate lists currently cached.",
		func() float64 { _, _, n := cat.CacheStats(); return float64(n) }, labels...)
	reg.CounterFunc("detective_similarity_index_hits_total",
		"Signature-index lookups that found at least one candidate.",
		func() float64 { h, _, _ := cat.IndexStats(); return float64(h) }, labels...)
	reg.CounterFunc("detective_similarity_index_misses_total",
		"Signature-index lookups that found no candidate.",
		func() float64 { _, m, _ := cat.IndexStats(); return float64(m) }, labels...)
	reg.GaugeFunc("detective_similarity_index_size",
		"Instance names indexed across all per-class signature indexes.",
		func() float64 { _, _, n := cat.IndexStats(); return float64(n) }, labels...)
}

// ServeHTTP implements http.Handler. The writer wrapper converts the
// mux's built-in plain-text 404/405 responses (unknown routes, wrong
// methods) into the server's JSON error envelope, so every error the
// process emits has the same machine-readable shape.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
}

// SetReady flips the /readyz answer. A draining process (SIGTERM
// received, connections still completing) sets it to false so load
// balancers stop routing new work while /healthz stays green.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// limit sheds load beyond the configured concurrency: requests that
// would exceed it are rejected immediately with 429 + Retry-After
// instead of queueing behind work the client may no longer want.
func (s *Server) limit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h.ServeHTTP(w, r)
		default:
			s.shedTotal.Inc()
			s.log.Warn("load shed",
				slog.String("request_id", telemetry.RequestID(r.Context())),
				slog.Int("max_concurrent", cap(s.sem)))
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"server at capacity (%d concurrent cleaning requests)", cap(s.sem))
		}
	})
}

// timeout wraps buffered handlers in http.TimeoutHandler so a wedged
// request cannot hold its connection past the deadline. The inner
// handler tallies deadline expiries when it observes them (the
// TimeoutHandler has already answered 503 by then).
func (s *Server) timeout(h http.Handler) http.Handler {
	body, _ := json.Marshal(errorEnvelope{errorBody{
		Status:  http.StatusServiceUnavailable,
		Message: "request deadline exceeded",
	}})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			s.timeoutTotal.Inc()
		}
	})
	return http.TimeoutHandler(inner, s.cfg.RequestTimeout, string(body))
}

// requestContext applies the per-request deadline to streaming
// handlers, which enforce it between rows.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// limitBody caps the request body at MaxBodyBytes. MaxBytesReader
// gets the innermost ResponseWriter because only net/http's own writer
// can mark the connection for closing when the limit is hit; behind a
// middleware wrapper the connection would be reused with the unread
// rest of the body still on it.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) io.ReadCloser {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		w = u.Unwrap()
	}
}

// readTable parses the request body as CSV against the server schema.
func (s *Server) readTable(w http.ResponseWriter, r *http.Request) (*relation.Table, bool) {
	tb, err := relation.ReadCSV(s.schema.Name, s.limitBody(w, r))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.tooLargeTotal.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "bad CSV: %v", err)
		return nil, false
	}
	if tb.Schema.Arity() != s.schema.Arity() {
		writeError(w, http.StatusBadRequest, "schema mismatch: got %d columns, want %d (%v)",
			tb.Schema.Arity(), s.schema.Arity(), s.schema.Attrs)
		return nil, false
	}
	for i, a := range s.schema.Attrs {
		if tb.Schema.Attrs[i] != a {
			writeError(w, http.StatusBadRequest, "schema mismatch at column %d: got %q, want %q",
				i, tb.Schema.Attrs[i], a)
			return nil, false
		}
	}
	// Rebind to the server's schema so rule column lookups are valid.
	tb.Schema = s.schema
	return tb, true
}

// streamHoldback is how much cleaned CSV the response holds back
// before committing the 200: a failure within the first window still
// gets a real status code and JSON error envelope, while anything
// larger streams through with bounded memory.
const streamHoldback = 4 << 10

// streamWriter adapts the ResponseWriter for the streaming cleaner.
// Output is buffered until streamHoldback bytes have accumulated;
// beyond that the response is committed — Content-Type set, 200 sent
// — and every further write is flushed straight through to the client
// so partial results are delivered, and server memory stays bounded,
// regardless of input size. Until commit, the handler keeps full
// control of the status line.
type streamWriter struct {
	w         http.ResponseWriter
	rc        *http.ResponseController
	hold      bytes.Buffer
	committed bool
}

func (sw *streamWriter) Write(p []byte) (int, error) {
	if !sw.committed {
		sw.hold.Write(p)
		if sw.hold.Len() < streamHoldback {
			return len(p), nil
		}
		if err := sw.commit(); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	n, err := sw.w.Write(p)
	if err == nil {
		// Best effort: not every ResponseWriter can flush.
		_ = sw.rc.Flush()
	}
	return n, err
}

// commit sends the 200, drains the holdback buffer to the client and
// switches to pass-through mode.
func (sw *streamWriter) commit() error {
	if sw.committed {
		return nil
	}
	sw.committed = true
	sw.w.Header().Set("Content-Type", "text/csv")
	sw.w.WriteHeader(http.StatusOK)
	if sw.hold.Len() > 0 {
		if _, err := sw.w.Write(sw.hold.Bytes()); err != nil {
			return err
		}
		sw.hold.Reset()
	}
	_ = sw.rc.Flush()
	return nil
}

func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	marked := r.URL.Query().Get("marked") != ""
	ens := r.URL.Query().Get("ensemble") != ""
	if ens && !s.engine.EnsembleEnabled() {
		writeError(w, http.StatusBadRequest, "ensemble mode is not enabled on this server")
		return
	}

	// Trailers must be declared before the body starts; they carry the
	// per-request stats that are only known once the stream ends.
	trailer := TrailerRows + ", " + TrailerQuarantined + ", " + TrailerBudgetExhausted
	if ens {
		trailer += ", " + TrailerConfidenceMean + ", " + TrailerConfidenceMin + ", " + TrailerConfidenceBelow
	}
	w.Header().Set("Trailer", trailer)
	body := s.limitBody(w, r)
	rc := http.NewResponseController(w)
	// /clean interleaves reads of the request body with response
	// writes; on HTTP/1 Go otherwise stops reading the body at the
	// first response write, truncating large uploads mid-stream.
	// Best effort: transports that cannot do full duplex still work
	// for bodies that fit their buffers.
	_ = rc.EnableFullDuplex()
	sw := &streamWriter{w: w, rc: rc}

	var res repair.StreamResult
	var err error
	if ens {
		res, err = s.engine.CleanCSVStreamEnsembleContext(ctx, body, sw, marked)
	} else {
		res, err = s.engine.CleanCSVStreamContext(ctx, body, sw, marked)
	}
	// Trailer values may only be set once the status line is out;
	// setting them earlier would emit them as plain headers too.
	setTrailers := func() {
		w.Header().Set(TrailerRows, strconv.Itoa(res.Rows))
		w.Header().Set(TrailerQuarantined, strconv.Itoa(res.Quarantined))
		w.Header().Set(TrailerBudgetExhausted, strconv.Itoa(res.BudgetExhausted))
		if ens {
			mean := 1.0
			if res.Rows > 0 {
				mean = res.ConfidenceSum / float64(res.Rows)
			}
			w.Header().Set(TrailerConfidenceMean, strconv.FormatFloat(mean, 'f', 4, 64))
			w.Header().Set(TrailerConfidenceMin, strconv.FormatFloat(res.MinConfidence, 'f', 4, 64))
			w.Header().Set(TrailerConfidenceBelow, strconv.Itoa(res.BelowThreshold))
		}
	}
	if err == nil {
		// Success: commit whatever is still held back (a small or even
		// zero-row result fits entirely in the holdback window).
		_ = sw.commit()
		setTrailers()
		return
	}
	if sw.committed {
		setTrailers()
		// Mid-stream failure: the 200 and a partial body are already
		// on the wire. The stream has flushed everything cleaned so
		// far (the trailers say how much); terminating the body is all
		// that is left to do.
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeoutTotal.Inc()
		}
		s.log.Warn("clean stream ended early",
			slog.String("request_id", telemetry.RequestID(ctx)),
			slog.Int("rows", res.Rows),
			slog.Any("error", err))
		return
	}
	switch {
	case errors.Is(err, context.Canceled):
		// Client went away; nobody is listening for a status.
	case errors.Is(err, context.DeadlineExceeded):
		s.timeoutTotal.Inc()
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
	default:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.tooLargeTotal.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad CSV: %v", err)
	}
}

// ExplainedTuple is the JSON shape of one cleaned row.
type ExplainedTuple struct {
	Row    int             `json:"row"`
	Values []string        `json:"values"`
	Marked []bool          `json:"marked"`
	Steps  []ExplainedStep `json:"steps,omitempty"`
	// Quarantined marks a row whose repair panicked; its original
	// values are returned unchanged.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ExplainedStep is the JSON shape of one rule application.
type ExplainedStep struct {
	Rule         string            `json:"rule"`
	Action       string            `json:"action"` // "positive" or "repair"
	RepairCol    string            `json:"repairCol,omitempty"`
	Old          string            `json:"old,omitempty"`
	New          string            `json:"new,omitempty"`
	Alternatives []string          `json:"alternatives,omitempty"`
	MarkCols     []string          `json:"markCols"`
	Witness      map[string]string `json:"witness,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tb, ok := s.readTable(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	out := make([]ExplainedTuple, 0, tb.Len())
	for i, tu := range tb.Tuples {
		if ctx.Err() != nil {
			// http.TimeoutHandler has already answered; stop working.
			return
		}
		repaired, steps, quarantined := s.engine.FastRepairExplainSafe(tu)
		et := ExplainedTuple{Row: i, Values: repaired.Values, Marked: repaired.Marked, Quarantined: quarantined}
		for _, st := range steps {
			et.Steps = append(et.Steps, ExplainedStep{
				Rule:         st.Rule,
				Action:       st.Kind.String(),
				RepairCol:    st.RepairCol,
				Old:          st.Old,
				New:          st.New,
				Alternatives: st.Alternatives,
				MarkCols:     st.MarkCols,
				Witness:      st.Witness,
			})
		}
		out = append(out, et)
	}
	writeJSON(w, out)
}

func (s *Server) handleRules(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := rules.EncodeRules(&buf, s.rules); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// CacheStats is the JSON shape of one cache layer's accounting.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int   `json:"size"`
}

// StatsResponse is the JSON shape of GET /stats.
type StatsResponse struct {
	Schema []string     `json:"schema"`
	Rules  int          `json:"rules"`
	KB     kb.Stats     `json:"kb"`
	Repair repair.Stats `json:"repair"`
	// KBGeneration identifies the graph currently being served;
	// KBSwaps counts hot reloads since startup. Both move together
	// when ReloadKB publishes a new graph.
	KBGeneration int64 `json:"kbGeneration"`
	KBSwaps      int64 `json:"kbSwaps"`
	// KBRollbacks counts rollbacks to a retained generation;
	// KBHistory lists the live generation followed by the retained
	// rollback candidates, newest first.
	KBRollbacks int64        `json:"kbRollbacks"`
	KBHistory   []kb.GenInfo `json:"kbHistory,omitempty"`
	// KBDeltasApplied counts promoted incremental (DKBD) delta
	// reloads, KBDeltaTriples the triple ops they carried, and
	// KBDeltaApplySeconds the wall time of the most recent
	// copy-on-write apply (0 until a delta has been applied).
	KBDeltasApplied     int64   `json:"kbDeltasApplied"`
	KBDeltaTriples      int64   `json:"kbDeltaTriples"`
	KBDeltaApplySeconds float64 `json:"kbDeltaApplySeconds"`
	// Breaker is the repair circuit breaker's state (Enabled false
	// when the breaker is not configured).
	Breaker repair.BreakerStats `json:"breaker"`
	// CandidateCache is the catalog's cross-tuple candidate cache;
	// SignatureIndex is the per-class signature indexes behind it. The
	// same numbers are exported as Prometheus series on the ops port.
	CandidateCache CacheStats `json:"candidateCache"`
	SignatureIndex CacheStats `json:"signatureIndex"`
	// Memo is the global cross-request repair memo (two tiers:
	// whole-tuple outcomes and per-cell evidence verdicts), likewise
	// mirrored as detective_memo_* Prometheus series.
	Memo repair.MemoStats `json:"memo"`
	// EnsembleReliability maps each ensemble engine to its current
	// reliability factor (omitted when ensemble mode is off).
	EnsembleReliability map[string]float64 `json:"ensembleReliability,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ch, cm, cn := s.engine.Cat.CacheStats()
	ih, im, in := s.engine.Cat.IndexStats()
	g := s.store.Graph() // pin: stats describe one coherent graph
	writeJSON(w, StatsResponse{
		Schema:              s.schema.Attrs,
		Rules:               len(s.rules),
		KB:                  g.ComputeStats(5),
		Repair:              s.engine.Stats(),
		KBGeneration:        g.Generation(),
		KBSwaps:             s.store.Swaps(),
		KBRollbacks:         s.store.Rollbacks(),
		KBHistory:           s.store.History(),
		KBDeltasApplied:     s.deltaAppliedTotal.Value(),
		KBDeltaTriples:      s.deltaTriplesTotal.Value(),
		KBDeltaApplySeconds: s.deltaApplySeconds.Value(),
		Breaker:             s.engine.BreakerStats(),
		CandidateCache:      CacheStats{Hits: ch, Misses: cm, Size: cn},
		SignatureIndex:      CacheStats{Hits: ih, Misses: im, Size: in},
		Memo:                s.engine.MemoStats(),
		EnsembleReliability: s.engine.EnsembleReliability(),
	})
}

// errorEnvelope is the structured JSON error body of every non-2xx
// response the server originates.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// writeError emits a JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	body, err := json.Marshal(errorEnvelope{errorBody{Status: status, Message: fmt.Sprintf(format, args...)}})
	if err != nil {
		http.Error(w, http.StatusText(status), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON encodes v to a buffer first, so an encoding failure can
// still become a real 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}
