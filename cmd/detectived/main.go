// Command detectived serves a loaded cleaning engine over HTTP:
//
//	detectived -kb kb.nt -rules rules.dr -schema "Name,DOB,Country,Prize,Institution,City" \
//	    -addr :8080 -ops-addr :9090
//
// Endpoints (see the server package): POST /clean, POST /explain,
// GET /rules, GET /stats, GET /healthz, GET /readyz.
//
// # Registry mode
//
//	detectived -registry tenants.json -addr :8080 -ops-addr :9090
//
// -registry replaces the single-tenant flags with a JSON fleet
// configuration (see the registry package): named tenants, each with
// its own KB snapshot, rules, schema and limits, served under
// /v1/{tenant}/clean (plus /explain, /rules, /stats). Only the
// residency cap's worth of tenants hold a loaded KB at a time; cold
// tenants are admitted on first request — near-instant when their
// snapshot is DKBS v2, which is mmap'd in place. The ops listener
// adds tenant-scoped POST /v1/{tenant}/reload and /rollback and a
// GET /registry fleet-status document; SIGHUP canary-reloads every
// resident tenant from its configured source. The serving-limit flags
// (-timeout, -max-concurrent, -memo-bytes, ...) become per-tenant
// defaults that tenant configs may override.
//
// A second, operator-only listener (-ops-addr, disabled when empty)
// serves GET /metrics (Prometheus text format: repair latency
// histograms, cache hit/miss counters, per-route HTTP metrics) and
// net/http/pprof under /debug/pprof/ — profiling and scraping stay
// off the public port.
//
// Logs are structured (log/slog, key=value on stderr); -log-level
// picks the floor (debug logs every request with its X-Request-ID).
//
// On SIGTERM/SIGINT the server drains gracefully: /readyz flips to
// 503 so load balancers stop routing new work, in-flight requests get
// -drain-timeout to finish, then both listeners close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"detective"
	"detective/internal/registry"
	"detective/internal/repair"
	"detective/internal/repair/ensemble"
	"detective/internal/repair/ensemble/adapters"
	"detective/internal/server"
	"detective/internal/telemetry"
)

func main() {
	registryPath := flag.String("registry", "", "multi-tenant registry config (JSON); replaces -kb/-rules/-schema")
	warmSpec := flag.String("warm", "", "registry mode: tenants to pre-admit at startup (comma-separated names, or \"all\" for the residency cap's worth)")
	kbPath := flag.String("kb", "", "knowledge base file (triple format)")
	kbSnapshot := flag.String("kb-snapshot", "", "knowledge base file (binary snapshot format, see kbtool pack); overrides -kb")
	rulesPath := flag.String("rules", "", "detective rules file")
	schemaSpec := flag.String("schema", "", "comma-separated attribute names of the relation")
	name := flag.String("name", "table", "relation name")
	addr := flag.String("addr", ":8080", "listen address")
	opsAddr := flag.String("ops-addr", "", "ops listen address serving GET /metrics and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent cleaning requests (0 = 2×GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 64<<20, "max request body bytes")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	streamWorkers := flag.Int("stream-workers", 0, "repair workers per /clean stream (0 or 1 = serial; >1 = chunked parallel pipeline)")
	streamChunk := flag.Int("stream-chunk", 0, "rows per pipeline chunk when -stream-workers > 1 (0 = default)")
	memoBytes := flag.Int64("memo-bytes", 0, "byte budget of the cross-request repair memo (0 = default 64 MiB, negative = off)")
	verifyMode := flag.String("verify-mode", "", "KB integrity self-check on reload: off, warn (default), strict (reject suspect graphs)")
	retain := flag.Int("retain", 0, "reloaded-out KB generations kept for POST /rollback (0 = default 2, negative = none)")
	canaryRows := flag.Int("canary-rows", 0, "recent rows shadow-replayed against a reload candidate (0 = whole recorded ring, negative = skip replay)")
	canaryMaxBadDelta := flag.Float64("canary-max-bad-delta", 0, "max increase in bad-row rate a candidate may show over live before rejection (0 = default 0.10)")
	canaryWatch := flag.Duration("canary-watch", 0, "post-promote watch window: auto-rollback if the new generation's bad-row rate regresses (0 = disabled)")
	breakerOn := flag.Bool("breaker", false, "enable the repair circuit breaker (degrade to detect-only under quarantine/budget storms)")
	breakerPerRule := flag.Bool("breaker-per-rule", false, "with -breaker, also track and degrade individual rules")
	ensembleOn := flag.Bool("ensemble", false, "enable ensemble repair: POST /clean?ensemble=1 repairs by the weighted vote of all engines and returns a confidence column (registry mode: per-tenant default)")
	ensembleRef := flag.String("ensemble-ref", "", "with -ensemble: clean reference CSV the FD and constant-CFD proposers are mined from")
	ensembleThreshold := flag.Float64("ensemble-threshold", 0, "with -ensemble: acceptance threshold on a cell's winning confidence (0 = default)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "detectived: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	baseCfg := server.Config{
		RequestTimeout:    *reqTimeout,
		MaxConcurrent:     *maxConcurrent,
		MaxBodyBytes:      *maxBody,
		Logger:            log,
		StreamWorkers:     *streamWorkers,
		StreamChunkSize:   *streamChunk,
		MemoBytes:         *memoBytes,
		VerifyMode:        *verifyMode,
		RetainGenerations: *retain,
		CanaryRows:        *canaryRows,
		CanaryMaxBadDelta: *canaryMaxBadDelta,
		CanaryWatch:       *canaryWatch,
		Breaker: repair.BreakerOptions{
			Enabled: *breakerOn,
			PerRule: *breakerPerRule,
		},
	}

	if *registryPath != "" {
		runRegistry(log, *registryPath, *warmSpec, *addr, *opsAddr, *drainTimeout, baseCfg,
			*ensembleOn, *ensembleRef, *ensembleThreshold)
		return
	}

	if (*kbPath == "" && *kbSnapshot == "") || *rulesPath == "" || *schemaSpec == "" {
		fmt.Fprintln(os.Stderr, "usage: detectived {-kb KB | -kb-snapshot KB.snap} -rules RULES -schema A,B,C [-addr :8080] [-ops-addr :9090]\n"+
			"       detectived -registry tenants.json [-addr :8080] [-ops-addr :9090]")
		os.Exit(2)
	}

	// loadKB re-reads the KB source on every call so POST /reload and
	// SIGHUP pick up whatever is on disk now. Snapshot wins when both
	// flags are set (it is the fast path).
	loadKB := func() (*detective.KB, error) {
		if *kbSnapshot != "" {
			// By path, not reader: DKBS v2 snapshots are mmap'd in
			// place where supported instead of decoded.
			return detective.LoadKBSnapshotFile(*kbSnapshot)
		}
		f, err := os.Open(*kbPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return detective.ParseKB(f)
	}

	loadStart := time.Now()
	g, err := loadKB()
	fail(log, err)
	initialLoad := time.Since(loadStart)

	rf, err := os.Open(*rulesPath)
	fail(log, err)
	rs, err := detective.ParseRules(rf)
	rf.Close()
	fail(log, err)

	attrs := strings.Split(*schemaSpec, ",")
	for i := range attrs {
		attrs[i] = strings.TrimSpace(attrs[i])
	}
	schema := detective.NewSchema(*name, attrs...)

	// The server and the ensemble's auxiliary proposers share one KB
	// store, so hot reloads reach the proposers automatically.
	store := detective.NewKBStore(g)
	if *ensembleOn {
		var ref *detective.Table
		if *ensembleRef != "" {
			ref, err = adapters.LoadReference(schema, *ensembleRef)
			fail(log, err)
		}
		baseCfg.Ensemble = repair.EnsembleOptions{
			Enabled:   true,
			Threshold: *ensembleThreshold,
			Proposers: adapters.BuildProposers(schema, ensemble.PatternFromRules(rs), store, ref),
		}
	}
	s, err := server.NewWithStore(rs, store, schema, baseCfg)
	fail(log, err)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		// No ReadTimeout/WriteTimeout: /clean legitimately streams
		// large bodies; per-request work is bounded by the handler's
		// own deadline instead.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsMux := telemetry.NewOpsMux(telemetry.Default())
		// Admin-only KB lifecycle stays on the operator port, next to
		// /metrics and pprof, never on the public listener. /reload is
		// a staged canary (self-check + shadow replay, 409 on reject);
		// /rollback republishes the previous retained generation.
		opsMux.Handle("POST /reload", s.ReloadHandler(loadKB))
		opsMux.Handle("POST /rollback", s.RollbackHandler())
		opsSrv = &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		log.Info("ops listener up",
			slog.String("addr", *opsAddr),
			slog.String("endpoints", "/metrics /debug/pprof/ POST /reload POST /rollback"))
	}

	// SIGHUP is the file-based reload path for operators without ops
	// port access: re-read the KB source and stage it through the
	// canary. A failed load or a rejected candidate logs and keeps the
	// current graph serving.
	watchHUP(ctx, log, func() error {
		start := time.Now()
		ng, err := loadKB()
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		gen, _, err := s.StageReloadKB(ng, time.Since(start))
		if err != nil {
			return err
		}
		log.Info("SIGHUP reload complete", slog.Int64("generation", gen))
		return nil
	})

	log.Info("detectived up",
		slog.Int("rules", len(rs)),
		slog.Any("schema", attrs),
		slog.String("kb", fmt.Sprint(g)),
		slog.Duration("kb_load", initialLoad),
		slog.String("addr", *addr),
		slog.String("log_level", level.String()))

	serveAndDrain(ctx, log, srv, opsSrv, *drainTimeout, func() { s.SetReady(false) })
}

// runRegistry is registry mode: a fleet of named tenants served under
// /v1/{tenant}/..., LRU-resident up to the config's cap, with tenant
// lifecycle and fleet status on the ops listener.
func runRegistry(log *slog.Logger, cfgPath, warmSpec, addr, opsAddr string, drainTimeout time.Duration, baseCfg server.Config, ensembleOn bool, ensembleRef string, ensembleThreshold float64) {
	// The -ensemble flags become fleet-wide defaults that individual
	// tenant configs may still override; SIGHUP re-reads apply the
	// same overlay so flag-driven defaults survive config reloads.
	loadCfg := func() (*registry.Config, error) {
		cfg, err := registry.LoadConfig(cfgPath)
		if err != nil {
			return nil, err
		}
		if ensembleOn {
			cfg.Defaults.Ensemble = true
		}
		if ensembleRef != "" && cfg.Defaults.EnsembleRef == "" {
			cfg.Defaults.EnsembleRef = ensembleRef
		}
		if ensembleThreshold != 0 && cfg.Defaults.EnsembleThreshold == 0 {
			cfg.Defaults.EnsembleThreshold = ensembleThreshold
		}
		return cfg, nil
	}
	cfg, err := loadCfg()
	fail(log, err)
	reg, err := registry.New(*cfg, registry.Options{Logger: log, Server: baseCfg})
	fail(log, err)

	// Pre-admit the hot set before taking traffic, so first requests
	// don't pay cold-start loads. A failed warm is a degraded start,
	// not a fatal one: the tenant retries admission on first request.
	if warmSpec != "" {
		var names []string
		if warmSpec != "all" {
			names = strings.Split(warmSpec, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
		}
		if err := reg.Warm(names...); err != nil {
			log.Error("tenant warmup incomplete", slog.Any("error", err))
		}
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           server.NewTenantMux(reg, log),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opsSrv *http.Server
	if opsAddr != "" {
		opsMux := telemetry.NewOpsMux(telemetry.Default())
		// The admin tenant mux adds POST /v1/{tenant}/reload and
		// /v1/{tenant}/rollback; /registry is the fleet-status
		// document (residency, pins, generations, admission counters).
		opsMux.Handle("/v1/", server.NewTenantAdminMux(reg, log))
		opsMux.Handle("GET /registry", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			server.WriteJSON(w, reg.Stats())
		}))
		opsSrv = &http.Server{
			Addr:              opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		log.Info("ops listener up",
			slog.String("addr", opsAddr),
			slog.String("endpoints", "/metrics /debug/pprof/ GET /registry POST /v1/{tenant}/reload POST /v1/{tenant}/rollback"))
	}

	// SIGHUP re-reads the registry config itself — added, removed and
	// edited tenants take effect without a restart — then canary-
	// reloads every resident tenant from its configured source;
	// non-resident tenants pick up new files on admission. A broken
	// config file is logged and skipped so the running fleet (and the
	// KB re-read) is never held hostage by a bad edit.
	watchHUP(ctx, log, func() error {
		if cfg, err := loadCfg(); err != nil {
			log.Error("SIGHUP: registry config re-read failed; keeping current fleet",
				slog.String("path", cfgPath), slog.Any("error", err))
		} else if err := reg.ApplyConfig(*cfg); err != nil {
			log.Error("SIGHUP: registry config rejected; keeping current fleet",
				slog.String("path", cfgPath), slog.Any("error", err))
		}
		if err := reg.ReloadResident(); err != nil {
			return err
		}
		log.Info("SIGHUP registry reload complete")
		return nil
	})

	log.Info("detectived up (registry mode)",
		slog.Int("tenants", len(reg.TenantNames())),
		slog.Int("max_resident", reg.MaxResident()),
		slog.String("addr", addr))

	serveAndDrain(ctx, log, srv, opsSrv, drainTimeout, nil)
}

// watchHUP services SIGHUP reload requests for the process lifetime.
func watchHUP(ctx context.Context, log *slog.Logger, reload func() error) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go reloadLoop(ctx, hup, log, reload)
}

// serveAndDrain runs both listeners until a fatal serve error or the
// shutdown signal, then drains: onDrain first (stop advertising
// readiness), a bounded Shutdown next, a hard Close as last resort.
func serveAndDrain(ctx context.Context, log *slog.Logger, srv, opsSrv *http.Server, drainTimeout time.Duration, onDrain func()) {
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	if opsSrv != nil {
		go func() { errc <- opsSrv.ListenAndServe() }()
	}

	select {
	case err := <-errc:
		fail(log, err)
	case <-ctx.Done():
	}

	log.Info("signal received, draining", slog.Duration("drain_timeout", drainTimeout))
	if onDrain != nil {
		onDrain()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("forced shutdown", slog.Any("error", err))
		_ = srv.Close()
	}
	if opsSrv != nil {
		if err := opsSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = opsSrv.Close()
		}
	}
	log.Info("drained, exiting")
}

// reloadLoop services SIGHUP reload requests until ctx is cancelled.
// Racing a SIGHUP against the SIGTERM drain used to start a reload
// mid-shutdown; selecting on ctx and re-checking it after every wakeup
// makes a late SIGHUP a clean no-op: once draining, the signal is
// acknowledged, logged, and the current graph keeps serving whatever
// requests are still in flight.
func reloadLoop(ctx context.Context, hup <-chan os.Signal, log *slog.Logger, reload func() error) {
	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-hup:
			if !ok {
				return
			}
			if ctx.Err() != nil {
				log.Info("SIGHUP ignored: server is draining")
				return
			}
			if err := reload(); err != nil {
				log.Error("SIGHUP reload failed; keeping current graph", slog.Any("error", err))
			}
		}
	}
}

func fail(log *slog.Logger, err error) {
	if err != nil {
		log.Error("fatal", slog.Any("error", err))
		os.Exit(1)
	}
}
