// Package registry serves many named tenants from one process, each
// tenant owning its own knowledge base, rule catalog, repair engine
// with private memo and candidate caches, concurrency limit, canary
// pipeline and circuit breaker. Hundreds of tenants can be
// configured; only the hot ones are resident. Residency is an LRU
// bounded by Config.MaxResident: a request for a non-resident tenant
// admits it (loading its KB — an mmap'd DKBS v2 snapshot makes this
// nearly free — parsing its rules once, building its server), and an
// admission over the cap evicts the least-recently-used idle tenant.
//
// Eviction is safe under in-flight requests twice over: a tenant with
// pinned requests (Tenant's release not yet called) is never chosen
// as a victim, and requests hold their own reference to the tenant's
// Server, whose engine pins a KB generation per tuple — an eviction
// or readmission between two of a request's tuples can never tear the
// graph out from under it. Evicting drops the registry's reference to
// the Server and its graph; the memory is reclaimed by GC (mmap'd
// snapshot pages are clean file-backed memory the kernel reclaims on
// its own). Readmission rebuilds a fresh server from disk.
//
// The registry implements server.TenantResolver and
// server.TenantAdmin, so server.NewTenantMux/NewTenantAdminMux are
// its HTTP front ends, and exports per-tenant labeled telemetry
// (detective_tenant_*{tenant="..."}) next to each tenant server's own
// labeled series.
package registry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"time"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/repair/ensemble"
	"detective/internal/repair/ensemble/adapters"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/telemetry"
)

// TenantConfig configures one tenant. Zero fields fall back to
// Config.Defaults, so fleets sharing a schema and rule set only spell
// out per-tenant KB paths.
type TenantConfig struct {
	// Name is the tenant's URL segment: /v1/{name}/clean. Required on
	// tenants (ignored in Defaults); letters, digits, '-', '_', '.'.
	Name string `json:"name,omitempty"`
	// Snapshot is a DKBS snapshot path (mmap'd in place on supported
	// platforms). Takes precedence over KBText.
	Snapshot string `json:"snapshot,omitempty"`
	// KBText is a triple-text KB path, the slow-load alternative.
	KBText string `json:"kbText,omitempty"`
	// Rules is the tenant's detective-rule file.
	Rules string `json:"rules,omitempty"`
	// Schema is the served relation's attribute names.
	Schema []string `json:"schema,omitempty"`
	// Relation names the relation (default "table").
	Relation string `json:"relation,omitempty"`

	// Per-tenant serving limits; zero inherits Defaults, then the
	// process-wide server.Config defaults.
	MaxConcurrent     int    `json:"maxConcurrent,omitempty"`
	MemoBytes         int64  `json:"memoBytes,omitempty"`
	StreamWorkers     int    `json:"streamWorkers,omitempty"`
	VerifyMode        string `json:"verifyMode,omitempty"`
	RetainGenerations int    `json:"retainGenerations,omitempty"`

	// Ensemble enables the multi-engine repair vote for this tenant:
	// POST /v1/{name}/clean?ensemble=1 repairs each row by the
	// weighted vote over the detective engine and auxiliary proposers
	// built from the tenant's own rules and KB (the KATARA proposer's
	// table pattern is derived from the rule set), plus FD and
	// constant-CFD proposers mined from EnsembleRef when set.
	Ensemble bool `json:"ensemble,omitempty"`
	// EnsembleRef is an optional clean reference CSV (tenant schema)
	// the FD and CFD proposers are mined from.
	EnsembleRef string `json:"ensembleRef,omitempty"`
	// EnsembleThreshold overrides the vote's acceptance threshold
	// (0 picks the engine default).
	EnsembleThreshold float64 `json:"ensembleThreshold,omitempty"`
}

// Config is the registry configuration, typically one JSON file
// (cmd/detectived -registry).
type Config struct {
	// MaxResident caps how many tenants hold a loaded KB and engine at
	// once (default 8). Admissions beyond the cap evict the
	// least-recently-used tenant without in-flight requests.
	MaxResident int `json:"maxResident,omitempty"`
	// Defaults fills zero fields of every tenant (its Name is
	// ignored). Typical use: one shared rules file and schema.
	Defaults TenantConfig `json:"defaults,omitempty"`
	// Tenants is the fleet.
	Tenants []TenantConfig `json:"tenants"`
}

var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// merged returns tc with zero fields filled from d.
func (tc TenantConfig) merged(d TenantConfig) TenantConfig {
	if tc.Snapshot == "" && tc.KBText == "" {
		tc.Snapshot, tc.KBText = d.Snapshot, d.KBText
	}
	if tc.Rules == "" {
		tc.Rules = d.Rules
	}
	if len(tc.Schema) == 0 {
		tc.Schema = d.Schema
	}
	if tc.Relation == "" {
		tc.Relation = d.Relation
	}
	if tc.Relation == "" {
		tc.Relation = "table"
	}
	if tc.MaxConcurrent == 0 {
		tc.MaxConcurrent = d.MaxConcurrent
	}
	if tc.MemoBytes == 0 {
		tc.MemoBytes = d.MemoBytes
	}
	if tc.StreamWorkers == 0 {
		tc.StreamWorkers = d.StreamWorkers
	}
	if tc.VerifyMode == "" {
		tc.VerifyMode = d.VerifyMode
	}
	if tc.RetainGenerations == 0 {
		tc.RetainGenerations = d.RetainGenerations
	}
	if !tc.Ensemble {
		tc.Ensemble = d.Ensemble
	}
	if tc.EnsembleRef == "" {
		tc.EnsembleRef = d.EnsembleRef
	}
	if tc.EnsembleThreshold == 0 {
		tc.EnsembleThreshold = d.EnsembleThreshold
	}
	return tc
}

// LoadConfig reads and validates a registry configuration file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("registry: parsing %s: %w", path, err)
	}
	return &cfg, nil
}

// Options tunes a Registry beyond its tenant configuration.
type Options struct {
	// Logger receives admission/eviction lifecycle logs; nil uses
	// slog.Default(). Tenant servers log with a tenant attribute.
	Logger *slog.Logger
	// Metrics receives the registry's and every tenant server's
	// series; nil uses telemetry.Default().
	Metrics *telemetry.Registry
	// Server is the base server configuration every tenant inherits
	// (timeouts, canary, breaker, body limits); per-tenant limits from
	// TenantConfig override it.
	Server server.Config
}

// tenant is one configured tenant and, when resident, its server.
type tenant struct {
	cfg TenantConfig

	// Parsed once at first admission and retained across evictions:
	// rules and schema are small, and re-validating them on every
	// readmission would waste the LRU's point.
	once   sync.Once
	rules  []*rules.DR
	schema *relation.Schema
	initE  error

	// loadMu serializes cold admissions of this one tenant so a
	// thundering herd on a cold tenant loads its KB exactly once.
	loadMu sync.Mutex

	// Guarded by Registry.mu.
	srv      *server.Server
	pins     int   // in-flight requests holding the tenant resident
	lastUsed int64 // registry LRU clock at last touch

	requests   *telemetry.Counter
	admissions *telemetry.Counter
	evictions  *telemetry.Counter
	loadSecs   *telemetry.Gauge
}

// Registry owns the tenant fleet. It is safe for concurrent use.
type Registry struct {
	log     *slog.Logger
	metrics *telemetry.Registry
	base    server.Config
	maxRes  int

	mu      sync.Mutex
	tenants map[string]*tenant
	names   []string // sorted; replaced wholesale by ApplyConfig
	clock   int64    // LRU clock, bumped per touch

	resident *telemetry.Gauge
}

// New validates cfg and builds the registry. No tenant is loaded yet:
// KBs are admitted lazily by the first request (or Warm).
func New(cfg Config, opts Options) (*Registry, error) {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.Default()
	}
	maxRes := cfg.MaxResident
	if maxRes <= 0 {
		maxRes = 8
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("registry: no tenants configured")
	}
	r := &Registry{
		log:     opts.Logger,
		metrics: opts.Metrics,
		base:    opts.Server,
		maxRes:  maxRes,
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
	}
	for _, tc := range cfg.Tenants {
		tc = tc.merged(cfg.Defaults)
		if err := validateTenant(tc); err != nil {
			return nil, err
		}
		if _, dup := r.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("registry: duplicate tenant %q", tc.Name)
		}
		r.tenants[tc.Name] = r.newTenant(tc)
		r.names = append(r.names, tc.Name)
	}
	sort.Strings(r.names)
	r.resident = opts.Metrics.Gauge("detective_tenants_resident",
		"Tenants currently holding a loaded KB and engine.")
	opts.Metrics.GaugeFunc("detective_tenants_configured",
		"Tenants in the registry configuration.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.names))
		})
	return r, nil
}

// validateTenant checks one merged tenant config the way New always
// has; ApplyConfig runs the same checks before touching the fleet.
func validateTenant(tc TenantConfig) error {
	if !tenantNameRE.MatchString(tc.Name) {
		return fmt.Errorf("registry: invalid tenant name %q", tc.Name)
	}
	if tc.Snapshot == "" && tc.KBText == "" {
		return fmt.Errorf("registry: tenant %q has no KB source (snapshot or kbText)", tc.Name)
	}
	if tc.Rules == "" {
		return fmt.Errorf("registry: tenant %q has no rules file", tc.Name)
	}
	if len(tc.Schema) == 0 {
		return fmt.Errorf("registry: tenant %q has no schema", tc.Name)
	}
	return nil
}

// newTenant builds the tenant struct and its labeled metrics. The
// telemetry registry dedupes by name+label, so re-creating a tenant
// under the same name (ApplyConfig) reattaches the existing series.
func (r *Registry) newTenant(tc TenantConfig) *tenant {
	lbl := telemetry.Label{Name: "tenant", Value: tc.Name}
	return &tenant{
		cfg: tc,
		requests: r.metrics.Counter("detective_tenant_requests_total",
			"Requests resolved to this tenant (resident or admitting).", lbl),
		admissions: r.metrics.Counter("detective_tenant_admissions_total",
			"Cold admissions: the tenant's KB was loaded and its server built.", lbl),
		evictions: r.metrics.Counter("detective_tenant_evictions_total",
			"Evictions: the tenant's server and KB were dropped from residency.", lbl),
		loadSecs: r.metrics.Gauge("detective_tenant_kb_load_seconds",
			"Wall-clock seconds of the tenant's most recent cold KB load.", lbl),
	}
}

// ApplyConfig reconciles the fleet against a re-read configuration
// file — the SIGHUP path in registry mode, which previously re-read
// only tenant KB files and silently ignored tenants.json edits.
// Unchanged tenants keep their structs, residency and parsed rules;
// tenants with edited configs are rebuilt cold on their next
// admission; removed tenants are dropped (in-flight requests finish
// on the server they already hold); added tenants become admittable.
// The whole config is validated before anything is touched, so a bad
// file changes nothing.
func (r *Registry) ApplyConfig(cfg Config) error {
	if len(cfg.Tenants) == 0 {
		return fmt.Errorf("registry: no tenants configured")
	}
	merged := make([]TenantConfig, 0, len(cfg.Tenants))
	seen := make(map[string]bool, len(cfg.Tenants))
	for _, tc := range cfg.Tenants {
		tc = tc.merged(cfg.Defaults)
		if err := validateTenant(tc); err != nil {
			return err
		}
		if seen[tc.Name] {
			return fmt.Errorf("registry: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		merged = append(merged, tc)
	}
	maxRes := cfg.MaxResident
	if maxRes <= 0 {
		maxRes = 8
	}

	r.mu.Lock()
	var added, updated, removed []string
	next := make(map[string]*tenant, len(merged))
	names := make([]string, 0, len(merged))
	for _, tc := range merged {
		old := r.tenants[tc.Name]
		switch {
		case old == nil:
			next[tc.Name] = r.newTenant(tc)
			added = append(added, tc.Name)
		case reflect.DeepEqual(old.cfg, tc):
			next[tc.Name] = old
		default:
			// A fresh struct resets the once-parsed rules/schema and
			// residency; the old server stays valid for requests that
			// already resolved it.
			next[tc.Name] = r.newTenant(tc)
			updated = append(updated, tc.Name)
		}
		names = append(names, tc.Name)
	}
	for name := range r.tenants {
		if next[name] == nil {
			removed = append(removed, name)
		}
	}
	sort.Strings(names)
	r.tenants = next
	r.names = names
	r.maxRes = maxRes
	r.evictOverCapLocked(nil)
	res := r.residentCountLocked()
	r.resident.Set(float64(res))
	r.mu.Unlock()

	sort.Strings(added)
	sort.Strings(updated)
	sort.Strings(removed)
	r.log.Info("registry config applied",
		slog.Int("tenants", len(names)),
		slog.Int("resident", res),
		slog.Any("added", added),
		slog.Any("updated", updated),
		slog.Any("removed", removed))
	return nil
}

// TenantNames implements server.TenantResolver. The returned slice is
// a copy: ApplyConfig can replace the fleet at any time.
func (r *Registry) TenantNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// MaxResident returns the residency cap.
func (r *Registry) MaxResident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxRes
}

// Tenant implements server.TenantResolver: it returns name's server,
// cold-admitting the tenant if needed, plus a release func that
// unpins it. Unknown names return server.ErrUnknownTenant.
func (r *Registry) Tenant(name string) (*server.Server, func(), error) {
	r.mu.Lock()
	t := r.tenants[name]
	if t == nil {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", server.ErrUnknownTenant, name)
	}
	t.requests.Inc()
	r.touchLocked(t)
	if t.srv != nil {
		t.pins++
		srv := t.srv
		r.mu.Unlock()
		return srv, r.releaseFunc(t), nil
	}
	r.mu.Unlock()
	return r.admit(t)
}

// touchLocked bumps the tenant in the LRU order.
func (r *Registry) touchLocked(t *tenant) {
	r.clock++
	t.lastUsed = r.clock
}

// releaseFunc returns the idempotent unpin for one resolved request.
func (r *Registry) releaseFunc(t *tenant) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			t.pins--
			r.mu.Unlock()
		})
	}
}

// admit loads the tenant's KB and builds its server, then inserts it
// into residency and evicts past the cap. The per-tenant loadMu makes
// a thundering herd on one cold tenant load once; other tenants admit
// concurrently.
func (r *Registry) admit(t *tenant) (*server.Server, func(), error) {
	t.loadMu.Lock()
	defer t.loadMu.Unlock()

	r.mu.Lock()
	if t.srv != nil { // admitted while we waited on loadMu
		t.pins++
		srv := t.srv
		r.mu.Unlock()
		return srv, r.releaseFunc(t), nil
	}
	r.mu.Unlock()

	srv, loadTime, err := r.buildServer(t)
	if err != nil {
		return nil, nil, fmt.Errorf("registry: admitting tenant %q: %w", t.cfg.Name, err)
	}

	r.mu.Lock()
	t.srv = srv
	t.pins++
	r.touchLocked(t)
	t.admissions.Inc()
	t.loadSecs.Set(loadTime.Seconds())
	victims := r.evictOverCapLocked(t)
	res := r.residentCountLocked()
	r.resident.Set(float64(res))
	r.mu.Unlock()

	r.log.Info("tenant admitted",
		slog.String("tenant", t.cfg.Name),
		slog.Duration("kb_load", loadTime),
		slog.Int("resident", res))
	for _, v := range victims {
		r.log.Info("tenant evicted",
			slog.String("tenant", v),
			slog.String("for", t.cfg.Name))
	}
	return srv, r.releaseFunc(t), nil
}

func (r *Registry) residentCountLocked() int {
	n := 0
	for _, t := range r.tenants {
		if t.srv != nil {
			n++
		}
	}
	return n
}

// evictOverCapLocked drops least-recently-used idle tenants until the
// resident count is back at the cap. Tenants with pinned requests are
// never victims — when everything is pinned, residency temporarily
// exceeds the cap and the next admission retries the eviction.
func (r *Registry) evictOverCapLocked(justAdmitted *tenant) []string {
	var victims []string
	for r.residentCountLocked() > r.maxRes {
		var victim *tenant
		for _, t := range r.tenants {
			if t.srv == nil || t.pins > 0 || t == justAdmitted {
				continue
			}
			if victim == nil || t.lastUsed < victim.lastUsed {
				victim = t
			}
		}
		if victim == nil {
			r.log.Warn("residency cap exceeded: every resident tenant has in-flight requests",
				slog.Int("resident", r.residentCountLocked()),
				slog.Int("cap", r.maxRes))
			break
		}
		victim.srv = nil // engine, caches and graph go with it (GC / kernel)
		victim.evictions.Inc()
		victims = append(victims, victim.cfg.Name)
	}
	return victims
}

// buildServer loads the tenant's KB and constructs its server. Rules
// and schema are parsed on the first admission only.
func (r *Registry) buildServer(t *tenant) (*server.Server, time.Duration, error) {
	t.once.Do(func() {
		f, err := os.Open(t.cfg.Rules)
		if err != nil {
			t.initE = err
			return
		}
		defer f.Close()
		rs, err := rules.ParseRules(f)
		if err != nil {
			t.initE = fmt.Errorf("parsing rules %s: %w", t.cfg.Rules, err)
			return
		}
		t.rules = rs
		t.schema = relation.NewSchema(t.cfg.Relation, t.cfg.Schema...)
	})
	if t.initE != nil {
		return nil, 0, t.initE
	}

	start := time.Now()
	g, err := r.loadGraph(t.cfg)
	if err != nil {
		return nil, 0, err
	}
	loadTime := time.Since(start)

	cfg := r.base
	cfg.Logger = r.log.With(slog.String("tenant", t.cfg.Name))
	cfg.Metrics = r.metrics
	cfg.MetricLabels = []telemetry.Label{{Name: "tenant", Value: t.cfg.Name}}
	if t.cfg.MaxConcurrent != 0 {
		cfg.MaxConcurrent = t.cfg.MaxConcurrent
	}
	if t.cfg.MemoBytes != 0 {
		cfg.MemoBytes = t.cfg.MemoBytes
	}
	if t.cfg.StreamWorkers != 0 {
		cfg.StreamWorkers = t.cfg.StreamWorkers
	}
	if t.cfg.VerifyMode != "" {
		cfg.VerifyMode = t.cfg.VerifyMode
	}
	if t.cfg.RetainGenerations != 0 {
		cfg.RetainGenerations = t.cfg.RetainGenerations
	}
	// The ensemble proposers read the tenant's KB through its store,
	// so the store is built here and shared with the server (hot
	// reloads reach the proposers automatically).
	st := kb.NewStore(g)
	if t.cfg.Ensemble {
		ens, err := tenantEnsemble(t, st)
		if err != nil {
			return nil, 0, err
		}
		cfg.Ensemble = ens
	}
	srv, err := server.NewWithStore(t.rules, st, t.schema, cfg)
	if err != nil {
		return nil, 0, err
	}
	return srv, loadTime, nil
}

// tenantEnsemble assembles the tenant's ensemble configuration: the
// auxiliary proposers (KATARA on the tenant's own KB behind st; FD
// and constant-CFD miners over the reference CSV when configured)
// and the acceptance threshold.
func tenantEnsemble(t *tenant, st *kb.Store) (repair.EnsembleOptions, error) {
	var ref *relation.Table
	if t.cfg.EnsembleRef != "" {
		var err error
		ref, err = adapters.LoadReference(t.schema, t.cfg.EnsembleRef)
		if err != nil {
			return repair.EnsembleOptions{}, fmt.Errorf("ensemble reference %s: %w", t.cfg.EnsembleRef, err)
		}
	}
	return repair.EnsembleOptions{
		Enabled:   true,
		Threshold: t.cfg.EnsembleThreshold,
		Proposers: adapters.BuildProposers(t.schema, ensemble.PatternFromRules(t.rules), st, ref),
	}, nil
}

// loadGraph reads one tenant's KB from its configured source.
// Snapshots go through kb.LoadSnapshotFile, which mmaps DKBS v2 files
// in place — the cheap path residency churn is designed around.
func (r *Registry) loadGraph(tc TenantConfig) (*kb.Graph, error) {
	if tc.Snapshot != "" {
		return kb.LoadSnapshotFile(tc.Snapshot)
	}
	f, err := os.Open(tc.KBText)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kb.Parse(f)
}

// TenantLoader implements server.TenantAdmin: the loader behind
// POST /v1/{tenant}/reload re-reads the tenant's configured source.
func (r *Registry) TenantLoader(name string) func() (*kb.Graph, error) {
	return func() (*kb.Graph, error) {
		r.mu.Lock()
		t := r.tenants[name]
		r.mu.Unlock()
		if t == nil {
			return nil, fmt.Errorf("%w: %q", server.ErrUnknownTenant, name)
		}
		return r.loadGraph(t.cfg)
	}
}

// Warm admits the named tenants (all configured tenants when names is
// empty, in LRU-safe config order) up to the residency cap, so a
// fresh process can pre-load its hot set before taking traffic.
func (r *Registry) Warm(names ...string) error {
	if len(names) == 0 {
		names = r.TenantNames()
	}
	if max := r.MaxResident(); len(names) > max {
		names = names[:max]
	}
	var firstErr error
	for _, n := range names {
		_, release, err := r.Tenant(n)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		release()
	}
	return firstErr
}

// ReloadResident re-stages every resident tenant's KB from its
// configured source through its canary pipeline (the SIGHUP path in
// registry mode). Non-resident tenants need nothing: their next
// admission reads the new file anyway. Errors are logged per tenant;
// the first is returned.
func (r *Registry) ReloadResident() error {
	r.mu.Lock()
	var live []*tenant
	for _, t := range r.tenants {
		if t.srv != nil {
			t.pins++ // hold residency across the staged reload
			live = append(live, t)
		}
	}
	r.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].cfg.Name < live[j].cfg.Name })

	var firstErr error
	for _, t := range live {
		start := time.Now()
		g, err := r.loadGraph(t.cfg)
		if err == nil {
			_, _, err = t.srv.StageReloadKB(g, time.Since(start))
		}
		if err != nil {
			r.log.Error("tenant reload failed; keeping current graph",
				slog.String("tenant", t.cfg.Name),
				slog.Any("error", err))
			if firstErr == nil {
				firstErr = fmt.Errorf("tenant %q: %w", t.cfg.Name, err)
			}
		}
		r.mu.Lock()
		t.pins--
		r.mu.Unlock()
	}
	return firstErr
}

// TenantStatus is one tenant's entry in Stats.
type TenantStatus struct {
	Name       string `json:"name"`
	Resident   bool   `json:"resident"`
	Pins       int    `json:"pins,omitempty"`
	Generation int64  `json:"generation,omitempty"`
	Admissions int64  `json:"admissions"`
	Evictions  int64  `json:"evictions"`
	Requests   int64  `json:"requests"`
}

// Stats is the registry-level status document (GET /registry on the
// ops listener).
type Stats struct {
	Configured  int            `json:"configured"`
	Resident    int            `json:"resident"`
	MaxResident int            `json:"maxResident"`
	Tenants     []TenantStatus `json:"tenants"`
}

// Stats snapshots the fleet.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Configured:  len(r.names),
		MaxResident: r.maxRes,
		Tenants:     make([]TenantStatus, 0, len(r.names)),
	}
	for _, n := range r.names {
		t := r.tenants[n]
		ts := TenantStatus{
			Name:       n,
			Resident:   t.srv != nil,
			Pins:       t.pins,
			Admissions: t.admissions.Value(),
			Evictions:  t.evictions.Value(),
			Requests:   t.requests.Value(),
		}
		if t.srv != nil {
			s.Resident++
			ts.Generation = t.srv.Store().Generation()
		}
		s.Tenants = append(s.Tenants, ts)
	}
	return s
}
