package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/registry"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/telemetry"
)

// Workload sizes. README.md gives the reasons.
const (
	coldKBLaureates = 4000
	coldRowsPerReq  = 200
	// coldMaxRowsPerSecPerCPU bounds the distinct rows generated for a
	// cold run: the run is refused as exhausted if the host serves more.
	coldMaxRowsPerSecPerCPU = 100_000
	coldRefEvery            = 25 // every 25th cold request is checked byte for byte

	hotKBLaureates = 2000
	hotPoolRows    = 8000
	hotRowsPerReq  = 20
	hotPassPerReq  = 200 // rows per request of the untimed pool pass
	hotBodies      = 4096
	hotZipfS       = 1.1

	fleetTenants      = 12
	fleetMaxResident  = 9
	fleetKBLaureates  = 1000
	fleetPoolRows     = 2000
	fleetBodyDistinct = 400 // distinct rows per body before duplicate bursts
	fleetMaxBurst     = 8
	fleetBodies       = 24 // bodies per tenant
	fleetRefEvery     = 3  // every third body of a tenant is checked
	fleetSeqLen       = 8192
	fleetZipfS        = 2.0
	fleetReloadEvery  = 40 // client 0 sends a reload pair in place of every 40th request

	warmupDuration = 500 * time.Millisecond
)

// clients is the closed loop's connection count: one per CPU.
func clients() int { return runtime.NumCPU() }

// bench is one workload, set up and ready to serve.
type bench struct {
	workload string
	schema   *relation.Schema
	rules    []*rules.DR
	rulesPth string
	tenants  []*tenantKB
	metrics  *telemetry.Registry
	handler  http.Handler

	arena  *arena
	bodies []body
	seq    []int32 // order of bodies; nil sends bodies in order, once
	warm   []int32 // hot: the pool pass sent before the warm-up loop

	// hot only: the pool rows of each body, for the reference.
	poolRows [][]string
	bodyRows [][]int32

	srv   *server.Server     // single-tenant workloads
	reg   *registry.Registry // fleet
	admin *tenantAdmin       // fleet

	// reloadEvery > 0 interleaves reload pairs on client 0 in the
	// timed window (fleet); cold and hot reload after it. Reloads go to
	// reloadTenant, the most popular tenant, whose canary recorder is
	// full early in every run.
	reloadEvery  int
	reloadTenant int32
}

// bodyAt maps the i-th request of the run to a body.
func (b *bench) bodyAt(i int64) (int32, bool) {
	if b.seq == nil {
		if i >= int64(len(b.bodies)) {
			return 0, false
		}
		return int32(i), true
	}
	return b.seq[i%int64(len(b.seq))], true
}

func (b *bench) cleanPath(t int32) string {
	if b.reg == nil {
		return "/clean"
	}
	return "/v1/" + b.tenants[t].name + "/clean"
}

func (b *bench) reloadPath(t int32) string {
	if b.reg == nil {
		return "/reload?delta=1"
	}
	return "/v1/" + b.tenants[t].name + "/reload?delta=1"
}

// liveServer returns the server of tenant t and the func that ends
// the registry pin holding it resident (a no-op for one tenant).
func (b *bench) liveServer(t int32) (*server.Server, func(), error) {
	if b.reg == nil {
		return b.srv, func() {}, nil
	}
	return b.reg.Tenant(b.tenants[t].name)
}

func (b *bench) close() {
	if b.arena != nil {
		b.arena.release()
	}
}

// quietLogger drops every record: the benchmark measures serving, not
// log formatting.
func quietLogger() *slog.Logger { return slog.New(quietHandler{}) }

type quietHandler struct{}

func (quietHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (quietHandler) Handle(context.Context, slog.Record) error { return nil }
func (h quietHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h quietHandler) WithGroup(string) slog.Handler           { return h }

// setup generates the workload's inputs under dir and builds and warms
// its server stack. Everything it does counts as set-up time.
func setup(o options, dir string) (*bench, error) {
	switch o.workload {
	case "cold":
		return setupCold(o, dir)
	case "hot":
		return setupHot(o, dir)
	case "fleet":
		return setupFleet(o, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold, hot or fleet)", o.workload)
}

// singleTenant builds the one-tenant server on the snapshot graph and
// the mux the loop talks to: the public routes plus the admin delta
// reload, as an operator would mount them.
func singleTenant(b *bench, bundle *dataset.Bundle, t *tenantKB) error {
	b.schema, b.rules = bundle.Schema, bundle.Rules
	b.tenants = []*tenantKB{t}
	b.metrics = telemetry.NewRegistry()
	srv, err := server.NewWithConfig(bundle.Rules, t.graph, bundle.Schema, server.Config{
		Logger:  quietLogger(),
		Metrics: b.metrics,
	})
	if err != nil {
		return err
	}
	b.srv = srv
	mux := http.NewServeMux()
	mux.Handle("POST /reload", srv.ReloadHandler(func() (*kb.Graph, error) {
		return nil, errors.New("full reloads are not part of this benchmark")
	}))
	mux.Handle("/", srv)
	b.handler = mux
	b.rulesPth = filepath.Join(filepath.Dir(t.snapshot), "rules.dr")
	return writeRules(b.rulesPth, bundle.Rules)
}

func setupCold(o options, dir string) (*bench, error) {
	bundle, t, err := buildTenantKB(dir, "cold", o.seed, coldKBLaureates)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: "cold"}
	// Every row of the run is distinct, warm-ups included (a traced run
	// warms up twice), so the rows are generated for the fastest rate
	// the run accepts.
	maxRows := int(float64(coldMaxRowsPerSecPerCPU*clients()) * (float64(o.seconds) + 2*warmupDuration.Seconds()))
	nReq := (maxRows + coldRowsPerReq - 1) / coldRowsPerReq
	if b.arena, err = newArena(nReq*coldRowsPerReq*192 + 64<<20); err != nil {
		return nil, err
	}
	gen := newRowGen(bundle, o.seed)
	bw := newBodyWriter(bundle.Schema.Attrs)
	b.bodies = make([]body, 0, nReq)
	for i := 0; i < nReq; i++ {
		bw.reset()
		for r := 0; r < coldRowsPerReq; r++ {
			bw.add(gen.next())
		}
		x, err := b.arena.add(bw.bytes())
		if err != nil {
			b.close()
			return nil, err
		}
		b.bodies = append(b.bodies, body{rows: int32(bw.rows), data: x, wantRef: i%coldRefEvery == 0})
	}
	if err := singleTenant(b, bundle, t); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func setupHot(o options, dir string) (*bench, error) {
	bundle, t, err := buildTenantKB(dir, "hot", o.seed, hotKBLaureates)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: "hot"}
	gen := newRowGen(bundle, o.seed)
	pool := make([][]string, hotPoolRows)
	index := make(map[string]int32, hotPoolRows)
	for i := range pool {
		pool[i] = append([]string(nil), gen.next()...)
		index[strings.Join(pool[i], "\x00")] = int32(i)
	}
	// The requests draw rows from the pool with dataset.ZipfTable's
	// head-heavy popularity.
	draws := dataset.ZipfTable(rowsTable(bundle.Schema, pool), o.seed, hotZipfS, hotBodies*hotRowsPerReq)
	if b.arena, err = newArena((hotBodies*hotRowsPerReq*2+hotPoolRows)*192 + 16<<20); err != nil {
		return nil, err
	}
	bw := newBodyWriter(bundle.Schema.Attrs)
	add := func(rows []int32) error {
		bw.reset()
		for _, r := range rows {
			bw.add(pool[r])
		}
		x, err := b.arena.add(bw.bytes())
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body{rows: int32(len(rows)), data: x, wantRef: true})
		b.bodyRows = append(b.bodyRows, rows)
		return nil
	}
	for i := 0; i < hotBodies; i++ {
		rows := make([]int32, hotRowsPerReq)
		for j := range rows {
			rows[j] = index[strings.Join(draws.Tuples[i*hotRowsPerReq+j].Values, "\x00")]
		}
		if err := add(rows); err != nil {
			b.close()
			return nil, err
		}
		b.seq = append(b.seq, int32(i))
	}
	for first := 0; first < hotPoolRows; first += hotPassPerReq {
		var rows []int32
		for r := first; r < first+hotPassPerReq && r < hotPoolRows; r++ {
			rows = append(rows, int32(r))
		}
		if err := add(rows); err != nil {
			b.close()
			return nil, err
		}
		b.warm = append(b.warm, int32(len(b.bodies)-1))
	}
	b.poolRows = pool
	if err := singleTenant(b, bundle, t); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func setupFleet(o options, dir string) (*bench, error) {
	b := &bench{workload: "fleet", reloadEvery: fleetReloadEvery}
	var err error
	if b.arena, err = newArena(fleetTenants*fleetBodies*fleetBodyDistinct*fleetMaxBurst*192*2 + 16<<20); err != nil {
		return nil, err
	}
	fail := func(err error) (*bench, error) {
		b.close()
		return nil, err
	}
	for ti := 0; ti < fleetTenants; ti++ {
		name := fmt.Sprintf("t%02d", ti)
		seed := o.seed*1000003 + int64(ti)
		bundle, t, err := buildTenantKB(dir, name, seed, fleetKBLaureates)
		if err != nil {
			return fail(err)
		}
		if ti == 0 {
			b.schema, b.rules = bundle.Schema, bundle.Rules
			b.rulesPth = filepath.Join(dir, "rules.dr")
			if err := writeRules(b.rulesPth, bundle.Rules); err != nil {
				return fail(err)
			}
		}
		b.tenants = append(b.tenants, t)
		gen := newRowGen(bundle, seed)
		pool := make([][]string, fleetPoolRows)
		for i := range pool {
			pool[i] = append([]string(nil), gen.next()...)
		}
		rng := rand.New(rand.NewSource(seed))
		bw := newBodyWriter(bundle.Schema.Attrs)
		for j := 0; j < fleetBodies; j++ {
			picked := make([][]string, fleetBodyDistinct)
			for k := range picked {
				picked[k] = pool[rng.Intn(len(pool))]
			}
			burst := dataset.DuplicateBursts(rowsTable(bundle.Schema, picked), seed+int64(j), fleetMaxBurst)
			bw.reset()
			for _, tu := range burst.Tuples {
				bw.add(tu.Values)
			}
			x, err := b.arena.add(bw.bytes())
			if err != nil {
				return fail(err)
			}
			b.bodies = append(b.bodies, body{tenant: int32(ti), rows: int32(bw.rows), data: x, wantRef: j%fleetRefEvery == 0})
		}
	}

	// Tenant popularity: Zipf over a seeded ranking of the tenants.
	rng := rand.New(rand.NewSource(o.seed))
	rank := rng.Perm(fleetTenants)
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetTenants-1)
	b.seq = make([]int32, fleetSeqLen)
	for i := range b.seq {
		t := rank[zipf.Uint64()]
		b.seq[i] = int32(t*fleetBodies + rng.Intn(fleetBodies))
	}

	cfg := registry.Config{
		MaxResident: fleetMaxResident,
		Defaults: registry.TenantConfig{
			Rules:         b.rulesPth,
			Schema:        b.schema.Attrs,
			Relation:      b.schema.Name,
			StreamWorkers: clients(),
		},
	}
	for _, t := range b.tenants {
		cfg.Tenants = append(cfg.Tenants, registry.TenantConfig{Name: t.name, Snapshot: t.snapshot})
	}
	b.metrics = telemetry.NewRegistry()
	if b.reg, err = registry.New(cfg, registry.Options{Logger: quietLogger(), Metrics: b.metrics}); err != nil {
		return fail(err)
	}
	b.reloadTenant = int32(rank[0])
	// Warm the most popular tenants, as an operator's -warm list would.
	var hot []string
	for _, t := range rank[:fleetMaxResident] {
		hot = append(hot, b.tenants[t].name)
	}
	if err := b.reg.Warm(hot...); err != nil {
		return fail(err)
	}
	b.admin = &tenantAdmin{reg: b.reg}
	b.handler = server.NewTenantAdminMux(b.admin, quietLogger())
	return b, nil
}

// tenantAdmin is the TenantAdmin the fleet's mux resolves through.
// While timing is on it times every Tenant call and classifies it as
// a resident resolve or an admission by whether the server changed.
type tenantAdmin struct {
	reg    *registry.Registry
	timing atomic.Bool

	mu       sync.Mutex
	last     map[string]*server.Server
	resolves []float64 // µs
	admits   []float64 // ms
}

func (a *tenantAdmin) Tenant(name string) (*server.Server, func(), error) {
	if !a.timing.Load() {
		return a.reg.Tenant(name)
	}
	t0 := time.Now()
	s, release, err := a.reg.Tenant(name)
	d := time.Since(t0)
	if err == nil {
		a.mu.Lock()
		if a.last[name] == s {
			a.resolves = append(a.resolves, float64(d)/1e3)
		} else {
			a.admits = append(a.admits, float64(d)/1e6)
			a.last[name] = s
		}
		a.mu.Unlock()
	}
	return s, release, err
}

func (a *tenantAdmin) TenantNames() []string { return a.reg.TenantNames() }

func (a *tenantAdmin) TenantLoader(name string) func() (*kb.Graph, error) {
	return a.reg.TenantLoader(name)
}

// startTiming records the currently resident servers, so the first
// timed call of a resident tenant counts as a resolve, and turns
// timing on.
func (a *tenantAdmin) startTiming() error {
	a.mu.Lock()
	a.last = make(map[string]*server.Server)
	a.resolves, a.admits = nil, nil
	a.mu.Unlock()
	var resident []string
	for _, ts := range a.reg.Stats().Tenants {
		if ts.Resident {
			resident = append(resident, ts.Name)
		}
	}
	sort.Strings(resident)
	for _, n := range resident {
		s, release, err := a.reg.Tenant(n)
		if err != nil {
			return err
		}
		release()
		a.mu.Lock()
		a.last[n] = s
		a.mu.Unlock()
	}
	a.timing.Store(true)
	return nil
}

func (a *tenantAdmin) stopTiming() (resolves, admits []float64) {
	a.timing.Store(false)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resolves, a.admits
}
