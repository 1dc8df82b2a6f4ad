package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"detective/internal/kb"
	"detective/internal/kb/verify"
	"detective/internal/registry"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/telemetry"
)

// Replay and probe sizes of a traced run.
const (
	replayMinSamples  = 100 // fewer row hits than this triggers the hit probe
	objectsBatchReps  = 20  // kb.objects_ns times each probe batch this often
	stageProbePairs   = 3   // in-process reload pairs of the reload probe
	registryProbeRuns = 8   // admissions of the registry probe
	resolvesPerAdmit  = 64  // resident resolves after each probe admission
)

// replayPrefix is how many requests of the run's sequence the traced
// replay repeats, per workload: a few thousand rows each.
var replayPrefix = map[string]int{"cold": 40, "hot": 400, "fleet": 48}

// span is one timed call at a layer boundary, recorded by the
// benchmark around a public entry point. Parent is the span that
// caused it (-1 for a root); Req is the replayed request (-1 outside
// requests). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is used from
// one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.t0)) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the
// length of the union of its children's intervals. Children the
// benchmark runs beside their parent rather than inside it (a twin
// engine, a sibling pass) count with their own intervals, so the rule
// is the same for both.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		open := false
		for _, x := range iv {
			switch {
			case !open:
				curS, curE, open = x[0], x[1], true
			case x[0] <= curE:
				curE = max(curE, x[1])
			default:
				covered += curE - curS
				curS, curE = x[0], x[1]
			}
		}
		if open {
			covered += curE - curS
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of a layer table.
type layerRow struct {
	name  string
	count int
	self  int64
}

// layerTable attributes the time of the spans under roots named root.
// total is the summed duration of those roots; each row is the self
// time of one span name below the roots; unattributed is the roots'
// own self time, the part of them no child span covers.
func layerTable(spans []span, root string) (rows []layerRow, total, unattributed int64) {
	self := selfTimes(spans)
	rootOf := make([]int32, len(spans))
	byName := make(map[string]*layerRow)
	for i, s := range spans {
		rootOf[i] = int32(i)
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent] // parents are recorded before children
		}
		if spans[rootOf[i]].Name != root {
			continue
		}
		if s.Parent < 0 {
			total += s.End - s.Start
			unattributed += self[i]
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.count++
		r.self += self[i]
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	return rows, total, unattributed
}

func printLayerTable(w io.Writer, title string, spans []span, root, rootSelf string) {
	rows, total, un := layerTable(spans, root)
	if total == 0 {
		return
	}
	share := func(ns int64) float64 { return 100 * ratio(float64(ns), float64(total)) }
	fmt.Fprintf(w, "# layers %s: %.3f ms in %s spans\n", title, float64(total)/1e6, root)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-22s self %10.3f ms %7.2f%%  (%d spans)\n", r.name, float64(r.self)/1e6, share(r.self), r.count)
	}
	fmt.Fprintf(w, "#   %-22s self %10.3f ms %7.2f%%  (%s)\n", "unattributed", float64(un)/1e6, share(un), rootSelf)
}

// layerCounters are the public counters read around the traced window.
type layerCounters struct {
	handlerSum   float64
	handlerCount int64
	shed         int64
	dedup        int64
	fleet        registry.Stats
}

func readLayerCounters(b *bench) layerCounters {
	h := b.metrics.Histogram("detective_http_request_seconds", "", nil, telemetry.Label{Name: "route", Value: "/clean"})
	c := layerCounters{
		handlerSum:   h.Sum(),
		handlerCount: h.Count(),
		dedup:        telemetry.Default().Counter("detective_stream_dedup_rows_total", "").Value(),
	}
	if b.reg == nil {
		c.shed = b.metrics.Counter("detective_http_shed_total", "").Value()
		return c
	}
	c.fleet = b.reg.Stats()
	for _, t := range b.tenants {
		c.shed += b.metrics.Counter("detective_http_shed_total", "", telemetry.Label{Name: "tenant", Value: t.name}).Value()
	}
	return c
}

// enginePair is a tenant's replay engines: A streams whole requests,
// its twin B repairs the same rows one at a time, so B's memo history
// matches A's. matchers and cands back the sibling passes.
type enginePair struct {
	a, b     *repair.Engine
	graph    *kb.Graph
	matchers []*rules.Matcher
	cands    *rules.Catalog
	cols     map[string]int
}

// replayer repeats requests on fresh engines, one at a time.
type replayer struct {
	b     *bench
	tr    *tracer
	pairs map[int32]*enginePair
	dst   *relation.Tuple

	rows, sibRows     int
	streamNs, rowNs   int64
	rowHit, rowMiss   []float64 // µs
	evalNs, evalCalls int64
	candNs, candCalls int64
	objNs, objCalls   int64
	seen              [][]string // rows of the first replayed request, for the hit probe
	// catalog and memo counters of the B engines around the prefix
	memo0, memo1    repair.MemoStats
	stats1          repair.Stats
	cache0, cacheM0 int64
	index0, indexM0 int64
	cache1, cacheM1 int64
	index1, indexM1 int64
}

func newReplayer(b *bench, tr *tracer) *replayer {
	return &replayer{b: b, tr: tr, pairs: make(map[int32]*enginePair), dst: &relation.Tuple{
		Values: make([]string, b.schema.Arity()),
		Marked: make([]bool, b.schema.Arity()),
	}}
}

func (r *replayer) pair(t int32) (*enginePair, error) {
	if p := r.pairs[t]; p != nil {
		return p, nil
	}
	g := r.b.tenants[t].graph
	workers := 0
	if r.b.reg != nil {
		workers = clients()
	}
	opts := repair.Options{Workers: workers, PrivateTelemetry: true}
	p := &enginePair{graph: g, cols: make(map[string]int)}
	var err error
	if p.a, err = repair.NewEngineWithOptions(r.b.rules, g, r.b.schema, opts); err != nil {
		return nil, err
	}
	if p.b, err = repair.NewEngineWithOptions(r.b.rules, g, r.b.schema, opts); err != nil {
		return nil, err
	}
	p.a.Warm()
	p.b.Warm()
	cat := rules.NewCatalog(g)
	for _, dr := range r.b.rules {
		m, err := rules.NewMatcher(dr, cat, r.b.schema)
		if err != nil {
			return nil, err
		}
		p.matchers = append(p.matchers, m)
	}
	p.cands = rules.NewCatalog(g)
	// Build the sibling catalogs' signature indexes up front, as
	// Engine.Warm does for A and B, so no pass pays an index build.
	for _, dr := range r.b.rules {
		nodes := append(append([]rules.Node(nil), dr.Evidence...), dr.Pos)
		if dr.Neg != nil {
			nodes = append(nodes, *dr.Neg)
		}
		for _, n := range nodes {
			cat.Candidates(n.Type, n.Sim, "")
			p.cands.Candidates(n.Type, n.Sim, "")
		}
	}
	for i, a := range r.b.schema.Attrs {
		p.cols[a] = i
	}
	r.pairs[t] = p
	return p, nil
}

// request replays body bi: a repair.stream span on A, a repair.row
// span per row on B, and for rows B missed the sibling passes. With
// traced false nothing is recorded as a span (the hot pool pass).
func (r *replayer) request(req, bi int32, traced bool) error {
	bd := &r.b.bodies[bi]
	p, err := r.pair(bd.tenant)
	if err != nil {
		return err
	}
	data := r.b.arena.bytes(bd.data)
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return err
	}
	recs = recs[1:]

	t0 := time.Now()
	sid := int32(-1)
	if traced {
		sid = r.tr.begin("repair.stream", -1, req)
	}
	res, err := p.a.CleanCSVStreamContext(context.Background(), bytes.NewReader(data), io.Discard, false)
	if traced {
		r.tr.end(sid)
		r.streamNs += int64(time.Since(t0))
		r.rows += len(recs)
	}
	if err != nil {
		return err
	}
	if res.Rows != len(recs) {
		return fmt.Errorf("replay: stream cleaned %d rows of %d", res.Rows, len(recs))
	}

	for _, rec := range recs {
		rid := int32(-1)
		t1 := time.Now()
		if traced {
			rid = r.tr.begin("repair.row", sid, req)
		}
		_, hit := p.b.RepairRow(r.dst, rec)
		d := time.Since(t1)
		if traced {
			r.tr.end(rid)
			r.rowNs += int64(d)
		}
		if hit {
			r.rowHit = append(r.rowHit, float64(d)/1e3)
			continue
		}
		r.rowMiss = append(r.rowMiss, float64(d)/1e3)
		r.siblings(p, rec, rid, req)
	}
	if traced && r.seen == nil {
		r.seen = recs
	}
	return nil
}

// siblings runs the rules and kb passes on a row the memo missed:
// the chase over every rule's Matcher.Evaluate, the evidence
// candidate lookups, and the KB edge probes from those candidates.
func (r *replayer) siblings(p *enginePair, rec []string, parent, req int32) {
	r.sibRows++
	t := relation.NewTuple(rec...)
	span := func(name string, parent int32) int32 {
		if parent < 0 {
			return -1
		}
		return r.tr.begin(name, parent, req)
	}
	endSpan := func(id int32) {
		if id >= 0 {
			r.tr.end(id)
		}
	}

	eid := span("rules.evaluate", parent)
	t0 := time.Now()
	applied := make([]bool, len(p.matchers))
	for changed := true; changed; {
		changed = false
		for i, m := range p.matchers {
			if applied[i] {
				continue
			}
			out := m.Evaluate(t)
			r.evalCalls++
			switch {
			case out.Kind == rules.Repair && len(out.Repairs) > 0:
				t.Values[p.cols[out.RepairCol]] = out.Repairs[0]
				applied[i], changed = true, true
			case out.Kind == rules.Positive:
				applied[i] = true
			}
		}
	}
	r.evalNs += int64(time.Since(t0))
	endSpan(eid)

	cid := span("rules.candidates", eid)
	t0 = time.Now()
	type probe struct {
		id      kb.ID
		pred    kb.ID
		forward bool
	}
	var probes []probe
	// As the matcher does, a rule's evidence nodes are looked up in
	// order until one has no candidate; as the engine's shared checks
	// do, each distinct node is looked up once per row.
	looked := make(map[string][]kb.ID)
	for _, m := range p.matchers {
		for _, n := range m.Rule.Evidence {
			ids, ok := looked[n.Key()]
			if !ok {
				ids = p.cands.Candidates(n.Type, n.Sim, rec[p.cols[n.Col]])
				looked[n.Key()] = ids
				r.candCalls++
			}
			if len(ids) == 0 {
				break
			}
			for _, e := range m.Rule.Edges {
				pred := p.graph.Lookup(e.Rel)
				if pred == kb.Invalid || (e.From != n.Name && e.To != n.Name) {
					continue
				}
				for _, id := range ids {
					probes = append(probes, probe{id, pred, e.From == n.Name})
				}
			}
		}
	}
	r.candNs += int64(time.Since(t0))
	endSpan(cid)

	run := func() {
		for _, pr := range probes {
			if pr.forward {
				_ = p.graph.Objects(pr.id, pr.pred)
			} else {
				_ = p.graph.Subjects(pr.pred, pr.id)
			}
		}
	}
	oid := span("kb.objects", eid)
	run()
	endSpan(oid)
	t0 = time.Now()
	for i := 0; i < objectsBatchReps; i++ {
		run()
	}
	r.objNs += int64(time.Since(t0))
	r.objCalls += int64(len(probes) * objectsBatchReps)
}

func (r *replayer) catalogStats() (ch, cm, ih, im int64, memo repair.MemoStats, st repair.Stats) {
	for _, p := range r.pairs {
		h, m, _ := p.b.Cat.CacheStats()
		ch, cm = ch+h, cm+m
		h, m, _ = p.b.Cat.IndexStats()
		ih, im = ih+h, im+m
		ms := p.b.MemoStats()
		memo.Tuple.Hits += ms.Tuple.Hits
		memo.Tuple.Misses += ms.Tuple.Misses
		memo.Tuple.Evictions += ms.Tuple.Evictions + ms.Tuple.GenEvictions
		memo.Cell.Hits += ms.Cell.Hits
		memo.Cell.Misses += ms.Cell.Misses
		memo.Cell.Evictions += ms.Cell.Evictions + ms.Cell.GenEvictions
		s := p.b.Stats()
		st.Quarantined += s.Quarantined
		st.BudgetExhausted += s.BudgetExhausted
	}
	return
}

// replay runs the hot pool pass untraced, then the traced prefix.
func (r *replayer) replay() error {
	for _, bi := range r.b.warm {
		if err := r.request(-1, bi, false); err != nil {
			return err
		}
	}
	// Replay statistics cover the traced prefix only.
	r.cache0, r.cacheM0, r.index0, r.indexM0, r.memo0, _ = r.catalogStats()
	for k := 0; k < replayPrefix[r.b.workload]; k++ {
		bi, ok := r.b.bodyAt(int64(k))
		if !ok {
			break
		}
		if err := r.request(int32(k), bi, true); err != nil {
			return err
		}
	}
	r.cache1, r.cacheM1, r.index1, r.indexM1, r.memo1, r.stats1 = r.catalogStats()
	// Cold rows never repeat, so row hits are timed by repairing the
	// first replayed request's rows once more.
	if len(r.rowHit) < replayMinSamples && r.seen != nil {
		bi, _ := r.b.bodyAt(0)
		p, err := r.pair(r.b.bodies[bi].tenant)
		if err != nil {
			return err
		}
		for _, rec := range r.seen {
			t0 := time.Now()
			if _, hit := p.b.RepairRow(r.dst, rec); hit {
				r.rowHit = append(r.rowHit, float64(time.Since(t0))/1e3)
			}
		}
	}
	return nil
}

// stageProbe stages the reload deltas in process on the live server
// of the reload tenant, with sibling kb.delta_apply and kb.verify
// passes on the same base graph.
func stageProbe(b *bench, tr *tracer) (stageMs, applyMs, verifyMs []float64, canaryRows []int, err error) {
	t := b.reloadTenant
	srv, release, err := b.liveServer(t)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer release()
	for i := 0; i < stageProbePairs; i++ {
		for _, enc := range [][]byte{b.tenants[t].fwd, b.tenants[t].inv} {
			d1, err := deltaOf(enc)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			d2, err := deltaOf(enc)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			g := srv.Store().Graph()
			sid := tr.begin("server.reload_stage", -1, -1)
			t0 := time.Now()
			_, rep, err := srv.StageReloadDelta(d1)
			stageMs = append(stageMs, float64(time.Since(t0))/1e6)
			tr.end(sid)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("staging delta: %w", err)
			}
			canaryRows = append(canaryRows, rep.ReplayedRows)

			aid := tr.begin("kb.delta_apply", sid, -1)
			t0 = time.Now()
			cand, err := g.ApplyDelta(d2)
			applyMs = append(applyMs, float64(time.Since(t0))/1e6)
			tr.end(aid)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("applying delta: %w", err)
			}
			vid := tr.begin("kb.verify", sid, -1)
			t0 = time.Now()
			verify.Check(cand, verify.Options{})
			verifyMs = append(verifyMs, float64(time.Since(t0))/1e6)
			tr.end(vid)
		}
	}
	return stageMs, applyMs, verifyMs, canaryRows, nil
}

// registryProbe admits two tenants alternately through a registry of
// residency 1 built on the workload's snapshots, timing each
// admission, a sibling kb.LoadSnapshotFile of the same snapshot, and
// resident resolves in between.
func registryProbe(b *bench, tr *tracer) (admitMs, resolveUs, mmapMs []float64, err error) {
	snaps := []string{b.tenants[0].snapshot, b.tenants[0].snapshot}
	if len(b.tenants) > 1 {
		snaps[1] = b.tenants[1].snapshot
	}
	cfg := registry.Config{
		MaxResident: 1,
		Defaults:    registry.TenantConfig{Rules: b.rulesPth, Schema: b.schema.Attrs, Relation: b.schema.Name},
		Tenants:     []registry.TenantConfig{{Name: "probe-a", Snapshot: snaps[0]}, {Name: "probe-b", Snapshot: snaps[1]}},
	}
	reg, err := registry.New(cfg, registry.Options{Logger: quietLogger(), Metrics: telemetry.NewRegistry()})
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < registryProbeRuns; i++ {
		name := cfg.Tenants[i%2].Name
		sid := tr.begin("registry.tenant", -1, -1)
		t0 := time.Now()
		_, release, err := reg.Tenant(name)
		admitMs = append(admitMs, float64(time.Since(t0))/1e6)
		tr.end(sid)
		if err != nil {
			return nil, nil, nil, err
		}
		release()
		mid := tr.begin("kb.mmap_load", sid, -1)
		t0 = time.Now()
		_, err = kb.LoadSnapshotFile(snaps[i%2])
		mmapMs = append(mmapMs, float64(time.Since(t0))/1e6)
		tr.end(mid)
		if err != nil {
			return nil, nil, nil, err
		}
		for j := 0; j < resolvesPerAdmit; j++ {
			t0 = time.Now()
			_, release, err := reg.Tenant(name)
			resolveUs = append(resolveUs, float64(time.Since(t0))/1e3)
			if err != nil {
				return nil, nil, nil, err
			}
			release()
		}
	}
	return admitMs, resolveUs, mmapMs, nil
}

// runTraced is the --trace 1 run: an untraced and a traced window of
// half the run length each, then the probes and the replay.
func runTraced(o options, dir string, stdout io.Writer) (*result, error) {
	b, setupTimes, err := prepare(o, dir, 1)
	if err != nil {
		return nil, err
	}
	defer b.close()
	l, d, err := serve(b)
	if err != nil {
		return nil, err
	}
	defer l.close()
	defer d.close()

	half := time.Duration(o.seconds) * time.Second / 2
	wU, relU, err := measure(d, half)
	if err != nil {
		return nil, err
	}
	// The untraced half's reloads invalidated the memo by generation;
	// warm up again so both halves start alike.
	if err := warmup(d); err != nil {
		return nil, err
	}
	c0 := readLayerCounters(b)
	if b.admin != nil {
		if err := b.admin.startTiming(); err != nil {
			return nil, err
		}
	}
	wT, relT, err := measure(d, half)
	var resolves, admits []float64
	if b.admin != nil {
		resolves, admits = b.admin.stopTiming()
	}
	if err != nil {
		return nil, err
	}
	c1 := readLayerCounters(b)
	res := &result{
		Attempted: wU.attempted + wT.attempted,
		Failed:    wU.failed + wT.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		fmt.Fprintf(stdout, "# first failure: %v\n", firstNonNil(wU.firstErr, wT.firstErr))
		return res, nil
	}
	eU, err := endToEnd(wU, relU, setupTimes, false)
	if err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	eT, err := endToEnd(wT, relT, setupTimes, false)
	if err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}

	tr := newTracer()
	stageMs, applyMs, verifyMs, canaryRows, err := stageProbe(b, tr)
	if err != nil {
		return nil, err
	}
	probeAdmit, probeResolve, mmapMs, err := registryProbe(b, tr)
	if err != nil {
		return nil, err
	}
	if b.admin == nil {
		admits, resolves = probeAdmit, probeResolve
	}
	rp := newReplayer(b, tr)
	if err := rp.replay(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Per-layer metrics.
	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	requests := float64(len(wT.lat))
	rows := float64(wT.rows)
	clientMs := mean(wT.lat)
	handlerMs := 1e3 * ratio(c1.handlerSum-c0.handlerSum, float64(c1.handlerCount-c0.handlerCount))
	var tenantMs float64 // the fleet mux's time in Tenant(), summed
	if b.admin != nil {
		tenantMs = 1e-3*mean(resolves)*float64(len(resolves)) + mean(admits)*float64(len(admits))
	}
	put("server.handler_ms", handlerMs, "ms")
	put("server.wire_ms", clientMs-handlerMs-ratio(tenantMs, requests), "ms")
	put("server.shed_per_1k", 1e3*ratio(float64(c1.shed-c0.shed), requests), "per_1k")
	put("server.reload_stage_ms", median(stageMs), "ms")
	put("server.canary_rows", mean(intsToFloats(canaryRows)), "rows")
	put("registry.resolve_us", mean(resolves), "us")
	put("registry.admit_ms", mean(admits), "ms")
	a0, e0 := sumFleet(c0.fleet)
	a1, e1 := sumFleet(c1.fleet)
	put("registry.admit_per_1k", 1e3*ratio(float64(a1-a0), requests), "per_1k")
	put("registry.evict_per_1k", 1e3*ratio(float64(e1-e0), requests), "per_1k")

	ch, cm, ih, im, memo, st := rp.cache1, rp.cacheM1, rp.index1, rp.indexM1, rp.memo1, rp.stats1
	rrows := float64(rp.rows)
	put("repair.stream_us_per_row", ratio(float64(rp.streamNs)/1e3, rrows), "us")
	put("repair.stream_self_us_per_row", ratio(float64(rp.streamNs-rp.rowNs)/1e3, rrows), "us")
	put("repair.row_hit_us", mean(rp.rowHit), "us")
	put("repair.row_miss_us", mean(rp.rowMiss), "us")
	th, tm := memo.Tuple.Hits-rp.memo0.Tuple.Hits, memo.Tuple.Misses-rp.memo0.Tuple.Misses
	clh, clm := memo.Cell.Hits-rp.memo0.Cell.Hits, memo.Cell.Misses-rp.memo0.Cell.Misses
	ev := memo.Tuple.Evictions + memo.Cell.Evictions - rp.memo0.Tuple.Evictions - rp.memo0.Cell.Evictions
	put("repair.memo_tuple_hit_ratio", ratio(float64(th), float64(th+tm)), "ratio")
	put("repair.memo_cell_hit_ratio", ratio(float64(clh), float64(clh+clm)), "ratio")
	put("repair.memo_evict_per_1k_rows", 1e3*ratio(float64(ev), rrows), "per_1k")
	put("repair.dedup_ratio", ratio(float64(c1.dedup-c0.dedup), rows), "ratio")
	put("repair.quarantined", float64(st.Quarantined), "count")
	put("repair.budget_exhausted", float64(st.BudgetExhausted), "count")
	put("rules.evaluate_us", ratio(float64(rp.evalNs)/1e3, float64(rp.evalCalls)), "us")
	put("rules.evaluations_per_row", ratio(float64(rp.evalCalls), float64(rp.sibRows)), "count")
	put("rules.candidates_us", ratio(float64(rp.candNs)/1e3, float64(rp.candCalls)), "us")
	put("rules.candidate_cache_hit_ratio", ratio(float64(ch-rp.cache0), float64(ch-rp.cache0+cm-rp.cacheM0)), "ratio")
	put("similarity.index_hit_ratio", ratio(float64(ih-rp.index0), float64(ih-rp.index0+im-rp.indexM0)), "ratio")
	put("similarity.lookups_per_row", ratio(float64(ih-rp.index0+im-rp.indexM0), rrows), "count")
	put("kb.objects_ns", ratio(float64(rp.objNs), float64(rp.objCalls)), "ns")
	put("kb.mmap_load_ms", median(mmapMs), "ms")
	put("kb.delta_apply_ms", median(applyMs), "ms")
	put("kb.verify_ms", median(verifyMs), "ms")
	put("process.allocs_per_row", ratio(float64(wT.proc[1].allocObjects-wT.proc[0].allocObjects), rows), "count")
	put("process.alloc_bytes_per_row", ratio(float64(wT.proc[1].allocBytes-wT.proc[0].allocBytes), rows), "B")
	put("process.gc_cpu_share", ratio(wT.proc[1].gcCPU-wT.proc[0].gcCPU, wT.proc[1].totalCPU-wT.proc[0].totalCPU), "ratio")

	// Human-readable report: layer tables and tracing overhead.
	fmt.Fprintf(stdout, "# http (traced window): client %.3f ms/request = wire %.3f + tenant resolve %.3f + handler %.3f\n",
		clientMs, m["server.wire_ms"].Value, ratio(tenantMs, requests), handlerMs)
	printLayerTable(stdout, "replayed requests", tr.spans, "repair.stream", "stream outside RepairRow: CSV decode/encode, pipeline")
	printLayerTable(stdout, "delta reload stage", tr.spans, "server.reload_stage", "canary shadow replay, swap, re-warm")
	printLayerTable(stdout, "tenant admission", tr.spans, "registry.tenant", "rules, engine and server build, warm")
	for _, k := range []string{"rows_per_s", "clean_p50_ms", "clean_p99_ms", "cpu_us_per_row", "reload_p50_ms", "heap_peak_mb"} {
		fmt.Fprintf(stdout, "# tracing overhead %-15s traced %12.4f untraced %12.4f delta %+10.4f %s\n",
			k, eT[k].Value, eU[k].Value, eT[k].Value-eU[k].Value, eT[k].Unit)
	}
	tracePath := filepath.Join(filepath.Dir(o.workdir), "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "# spans %d written to %s\n", len(tr.spans), tracePath)
	return res, nil
}

// deltaOf decodes an encoded delta for in-process staging.
func deltaOf(data []byte) (*kb.Delta, error) { return kb.ReadDelta(bytes.NewReader(data)) }

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func firstNonNil(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
