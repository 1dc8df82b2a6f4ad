package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"detective/internal/repair"
	"detective/internal/server"
)

// errMismatch marks a response whose body differs from the reference.
var errMismatch = errors.New("response body differs from the reference")

// checkClean verifies one POST /clean response: status 200, the
// X-Clean-* trailers reporting every row sent and none quarantined or
// over budget, and, when ref is non-nil, the body byte for byte.
func checkClean(status int, trailer http.Header, rows int, got, ref []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, got)
	}
	if v := trailer.Get(server.TrailerRows); v != strconv.Itoa(rows) {
		return fmt.Errorf("%s = %q, sent %d rows", server.TrailerRows, v, rows)
	}
	for _, k := range []string{server.TrailerQuarantined, server.TrailerBudgetExhausted} {
		if v := trailer.Get(k); v != "0" {
			return fmt.Errorf("%s = %q, want 0", k, v)
		}
	}
	if ref != nil && !bytes.Equal(got, ref) {
		return fmt.Errorf("%w: first difference at byte %d", errMismatch, firstDiff(got, ref))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// reloadResponse is the part of the admin reload answer the loop checks.
type reloadResponse struct {
	Delta  bool `json:"delta"`
	Canary *struct {
		Promoted     bool `json:"promoted"`
		ReplayedRows int  `json:"replayedRows"`
	} `json:"canary"`
}

// checkReload verifies one delta reload answer: 200, applied as a
// delta, promoted by the canary. It returns the canary's replayed rows.
func checkReload(status int, got []byte) (int, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("reload status %d: %.200s", status, got)
	}
	var rr reloadResponse
	if err := json.Unmarshal(got, &rr); err != nil {
		return 0, fmt.Errorf("reload answer: %w", err)
	}
	if !rr.Delta || rr.Canary == nil || !rr.Canary.Promoted {
		return 0, fmt.Errorf("reload not promoted as a delta: %.200s", got)
	}
	return rr.Canary.ReplayedRows, nil
}

// computeRefs fills the reference response of every body in the
// checked sample, using a separate memo-disabled engine per tenant on
// the tenant's base graph.
func computeRefs(b *bench) error {
	engines := make([]*repair.Engine, len(b.tenants))
	engine := func(t int32) (*repair.Engine, error) {
		if engines[t] == nil {
			e, err := repair.NewEngineWithOptions(b.rules, b.tenants[t].graph, b.schema, repair.Options{
				MemoDisabled:         true,
				TelemetrySampleEvery: -1,
				PrivateTelemetry:     true,
			})
			if err != nil {
				return nil, err
			}
			engines[t] = e
		}
		return engines[t], nil
	}
	var out bytes.Buffer
	if b.poolRows != nil {
		// hot: one reference line per pool row, assembled per body.
		e, err := engine(0)
		if err != nil {
			return err
		}
		bw := newBodyWriter(b.schema.Attrs)
		for _, r := range b.poolRows {
			bw.add(r)
		}
		if _, err := e.CleanCSVStream(bytes.NewReader(bw.bytes()), &out, false); err != nil {
			return err
		}
		lines := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		hdr := lines[0]
		for i := range b.bodies {
			var ref bytes.Buffer
			ref.Write(hdr)
			for _, r := range b.bodyRows[i] {
				ref.Write(lines[r+1])
			}
			if b.bodies[i].ref, err = b.arena.add(ref.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range b.bodies {
		bd := &b.bodies[i]
		if !bd.wantRef {
			continue
		}
		e, err := engine(bd.tenant)
		if err != nil {
			return err
		}
		out.Reset()
		if _, err := e.CleanCSVStream(bytes.NewReader(b.arena.bytes(bd.data)), &out, false); err != nil {
			return err
		}
		if bd.ref, err = b.arena.add(out.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// listener serves a bench's handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return l, nil
}

// close stops the server and waits for its goroutine.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// loadGen runs the closed loop: each client sends its next request only
// after the previous response has been read to its trailers.
type loadGen struct {
	b       *bench
	url     string
	client  *http.Client
	clients int
	next    atomic.Int64 // index of the next request in the run
}

func newLoadGen(b *bench, url string) *loadGen {
	n := clients()
	tr := &http.Transport{
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}
	return &loadGen{b: b, url: url, client: &http.Client{Transport: tr}, clients: n}
}

func (d *loadGen) close() { d.client.CloseIdleConnections() }

// clientStats is one client's record of a window.
type clientStats struct {
	lat        []float64 // /clean latency in ms; +Inf for a failed request
	reloadLat  []float64 // delta reload latency in ms
	canaryRows []int
	rows       int64
	attempted  int64
	failed     int64
	mismatches int64
	conflicts  int64
	exhausted  bool
	firstErr   error
	buf        bytes.Buffer

	start time.Time
	// done holds, per successful /clean request, its completion time
	// since start and its rows, for the per-second throughput slices.
	done [][2]int64
}

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.firstErr == nil {
		cs.firstErr = err
	}
	if errors.Is(err, errMismatch) {
		cs.mismatches++
	}
}

// window is the merged record of all clients over one timed window.
type window struct {
	clientStats
	elapsed time.Duration
	cpu     time.Duration
	heap    float64 // bytes, see heapSampler.Stop
	proc    [2]procCounters
	slices  []float64 // rows completed in each whole second of the window
}

// post sends one request and reads the whole answer into cs.buf.
func (d *loadGen) post(path string, data []byte, cs *clientStats) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	cs.buf.Reset()
	_, err = cs.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

func (d *loadGen) clean(bi int32, cs *clientStats) {
	bd := &d.b.bodies[bi]
	var ref []byte
	if bd.ref.n > 0 {
		ref = d.b.arena.bytes(bd.ref)
	}
	cs.attempted++
	t0 := time.Now()
	resp, err := d.post(d.b.cleanPath(bd.tenant), d.b.arena.bytes(bd.data), cs)
	ms := float64(time.Since(t0)) / 1e6
	if err == nil {
		err = checkClean(resp.StatusCode, resp.Trailer, int(bd.rows), cs.buf.Bytes(), ref)
	}
	if err != nil {
		cs.fail(err)
		cs.lat = append(cs.lat, math.Inf(1))
		return
	}
	cs.lat = append(cs.lat, ms)
	cs.rows += int64(bd.rows)
	cs.done = append(cs.done, [2]int64{int64(time.Since(cs.start)), int64(bd.rows)})
}

// reloadPair applies tenant t's forward delta and then its inverse
// through the admin endpoint, holding the tenant resident in between so
// the inverse always meets the forward's generation.
func (d *loadGen) reloadPair(t int32, cs *clientStats) {
	_, release, err := d.b.liveServer(t)
	if err != nil {
		cs.attempted++
		cs.fail(err)
		return
	}
	defer release()
	for _, delta := range [][]byte{d.b.tenants[t].fwd, d.b.tenants[t].inv} {
		cs.attempted++
		t0 := time.Now()
		resp, err := d.post(d.b.reloadPath(t), delta, cs)
		ms := float64(time.Since(t0)) / 1e6
		var rows int
		if err == nil {
			rows, err = checkReload(resp.StatusCode, cs.buf.Bytes())
			if resp.StatusCode == http.StatusConflict {
				cs.conflicts++
			}
		}
		if err != nil {
			cs.fail(err)
			return
		}
		cs.reloadLat = append(cs.reloadLat, ms)
		cs.canaryRows = append(cs.canaryRows, rows)
	}
}

// run drives every client until the deadline passes and merges their
// records. Requests started before the deadline complete and count.
func (d *loadGen) run(dur time.Duration, reloads bool) *window {
	stats := make([]*clientStats, d.clients)
	var wg sync.WaitGroup
	heap := startHeapSampler()
	p0 := readProc()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < d.clients; c++ {
		cs := &clientStats{lat: make([]float64, 0, 1<<14), start: start}
		stats[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline); n++ {
				if reloads && c == 0 && d.b.reloadEvery > 0 && n%d.b.reloadEvery == 0 {
					d.reloadPair(d.b.reloadTenant, cs)
					continue
				}
				bi, ok := d.b.bodyAt(d.next.Add(1) - 1)
				if !ok {
					cs.exhausted = true
					return
				}
				d.clean(bi, cs)
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	w.slices = make([]float64, int(dur/time.Second))
	w.proc = [2]procCounters{p0, readProc()}
	w.heap = heap.Stop()
	for _, cs := range stats {
		w.lat = append(w.lat, cs.lat...)
		w.reloadLat = append(w.reloadLat, cs.reloadLat...)
		w.canaryRows = append(w.canaryRows, cs.canaryRows...)
		w.rows += cs.rows
		for _, x := range cs.done {
			if i := int(x[0] / int64(time.Second)); i < len(w.slices) {
				w.slices[i] += float64(x[1])
			}
		}
		w.attempted += cs.attempted
		w.failed += cs.failed
		w.mismatches += cs.mismatches
		w.conflicts += cs.conflicts
		w.exhausted = w.exhausted || cs.exhausted
		if w.firstErr == nil {
			w.firstErr = cs.firstErr
		}
	}
	return w
}

// sendOnce posts the given bodies in order on one connection, outside
// any timing (the hot pool pass).
func (d *loadGen) sendOnce(bodies []int32) error {
	cs := &clientStats{}
	for _, bi := range bodies {
		d.clean(bi, cs)
		if cs.firstErr != nil {
			return cs.firstErr
		}
	}
	return nil
}

// reloadProbe sends n reload pairs after the window, for the
// single-tenant workloads' reload latency.
func (d *loadGen) reloadProbe(pairs int) *clientStats {
	cs := &clientStats{}
	for i := 0; i < pairs; i++ {
		d.reloadPair(d.b.reloadTenant, cs)
	}
	return cs
}

// getJSON fetches path from the listener and decodes it into v.
func (d *loadGen) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
