// Command perfbench is detective's end-to-end benchmark: it serves the
// real handler stack on a loopback listener in this process and drives
// POST /clean in a closed loop, one keep-alive connection per CPU.
//
//	bash perfbench/run.sh --workload cold|hot|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the loop with counters and the tenant wrapper timed, replays
// a prefix of the same requests through each layer's public entry
// points, and prints the per-layer metrics and layer tables. The last
// line of standard output is the result as one JSON object. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"detective/internal/registry"
	"detective/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	commit   string
}

// setupRounds is how many times a run sets its workload up; setup_s
// is the median.
const setupRounds = 3

// reloadProbePairs is how many forward+inverse reload pairs the
// single-tenant workloads send after their window.
const reloadProbePairs = 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: cold, hot or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 6, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench/work", "directory for snapshots and trace files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from, for the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.workload != "cold" && o.workload != "hot" && o.workload != "fleet" {
		fmt.Fprintf(stderr, "perfbench: --workload must be cold, hot or fleet, not %q\n", o.workload)
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	stamp, _ := json.Marshal(newHostStamp(o))
	fmt.Fprintf(stdout, "# host %s\n", stamp)
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, dir, stdout)
	} else {
		res, err = runPlain(o, dir, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare sets the workload up rounds times, keeping the last, and
// returns it with the set-up times in seconds. Each round writes its
// snapshots to a directory of its own: earlier rounds' graphs may
// still be mapped.
func prepare(o options, dir string, rounds int) (*bench, []float64, error) {
	var b *bench
	var times []float64
	for i := 0; i < rounds; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		nb, err := setup(o, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	if err := computeRefs(b); err != nil {
		b.close()
		return nil, nil, fmt.Errorf("computing reference outputs: %w", err)
	}
	// Generation-only structures go before anything is timed.
	b.poolRows, b.bodyRows = nil, nil
	runtime.GC()
	return b, times, nil
}

// warmup sends the hot pool pass and runs the loop briefly, so
// connections, pools and caches are warm when timing starts.
func warmup(d *loadGen) error {
	if err := d.sendOnce(d.b.warm); err != nil {
		return fmt.Errorf("warm-up pool pass: %w", err)
	}
	if w := d.run(warmupDuration, false); w.failed > 0 {
		return fmt.Errorf("warm-up: %v", w.firstErr)
	} else if w.exhausted {
		return errExhausted
	}
	runtime.GC()
	return nil
}

// counters are the public counters a workload's guard reads around
// the window.
type counters struct {
	stats server.StatsResponse // single-tenant /stats
	fleet registry.Stats
}

func readCounters(d *loadGen) (counters, error) {
	var c counters
	if d.b.reg != nil {
		c.fleet = d.b.reg.Stats()
		return c, nil
	}
	return c, d.getJSON("/stats", &c.stats)
}

func sumFleet(s registry.Stats) (admissions, evictions int64) {
	for _, t := range s.Tenants {
		admissions += t.Admissions
		evictions += t.Evictions
	}
	return admissions, evictions
}

// guard checks the property the workload exists for, from counters
// read outside the program; a non-nil error makes the run invalid.
func guard(b *bench, w *window, before, after counters) error {
	if w.exhausted {
		return errExhausted
	}
	switch b.workload {
	case "cold":
		if hits := after.stats.Memo.Tuple.Hits - before.stats.Memo.Tuple.Hits; hits != 0 {
			return fmt.Errorf("cold: %d tuple-tier memo hits in the window, want 0", hits)
		}
	case "hot":
		h := after.stats.Memo.Tuple.Hits - before.stats.Memo.Tuple.Hits
		m := after.stats.Memo.Tuple.Misses - before.stats.Memo.Tuple.Misses
		if r := ratio(float64(h), float64(h+m)); r < 0.95 {
			return fmt.Errorf("hot: tuple-tier hit ratio %.4f in the window, want >= 0.95", r)
		}
	case "fleet":
		a0, e0 := sumFleet(before.fleet)
		a1, e1 := sumFleet(after.fleet)
		if a1 == a0 || e1 == e0 || len(w.reloadLat) == 0 {
			return fmt.Errorf("fleet: admissions %d, evictions %d, promoted reloads %d in the window, want all > 0",
				a1-a0, e1-e0, len(w.reloadLat))
		}
		if w.conflicts > 0 {
			return fmt.Errorf("fleet: %d reloads answered 409", w.conflicts)
		}
	}
	return nil
}

// endToEnd derives the end-to-end metrics of a window. With strict
// false, a p99 without minBeyond samples beyond it reads NaN instead
// of failing (the traced run's half windows only compare medians).
func endToEnd(w *window, reloadLat []float64, setupTimes []float64, strict bool) (map[string]metric, error) {
	if w.rows == 0 {
		return nil, fmt.Errorf("no rows served in the window")
	}
	lat := append([]float64(nil), w.lat...)
	sort.Float64s(lat)
	p99, ok := tailPercentile(lat, 0.99)
	if !ok {
		if strict {
			return nil, fmt.Errorf("%d requests leave fewer than %d samples beyond p99", len(lat), minBeyond)
		}
		p99 = math.NaN()
	}
	if math.IsInf(p99, 1) {
		return nil, fmt.Errorf("more than 1%% of requests failed")
	}
	if len(reloadLat) == 0 {
		return nil, fmt.Errorf("no reload completed")
	}
	rows := float64(w.rows)
	return map[string]metric{
		"rows_per_s":     {rows / w.elapsed.Seconds(), "rows/s"},
		"clean_p50_ms":   {median(lat), "ms"},
		"clean_p99_ms":   {p99, "ms"},
		"cpu_us_per_row": {float64(w.cpu) / 1e3 / rows, "us"},
		"reload_p50_ms":  {median(append([]float64(nil), reloadLat...)), "ms"},
		"heap_peak_mb":   {w.heap / (1 << 20), "MiB"},
		"setup_s":        {median(append([]float64(nil), setupTimes...)), "s"},
	}, nil
}

// serve starts the listener and the load generator and warms them up.
func serve(b *bench) (*listener, *loadGen, error) {
	l, err := listen(b.handler)
	if err != nil {
		return nil, nil, err
	}
	d := newLoadGen(b, l.url)
	if err := warmup(d); err != nil {
		d.close()
		l.close()
		return nil, nil, err
	}
	return l, d, nil
}

// measure runs one timed window with the workload's guard around it,
// plus the single-tenant reload probe after it.
func measure(d *loadGen, dur time.Duration) (*window, []float64, error) {
	before, err := readCounters(d)
	if err != nil {
		return nil, nil, err
	}
	w := d.run(dur, d.b.reloadEvery > 0)
	after, err := readCounters(d)
	if err != nil {
		return nil, nil, err
	}
	if err := guard(d.b, w, before, after); err != nil {
		return w, nil, fmt.Errorf("invalid run: %w", err)
	}
	reloadLat := w.reloadLat
	if d.b.reloadEvery == 0 {
		// Every run's probe starts from a collected heap, not from
		// whatever collection phase the window ended in.
		runtime.GC()
		probe := d.reloadProbe(reloadProbePairs)
		w.attempted += probe.attempted
		w.failed += probe.failed
		w.mismatches += probe.mismatches
		if w.firstErr == nil {
			w.firstErr = probe.firstErr
		}
		reloadLat = probe.reloadLat
	}
	return w, reloadLat, nil
}

func runPlain(o options, dir string, stdout io.Writer) (*result, error) {
	b, setupTimes, err := prepare(o, dir, setupRounds)
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

	w, reloadLat, err := measure(d, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# window %.3fs requests %d failed %d mismatches %d fail_ratio %.6f rows %d reloads %d setup_s %v\n",
		w.elapsed.Seconds(), w.attempted, w.failed, w.mismatches, ratio(float64(w.failed), float64(w.attempted)),
		w.rows, len(reloadLat), setupTimes)
	fmt.Fprintf(stdout, "# rows per second slice %.0f\n", w.slices)
	res := &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	if w.failed > 0 {
		fmt.Fprintf(stdout, "# first failure: %v\n", w.firstErr)
		return res, nil
	}
	if res.Metrics, err = endToEnd(w, reloadLat, setupTimes, true); err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	return res, nil
}
