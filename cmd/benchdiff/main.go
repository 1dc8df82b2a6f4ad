// Command benchdiff is the benchmark-regression gate. It reads two
// `go test -bench -benchmem` text outputs of the same benchmarks, one
// measured on the base commit and one on the head, each holding
// several samples per benchmark, and exits non-zero when a head median
// regressed beyond the threshold:
//
//	go run ./cmd/benchdiff -base bench_base.txt -head bench_head.txt
//
// scripts/benchdiff.sh (`make benchdiff`) produces both files on one
// machine in interleaved rounds, so the bound compares like with like.
//
// Two metrics are gated per benchmark: the median ns/op (wall time)
// and the median allocs/op (allocation count). The report gives each
// side's median and quartiles. A benchmark in the base output but
// missing from the head output fails the gate — removing a gated
// benchmark means taking it off the script's list. Benchmarks only in
// the head output are reported as new and pass.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// samples holds one benchmark's measurements, one entry per result line.
type samples struct {
	pkg        string
	ns, allocs []float64
}

// procsSuffix is the -GOMAXPROCS suffix go test appends to benchmark
// names when GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads go test -bench output. It returns the samples of every
// benchmark keyed by its name without the "Benchmark" prefix and the
// -GOMAXPROCS suffix, and the names in order of first appearance. A
// failed benchmark or package is an error: its numbers cannot be
// trusted, and a gate must not pass on them.
func parse(path string) (map[string]*samples, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m := make(map[string]*samples)
	var names []string
	pkg := ""
	sc := bufio.NewScanner(f)
	for lineno := 1; sc.Scan(); lineno++ {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "--- FAIL") || len(fields) > 0 && fields[0] == "FAIL":
			return nil, nil, fmt.Errorf("%s:%d: benchmark run failed: %s", path, lineno, line)
		case strings.HasPrefix(line, "Benchmark") && len(fields) >= 4:
			// name, iterations, then (value, unit) pairs; a line whose
			// second field is not a count is a log line, not a result.
			if _, err := strconv.Atoi(fields[1]); err != nil {
				continue
			}
			name := procsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
			vals := map[string]float64{}
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("%s:%d: bad value %q", path, lineno, fields[i])
				}
				vals[fields[i+1]] = v
			}
			ns, okNs := vals["ns/op"]
			allocs, okAllocs := vals["allocs/op"]
			if !okNs || !okAllocs {
				return nil, nil, fmt.Errorf("%s:%d: %s lacks ns/op or allocs/op (run with -benchmem)", path, lineno, name)
			}
			s, ok := m[name]
			if !ok {
				s = &samples{pkg: pkg}
				m[name] = s
				names = append(names, name)
			} else if s.pkg != pkg {
				return nil, nil, fmt.Errorf("%s:%d: benchmark %s in both %s and %s", path, lineno, name, s.pkg, pkg)
			}
			s.ns = append(s.ns, ns)
			s.allocs = append(s.allocs, allocs)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, names, nil
}

// quartiles returns the 25th, 50th and 75th percentiles of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// pct is the relative change from base to head as a percentage;
// positive means head is worse (slower / more allocations).
func pct(base, head float64) float64 {
	if base == 0 {
		if head == 0 {
			return 0
		}
		return 100
	}
	return (head - base) / base * 100
}

// compare summarizes one metric on both sides as "median [q1 q3]"
// columns and returns the change of the head median in percent.
func compare(base, head []float64, format string) (string, string, float64) {
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	col := func(q1, med, q3 float64) string {
		return fmt.Sprintf(format+" ["+format+" "+format+"]", med, q1, q3)
	}
	return col(bq1, bmed, bq3), col(hq1, hmed, hq3), pct(bmed, hmed)
}

// run compares the two outputs and writes the report to w; it returns
// (failed, error) so the gate decision is testable apart from the
// process exit.
func run(basePath, headPath string, threshold float64, w io.Writer) (bool, error) {
	base, names, err := parse(basePath)
	if err != nil {
		return false, err
	}
	head, headNames, err := parse(headPath)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "%-36s %5s %32s %32s %8s %22s %22s %8s\n", "benchmark", "n",
		"base ns/op [q1 q3]", "head ns/op [q1 q3]", "Δns%",
		"base allocs [q1 q3]", "head allocs [q1 q3]", "Δallocs%")
	failed := false
	for _, name := range names {
		b := base[name]
		h, ok := head[name]
		if !ok {
			fmt.Fprintf(w, "%-36s MISSING from %s — take it off the gated list when removing a benchmark\n", name, headPath)
			failed = true
			continue
		}
		bns, hns, dns := compare(b.ns, h.ns, "%.0f")
		ballocs, hallocs, dallocs := compare(b.allocs, h.allocs, "%g")
		status := ""
		if dns > threshold {
			status = "  REGRESSION(ns/op)"
			failed = true
		}
		if dallocs > threshold {
			status += "  REGRESSION(allocs)"
			failed = true
		}
		fmt.Fprintf(w, "%-36s %2d/%-2d %32s %32s %+7.1f%% %22s %22s %+7.1f%%%s\n",
			name, len(b.ns), len(h.ns), bns, hns, dns, ballocs, hallocs, dallocs, status)
	}
	for _, name := range headNames {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "%-36s new benchmark (not measured at base)\n", name)
		}
	}

	if failed {
		fmt.Fprintf(w, "\nbenchdiff: FAIL (threshold %.0f%% on the median)\n", threshold)
	} else {
		fmt.Fprintf(w, "\nbenchdiff: OK (threshold %.0f%% on the median)\n", threshold)
	}
	return failed, nil
}

func main() {
	basePath := flag.String("base", "bench_base.txt", "go test -bench -benchmem output measured on the base commit")
	headPath := flag.String("head", "bench_head.txt", "go test -bench -benchmem output measured on the head")
	threshold := flag.Float64("threshold", 25, "max allowed regression percentage of the median ns/op and allocs/op")
	flag.Parse()

	failed, err := run(*basePath, *headPath, *threshold, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}
