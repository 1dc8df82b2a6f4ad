package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeOutput(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchLines renders one go test result line per sample, in the
// format `go test -bench -benchmem` prints on a 2-CPU machine.
func benchLines(name string, ns, allocs []float64) string {
	var b strings.Builder
	for i := range ns {
		fmt.Fprintf(&b, "Benchmark%s-2   \t  100000\t%10.1f ns/op\t     160 B/op\t%8.0f allocs/op\n", name, ns[i], allocs[i])
	}
	return b.String()
}

const header = "goos: linux\ngoarch: amd64\npkg: detective\ncpu: Intel(R) Xeon(R) Processor\n"

func TestRunNewBenchmarkPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeOutput(t, dir, "base.txt", header+
		benchLines("FastRepairTuple", []float64{1000}, []float64{10})+"PASS\n")
	head := writeOutput(t, dir, "head.txt", header+
		benchLines("FastRepairTuple", []float64{1000}, []float64{10})+
		benchLines("EnsembleTuple4", []float64{500}, []float64{5})+"PASS\n")
	var out strings.Builder
	failed, err := run(base, head, 25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("gate failed on a benchmark new at head:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "EnsembleTuple4") || !strings.Contains(out.String(), "new benchmark") {
		t.Fatalf("new benchmark not reported:\n%s", out.String())
	}
}

func TestRunMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	base := writeOutput(t, dir, "base.txt", header+
		benchLines("FastRepairTuple", []float64{1000}, []float64{10})+
		benchLines("Deleted", []float64{10}, []float64{1})+"PASS\n")
	head := writeOutput(t, dir, "head.txt", header+
		benchLines("FastRepairTuple", []float64{1000}, []float64{10})+"PASS\n")
	var out strings.Builder
	failed, err := run(base, head, 25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("gate passed with a base benchmark missing at head:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("missing benchmark not reported:\n%s", out.String())
	}
}

// TestRunRegressionFails gates the median of five samples per side:
// one outlier on either side must not move the decision, and the bound
// sits between a 24% and a 26% median regression of either metric.
func TestRunRegressionFails(t *testing.T) {
	baseNs := []float64{980, 1000, 1020, 40000, 990} // median 1000
	baseAllocs := []float64{100, 100, 100, 100, 3}   // median 100
	// around returns five samples whose median is m, with an outlier
	// on each side.
	around := func(m float64) []float64 { return []float64{m * 0.9, 1, m, 1e9, m * 1.1} }
	cases := []struct {
		name             string
		nsMed, allocsMed float64
		wantFail         bool
		wantFlag         string
	}{
		{"ns +26%", 1260, 100, true, "REGRESSION(ns/op)"},
		{"ns +24%", 1240, 100, false, ""},
		{"allocs +26%", 1000, 126, true, "REGRESSION(allocs)"},
		{"allocs +24%", 1000, 124, false, ""},
		{"faster", 500, 50, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeOutput(t, dir, "base.txt", header+benchLines("FastRepairTuple", baseNs, baseAllocs)+"PASS\n")
			head := writeOutput(t, dir, "head.txt", header+
				benchLines("FastRepairTuple", around(tc.nsMed), around(tc.allocsMed))+"PASS\n")
			var out strings.Builder
			failed, err := run(base, head, 25, &out)
			if err != nil {
				t.Fatal(err)
			}
			if failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v:\n%s", failed, tc.wantFail, out.String())
			}
			if tc.wantFlag != "" && !strings.Contains(out.String(), tc.wantFlag) {
				t.Fatalf("%s not flagged:\n%s", tc.wantFlag, out.String())
			}
		})
	}
}

// TestRunParsesGoTestOutput feeds literal `go test -bench -benchmem
// -count 3` output: several pkg blocks, sub-benchmarks carrying the
// -GOMAXPROCS suffix, and custom metrics printed before B/op.
func TestRunParsesGoTestOutput(t *testing.T) {
	const out = `go version go1.24.0 linux/amd64
goos: linux
goarch: amd64
pkg: detective
cpu: Intel(R) Xeon(R) Processor
BenchmarkFastRepairTuple-2                       	  384126	      3211 ns/op	     160 B/op	       3 allocs/op
BenchmarkFastRepairTuple-2                       	  384126	      3100 ns/op	     160 B/op	       3 allocs/op
BenchmarkFastRepairTuple-2                       	  384126	      3400 ns/op	     160 B/op	       4 allocs/op
BenchmarkCleanCSVStreamParallel/workers=8-2      	     360	   3301234 ns/op	  15.43 MB/s	    248000 rows/s	  964872 B/op	    5477 allocs/op
BenchmarkCleanCSVStreamParallel/workers=8-2      	     360	   3001234 ns/op	  16.43 MB/s	    258000 rows/s	  964872 B/op	    5477 allocs/op
BenchmarkCleanCSVStreamParallel/workers=8-2      	     360	   3101234 ns/op	  16.03 MB/s	    253000 rows/s	  964872 B/op	    5477 allocs/op
PASS
goos: linux
goarch: amd64
pkg: detective/internal/kb
cpu: Intel(R) Xeon(R) Processor
BenchmarkKBLoadMmap-2   	    2097	    608559 ns/op	 511.20 MB/s	    3642 B/op	      19 allocs/op
BenchmarkKBLoadMmap-2   	    2097	    618559 ns/op	 501.20 MB/s	    3642 B/op	      19 allocs/op
BenchmarkKBLoadMmap-2   	    2097	    598559 ns/op	 521.20 MB/s	    3642 B/op	      19 allocs/op
PASS
`
	dir := t.TempDir()
	path := writeOutput(t, dir, "out.txt", out)
	m, names, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"FastRepairTuple", "CleanCSVStreamParallel/workers=8", "KBLoadMmap"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %q, want %q", names, want)
	}
	if s := m["KBLoadMmap"]; s.pkg != "detective/internal/kb" || len(s.ns) != 3 {
		t.Fatalf("KBLoadMmap = %+v, want 3 samples from detective/internal/kb", s)
	}
	if _, med, _ := quartiles(m["CleanCSVStreamParallel/workers=8"].ns); med != 3101234 {
		t.Fatalf("workers=8 median ns/op = %v, want 3101234 (not a custom metric)", med)
	}
	if _, med, _ := quartiles(m["FastRepairTuple"].allocs); med != 3 {
		t.Fatalf("FastRepairTuple median allocs/op = %v, want 3", med)
	}

	var rep strings.Builder
	failed, err := run(path, path, 25, &rep)
	if err != nil || failed {
		t.Fatalf("identical outputs: failed=%v err=%v\n%s", failed, err, rep.String())
	}
	if !strings.Contains(rep.String(), "3211 [3156 3306]") {
		t.Fatalf("report lacks FastRepairTuple's median and quartiles:\n%s", rep.String())
	}
}

// TestRunRejectsBrokenOutput: a failed run, or output the gate cannot
// read unambiguously, is an error rather than a verdict.
func TestRunRejectsBrokenOutput(t *testing.T) {
	ok := header + benchLines("FastRepairTuple", []float64{1000}, []float64{3})
	cases := map[string]string{
		"--- FAIL":  ok + "--- FAIL: BenchmarkKBLoadMmap-2\n    bench_test.go:12: boom\nFAIL\n",
		"FAIL pkg":  ok + "FAIL\tdetective/internal/kb\t1.234s\n",
		"two pkgs":  ok + "pkg: detective/internal/kb\n" + benchLines("FastRepairTuple", []float64{1000}, []float64{3}),
		"no allocs": header + "BenchmarkFastRepairTuple-2  \t  100000\t  1000 ns/op\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			good := writeOutput(t, dir, "good.txt", ok+"PASS\n")
			bad := writeOutput(t, dir, "bad.txt", text)
			var out strings.Builder
			if _, err := run(good, bad, 25, &out); err == nil {
				t.Fatalf("head output accepted:\n%s", out.String())
			}
			if _, err := run(bad, good, 25, &out); err == nil {
				t.Fatalf("base output accepted:\n%s", out.String())
			}
		})
	}
}
