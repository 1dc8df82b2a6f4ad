// Command experiments regenerates every table and figure of the
// paper's evaluation section (§V):
//
//	experiments -exp table2     # Table II  — aligned classes/relations
//	experiments -exp table3     # Table III — DRs vs KATARA accuracy
//	experiments -exp fig6       # Figure 6  — quality vs error rate
//	experiments -exp fig7       # Figure 7  — quality vs typo rate
//	experiments -exp fig8a..d   # Figure 8  — efficiency/scalability
//	experiments -exp all
//
// Sizes default to a reduced scale that finishes quickly; pass
// -paper-scale for the paper's sizes (UIS 100K — the basic repair
// algorithm is deliberately slow there).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"detective/internal/dataset"
	"detective/internal/eval"
	"detective/internal/repair"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, fig6, fig7, fig8a, fig8b, fig8c, fig8d, ext, ensemble, all")
	paperScale := flag.Bool("paper-scale", false, "use the paper's dataset sizes (slow)")
	seed := flag.Int64("seed", 1, "generator seed")
	uis := flag.Int("uis-tuples", 0, "override UIS tuple count for quality experiments")
	nobel := flag.Int("nobel-tuples", 0, "override Nobel tuple count")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	repeats := flag.Int("repeats", 0, "average each timing over this many runs (paper: 6)")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		fail(err)
		defer f.Close()
		fail(write(f))
	}

	cfg := eval.DefaultConfig()
	if *paperScale {
		cfg = eval.PaperScaleConfig()
	}
	cfg.Seed = *seed
	if *uis > 0 {
		cfg.UISTuples = *uis
	}
	if *nobel > 0 {
		cfg.NobelTuples = *nobel
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false

	if run("table1") {
		any = true
		printTableI()
		fmt.Println()
	}
	if run("table2") {
		any = true
		rows := eval.TableII(cfg)
		eval.PrintTableII(os.Stdout, rows)
		writeCSV("table2.csv", func(w *os.File) error { return eval.AlignCSV(w, rows) })
		fmt.Println()
	}
	if run("table3") {
		any = true
		rows, err := eval.TableIII(cfg)
		fail(err)
		eval.PrintTableIII(os.Stdout, rows)
		writeCSV("table3.csv", func(w *os.File) error { return eval.QualityCSV(w, rows) })
		fmt.Println()
	}
	if run("fig6") {
		any = true
		curves, err := eval.Figure6(cfg)
		fail(err)
		eval.PrintCurves(os.Stdout, "FIGURE 6. EFFECTIVENESS (VARYING ERROR RATE)", "err%", curves)
		writeCSV("fig6.csv", func(w *os.File) error { return eval.CurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig7") {
		any = true
		curves, err := eval.Figure7(cfg)
		fail(err)
		eval.PrintCurves(os.Stdout, "FIGURE 7. EFFECTIVENESS (VARYING TYPO RATE)", "typo%", curves)
		writeCSV("fig7.csv", func(w *os.File) error { return eval.CurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8a") {
		any = true
		curves, err := eval.Figure8a(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(a). TIME (WEBTABLES, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8a.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8b") {
		any = true
		curves, err := eval.Figure8b(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(b). TIME (NOBEL, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8b.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8c") {
		any = true
		curves, err := eval.Figure8c(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(c). TIME (UIS, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8c.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8d") {
		any = true
		curves, err := eval.Figure8d(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(d). TIME (UIS, VARYING #-TUPLE)", "#-tuple", curves)
		writeCSV("fig8d.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("ensemble") {
		any = true
		rows, err := eval.EnsembleTable(cfg)
		fail(err)
		eval.PrintEnsemble(os.Stdout, rows)
		writeCSV("ensemble.csv", func(w *os.File) error { return eval.QualityCSV(w, rows) })
		fmt.Println()
	}
	if run("ext") {
		any = true
		rows, err := eval.ExtensionPathRule(cfg)
		fail(err)
		eval.PrintExtension(os.Stdout, rows)
		writeCSV("extension.csv", func(w *os.File) error { return eval.ExtensionCSV(w, rows) })
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want one of table1, table2, table3, fig6, fig7, fig8a-d, ext, ensemble, all\n", *exp)
		os.Exit(2)
	}
}

// printTableI replays the paper's running example (Table I) through
// the engine: the four laureate tuples with their errors, cleaned and
// marked.
func printTableI() {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	fail(err)
	fmt.Println("TABLE I. DATABASE D: NOBEL LAUREATES IN CHEMISTRY (dirty -> cleaned)")
	for i, tu := range ex.Dirty.Tuples {
		fmt.Printf("r%d dirty: %v\n", i+1, tu)
		fmt.Printf("r%d clean: %v\n", i+1, e.FastRepair(tu))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
