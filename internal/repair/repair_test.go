package repair_test

import (
	"bytes"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/similarity"
)

func newEngine(t *testing.T) (*dataset.PaperExample, *repair.Engine) {
	t.Helper()
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return ex, e
}

func wantTuple(t *testing.T, got *relation.Tuple, values []string, marked []bool) {
	t.Helper()
	for i := range values {
		if got.Values[i] != values[i] {
			t.Errorf("value[%d] = %q, want %q", i, got.Values[i], values[i])
		}
		if got.Marked[i] != marked[i] {
			t.Errorf("marked[%d] = %v, want %v (%s)", i, got.Marked[i], marked[i], got.Values[i])
		}
	}
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestRuleGraphPaperExample(t *testing.T) {
	ex := dataset.NewPaperExample()
	g := repair.BuildRuleGraph(ex.Rules)
	// Example 8: phi1 -> phi2 -> phi3 and phi4 independent.
	if g.HasCycle() {
		t.Fatal("paper rules must be acyclic")
	}
	pos := make(map[int]int) // rule index -> position in order
	for p, idx := range g.Order() {
		pos[idx] = p
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("order %v violates phi1 < phi2 < phi3", g.Order())
	}
	if len(g.Order()) != 4 {
		t.Errorf("order %v should contain all 4 rules", g.Order())
	}
}

func TestRuleGraphCycle(t *testing.T) {
	// Two rules that feed each other: A repairs col X used by B's
	// evidence, and B repairs col Y used by A's evidence.
	schema := relation.NewSchema("R", "X", "Y")
	mk := func(name, evCol, posCol string) *rules.DR {
		neg := rules.Node{Name: "n", Col: posCol, Type: "t" + posCol, Sim: similarity.Eq}
		return &rules.DR{
			Name:     name,
			Evidence: []rules.Node{{Name: "e", Col: evCol, Type: "t" + evCol, Sim: similarity.Eq}},
			Pos:      rules.Node{Name: "p", Col: posCol, Type: "t" + posCol, Sim: similarity.Eq},
			Neg:      &neg,
			Edges: []rules.Edge{
				{From: "e", Rel: "r", To: "p"},
				{From: "e", Rel: "s", To: "n"},
			},
		}
	}
	g := repair.BuildRuleGraph([]*rules.DR{mk("a", "Y", "X"), mk("b", "X", "Y")})
	if !g.HasCycle() {
		t.Fatal("expected a cycle")
	}
	if len(g.Groups) != 1 || len(g.Groups[0]) != 2 {
		t.Fatalf("Groups = %v, want one group of two", g.Groups)
	}
	_ = schema
}

func TestBasicRepairExample7(t *testing.T) {
	// r1 reaches the fixpoint of Example 7: City repaired to Haifa,
	// Prize repaired to the Nobel Prize, every cell marked.
	ex, e := newEngine(t)
	got := e.BasicRepair(ex.Dirty.Tuples[0])
	wantTuple(t, got,
		[]string{"Avram Hershko", "1937-12-31", "Israel", "Nobel Prize in Chemistry", "Israel Institute of Technology", "Haifa"},
		allTrue(6))
}

func TestFastRepairExample9(t *testing.T) {
	// r3 reaches the fixpoint of Example 9: Prize and Country repaired,
	// every cell marked.
	ex, e := newEngine(t)
	got := e.FastRepair(ex.Dirty.Tuples[2])
	wantTuple(t, got,
		[]string{"Roald Hoffmann", "1937-07-18", "United States", "Nobel Prize in Chemistry", "Cornell University", "Ithaca"},
		allTrue(6))
}

func TestBasicAndFastAgree(t *testing.T) {
	ex, e := newEngine(t)
	for i, tu := range ex.Dirty.Tuples {
		b := e.BasicRepair(tu)
		f := e.FastRepair(tu)
		if !b.EqualMarked(f) {
			t.Errorf("tuple %d: basic %v != fast %v", i, b, f)
		}
	}
	for i, tu := range ex.Truth.Tuples {
		b := e.BasicRepair(tu)
		f := e.FastRepair(tu)
		if !b.EqualMarked(f) {
			t.Errorf("truth tuple %d: basic %v != fast %v", i, b, f)
		}
	}
}

func TestRepairDoesNotMutateInput(t *testing.T) {
	ex, e := newEngine(t)
	orig := ex.Dirty.Tuples[0].Clone()
	e.BasicRepair(ex.Dirty.Tuples[0])
	e.FastRepair(ex.Dirty.Tuples[0])
	if !ex.Dirty.Tuples[0].EqualMarked(orig) {
		t.Fatal("repair mutated its input tuple")
	}
}

func TestTypoNormalizationEndToEnd(t *testing.T) {
	// r2's "Paster Institute" typo is normalized to "Pasteur Institute".
	ex, e := newEngine(t)
	got := e.FastRepair(ex.Dirty.Tuples[1])
	wantTuple(t, got,
		[]string{"Marie Curie", "1867-11-07", "France", "Nobel Prize in Chemistry", "Pasteur Institute", "Paris"},
		allTrue(6))
}

func TestRepairCleanTupleOnlyMarks(t *testing.T) {
	ex, e := newEngine(t)
	for i, tu := range ex.Truth.Tuples {
		got := e.FastRepair(tu)
		if !got.Equal(tu) {
			t.Errorf("truth tuple %d changed: %v", i, got)
		}
		if got.NumMarked() != 6 {
			t.Errorf("truth tuple %d: %d marks, want 6", i, got.NumMarked())
		}
	}
}

func TestMarkedCellsAreImmutable(t *testing.T) {
	// Pre-mark the wrong City value: no rule may change it afterwards.
	ex, e := newEngine(t)
	tu := ex.Dirty.Tuples[0].Clone()
	tu.Marked[ex.Schema.MustCol("City")] = true
	got := e.FastRepair(tu)
	if got.Values[ex.Schema.MustCol("City")] != "Karcag" {
		t.Fatalf("marked City was rewritten to %q", got.Values[ex.Schema.MustCol("City")])
	}
	gotB := e.BasicRepair(tu)
	if gotB.Values[ex.Schema.MustCol("City")] != "Karcag" {
		t.Fatalf("basic: marked City was rewritten to %q", gotB.Values[ex.Schema.MustCol("City")])
	}
}

func TestRepairVersionsExample10(t *testing.T) {
	// r4 yields exactly the two fixpoints of Example 10.
	ex, e := newEngine(t)
	versions := e.RepairVersions(ex.Dirty.Tuples[3])
	if len(versions) != 2 {
		t.Fatalf("got %d versions, want 2: %v", len(versions), versions)
	}
	byInst := make(map[string]*relation.Tuple)
	for _, v := range versions {
		byInst[v.Values[ex.Schema.MustCol("Institution")]] = v
	}
	man, ok := byInst["University of Manchester"]
	if !ok {
		t.Fatal("missing Manchester version")
	}
	wantTuple(t, man,
		[]string{"Melvin Calvin", "1911-04-08", "United States", "Nobel Prize in Chemistry", "University of Manchester", "Manchester"},
		allTrue(6))
	berk, ok := byInst["UC Berkeley"]
	if !ok {
		t.Fatal("missing Berkeley version")
	}
	wantTuple(t, berk,
		[]string{"Melvin Calvin", "1911-04-08", "United States", "Nobel Prize in Chemistry", "UC Berkeley", "Berkeley"},
		allTrue(6))
}

func TestRepairVersionsSingleFixpoint(t *testing.T) {
	ex, e := newEngine(t)
	versions := e.RepairVersions(ex.Dirty.Tuples[0])
	if len(versions) != 1 {
		t.Fatalf("r1: got %d versions, want 1", len(versions))
	}
	if !versions[0].EqualMarked(e.BasicRepair(ex.Dirty.Tuples[0])) {
		t.Error("single version must equal the basic repair result")
	}
}

func TestRepairTable(t *testing.T) {
	ex, e := newEngine(t)
	for _, fast := range []bool{false, true} {
		got := e.RepairTable(ex.Dirty, fast)
		if got.Len() != ex.Dirty.Len() {
			t.Fatalf("fast=%v: %d rows", fast, got.Len())
		}
		// All errors in Table I except r4's multi-version Institution
		// choice are fixed deterministically; r4 resolves to the most
		// similar candidate (Manchester), so compare the three
		// deterministic rows against ground truth.
		for i := 0; i < 3; i++ {
			if !got.Tuples[i].Equal(ex.Truth.Tuples[i]) {
				t.Errorf("fast=%v row %d = %v, want %v", fast, i, got.Tuples[i], ex.Truth.Tuples[i])
			}
		}
	}
}

func TestNewEngineRejectsEmptyAndInvalid(t *testing.T) {
	ex := dataset.NewPaperExample()
	if _, err := repair.NewEngine(nil, ex.KB, ex.Schema); err == nil {
		t.Error("empty rule set: want error")
	}
	bad := &rules.DR{Name: "bad", Pos: rules.Node{Name: "p", Col: "Nope", Type: "t", Sim: similarity.Eq}}
	if _, err := repair.NewEngine([]*rules.DR{bad}, ex.KB, ex.Schema); err == nil {
		t.Error("invalid rule: want error")
	}
}

func TestFixpointNoRuleAppliesTwice(t *testing.T) {
	// Termination sanity: repairing a tuple twice is a no-op the
	// second time (the first result is a fixpoint).
	ex, e := newEngine(t)
	once := e.FastRepair(ex.Dirty.Tuples[0])
	twice := e.FastRepair(once)
	if !once.EqualMarked(twice) {
		t.Fatalf("fixpoint not stable: %v then %v", once, twice)
	}
}

func TestRepairTableParallelMatchesSerial(t *testing.T) {
	b := dataset.NewNobel(21, 200)
	inj := b.Inject(dataset.Noise{Rate: 0.12, TypoFrac: 0.5, Seed: 8})
	e, err := repair.NewEngine(b.Rules, b.Yago, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	serial := e.RepairTable(inj.Dirty, true)
	for _, workers := range []int{0, 1, 4} {
		par := e.RepairTableParallel(inj.Dirty, workers)
		for i := range serial.Tuples {
			if !serial.Tuples[i].EqualMarked(par.Tuples[i]) {
				t.Fatalf("workers=%d tuple %d: %v, want %v", workers, i, par.Tuples[i], serial.Tuples[i])
			}
		}
	}
}

func TestFastRepairExplain(t *testing.T) {
	ex, e := newEngine(t)
	got, steps := e.FastRepairExplain(ex.Dirty.Tuples[0])
	if !got.EqualMarked(e.FastRepair(ex.Dirty.Tuples[0])) {
		t.Fatal("explained repair differs from FastRepair")
	}
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want 4 (all rules apply to r1): %v", len(steps), steps)
	}
	var cityStep *repair.Step
	for i := range steps {
		if steps[i].RepairCol == "City" {
			cityStep = &steps[i]
		}
		if steps[i].String() == "" {
			t.Error("empty step rendering")
		}
	}
	if cityStep == nil {
		t.Fatal("no step repaired City")
	}
	if cityStep.Old != "Karcag" || cityStep.New != "Haifa" {
		t.Errorf("City step %q -> %q", cityStep.Old, cityStep.New)
	}
	// The witness exposes the instance-level matching graph: the
	// negative node must be bound to Karcag (the birth city).
	if cityStep.Witness["n2"] != "Karcag" {
		t.Errorf("City witness = %v, want n2=Karcag", cityStep.Witness)
	}
	if cityStep.Witness["w1"] != "Avram Hershko" {
		t.Errorf("City witness = %v, want w1=Avram Hershko", cityStep.Witness)
	}
}

func TestExplainCleanTuple(t *testing.T) {
	ex, e := newEngine(t)
	_, steps := e.FastRepairExplain(ex.Truth.Tuples[0])
	if len(steps) == 0 {
		t.Fatal("clean tuple should still produce positive steps")
	}
	for _, s := range steps {
		if s.Kind != rules.Positive {
			t.Errorf("clean tuple produced non-positive step: %v", s)
		}
	}
}

func TestCleanCSVStream(t *testing.T) {
	ex, e := newEngine(t)
	var in bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := e.CleanCSVStream(&in, &out, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("rows = %d", n)
	}
	got := out.String()
	if !strings.Contains(got, "Haifa+") || !strings.Contains(got, "Pasteur Institute+") {
		t.Fatalf("stream output missing repairs:\n%s", got)
	}

	// Schema mismatches are rejected.
	if _, err := e.CleanCSVStream(strings.NewReader("A,B\n1,2\n"), &out, false); err == nil {
		t.Fatal("want error for wrong header arity")
	}
	if _, err := e.CleanCSVStream(strings.NewReader("X,DOB,Country,Prize,Institution,City\n"), &out, false); err == nil {
		t.Fatal("want error for wrong header names")
	}
	if _, err := e.CleanCSVStream(strings.NewReader(""), &out, false); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := e.CleanCSVStream(strings.NewReader("Name,DOB,Country,Prize,Institution,City\na,b\n"), &out, false); err == nil {
		t.Fatal("want error for short row")
	}
}

// TestFastRepairColdAllocs guards the cold repair kernel's allocation
// count independently of the host: with the memo off and the candidate
// cache warm, fast repair of the Nobel-500 sample stays within 16
// allocations per tuple (the result clone, repair candidate lists and
// the occasional latency sample; match-plan evaluation itself runs in
// pooled scratch).
func TestFastRepairColdAllocs(t *testing.T) {
	bundle := dataset.NewNobel(1, 500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	pass := func() {
		for _, tu := range inj.Dirty.Tuples {
			e.FastRepair(tu)
		}
	}
	pass() // fill the candidate cache
	perTuple := testing.AllocsPerRun(3, pass) / float64(inj.Dirty.Len())
	if perTuple > 16 {
		t.Errorf("FastRepair allocates %.1f times per tuple, want <= 16", perTuple)
	}
	t.Logf("%.2f allocs per tuple", perTuple)
}

// TestMemoHitAllocs pins the allocation cost of a warm memo hit, the
// path a hot serving workload takes for every row: RepairRow replays
// into the caller's tuple without allocating, and FastRepair
// allocates only its result tuple (the struct and its two slices).
func TestMemoHitAllocs(t *testing.T) {
	bundle := dataset.NewNobel(1, 200)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngine(bundle.Rules, bundle.Yago, bundle.Schema)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	tuples := inj.Dirty.Tuples
	arity := bundle.Schema.Arity()
	dst := &relation.Tuple{Values: make([]string, arity), Marked: make([]bool, arity)}
	for _, tu := range tuples {
		e.RepairRow(dst, tu.Values) // populate the memo
	}
	i, misses := 0, 0
	row := func() {
		if _, hit := e.RepairRow(dst, tuples[i%len(tuples)].Values); !hit {
			misses++
		}
		i++
	}
	if got := testing.AllocsPerRun(200, row); got != 0 {
		t.Errorf("RepairRow memo hit allocates %.1f times, want 0", got)
	}
	// FastRepair of an unmarked table tuple shares the memo entry
	// RepairRow inserted for the same values.
	before := e.MemoStats().Tuple.Misses
	fast := func() {
		e.FastRepair(tuples[i%len(tuples)])
		i++
	}
	if got := testing.AllocsPerRun(200, fast); got > 3 {
		t.Errorf("FastRepair memo hit allocates %.1f times, want <= 3", got)
	}
	if misses > 0 || e.MemoStats().Tuple.Misses != before {
		t.Fatalf("warm rows missed the memo (%d RepairRow misses)", misses)
	}
}
