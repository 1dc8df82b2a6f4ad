// Package verify implements an integrity self-check over a loaded
// kb.Graph. A snapshot can pass every CRC and still describe a graph
// that poisons repairs: the DKBS format stores triples twice (subject-
// and object-grouped), so a corrupted-but-checksummed file, a buggy
// producer, or a genuinely dirty upstream KB can yield asymmetric
// indexes, taxonomy cycles, or suspect edges that no frame-level check
// catches. Check walks the graph through its public API and returns a
// typed Report; callers run it in strict mode (reject the graph) or
// warn mode (serve it, but log and surface the findings).
//
// Checks, in decreasing severity:
//
//   - structural: out-of-range subject/object/predicate IDs and edges
//     whose predicate is not a registered predicate node (Error)
//   - symmetry: every out edge must appear in the sp, po, and in
//     indexes, and vice versa; triple totals must agree (Error)
//   - taxonomy: cycles in the subclass relation, found with an
//     iterative Tarjan SCC so deep taxonomies cannot overflow the
//     goroutine stack (Error)
//   - degree outliers: nodes whose total degree sits far above the
//     graph-wide mean — hub artifacts that make every value a
//     candidate (Warn)
//   - near-duplicate labels: distinct instance/class nodes whose
//     names normalize to the same key, the classic taxonomy-error
//     signal for entity splits (Warn)
package verify

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"detective/internal/kb"
)

// Severity classifies a finding. Error findings mean the graph is
// structurally unsound and strict mode rejects it; Warn findings mark
// suspect-but-servable content.
type Severity uint8

const (
	Warn Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Finding is one integrity violation.
type Finding struct {
	Severity Severity `json:"severity"`
	// Check names the pass that produced the finding: "structural",
	// "symmetry", "taxonomy-cycle", "degree-outlier",
	// "duplicate-label".
	Check string `json:"check"`
	// Node is the primary node involved, kb.Invalid when the finding
	// is not tied to one node.
	Node kb.ID `json:"node"`
	// Peer is the secondary node of findings that implicate an edge or
	// a pair (symmetry violations, taxonomy cycles, duplicate labels);
	// kb.Invalid otherwise. (Node, Peer) is the suspect edge consumed
	// by SuspectEdges.
	Peer    kb.ID  `json:"peer"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Check, f.Message)
}

// Report is the outcome of one Check run. Findings is capped at
// Options.MaxFindings; Errors and Warnings always count every
// violation found.
type Report struct {
	Findings  []Finding `json:"findings"`
	Errors    int       `json:"errors"`
	Warnings  int       `json:"warnings"`
	Truncated bool      `json:"truncated"`
	Nodes     int       `json:"nodes"`
	Triples   int       `json:"triples"`
}

// OK reports whether the graph passed with no error-severity findings.
func (r *Report) OK() bool { return r.Errors == 0 }

// Summary renders a one-line operator summary.
func (r *Report) Summary() string {
	return fmt.Sprintf("verify: %d nodes, %d triples, %d errors, %d warnings",
		r.Nodes, r.Triples, r.Errors, r.Warnings)
}

// SuspectNodes returns the distinct nodes named by warn-severity
// findings — the hook for down-weighting evidence that touches them.
func (r *Report) SuspectNodes() []kb.ID {
	seen := make(map[kb.ID]bool)
	var out []kb.ID
	for _, f := range r.Findings {
		if f.Severity == Warn && f.Node != kb.Invalid && !seen[f.Node] {
			seen[f.Node] = true
			out = append(out, f.Node)
		}
	}
	return out
}

// contentChecks are the passes whose findings implicate KB *content*
// (as opposed to index structure): their nodes and edges are what the
// ensemble's dirty-KB loop down-weights. Structural and symmetry
// errors mean the graph itself is unsound — strict mode rejects it
// outright, so they carry no per-edge suspicion signal.
var contentChecks = map[string]bool{
	"taxonomy-cycle":  true,
	"degree-outlier":  true,
	"duplicate-label": true,
}

// SuspectEdges returns the distinct (Node, Peer) pairs implicated by
// content-level findings — the per-edge suspicion feed for ensemble
// down-weighting. Pairs are emitted in finding order; findings with
// no valid peer contribute nothing here (SuspectNodes still carries
// them).
func (r *Report) SuspectEdges() [][2]kb.ID {
	seen := make(map[[2]kb.ID]bool)
	var out [][2]kb.ID
	for _, f := range r.Findings {
		if !contentChecks[f.Check] || f.Node == kb.Invalid || f.Peer == kb.Invalid {
			continue
		}
		pair := [2]kb.ID{f.Node, f.Peer}
		if !seen[pair] {
			seen[pair] = true
			out = append(out, pair)
		}
	}
	return out
}

// SuspectNames resolves every node implicated by a content-level
// finding — both endpoints of suspect edges plus peerless content
// findings — to its name in g. This is the value-level form the
// ensemble vote consumes: a KB-backed proposal of one of these names
// is down-weighted.
func (r *Report) SuspectNames(g *kb.Graph) []string {
	seen := make(map[kb.ID]bool)
	var out []string
	add := func(id kb.ID) {
		if id != kb.Invalid && !seen[id] {
			seen[id] = true
			out = append(out, g.Name(id))
		}
	}
	for _, f := range r.Findings {
		if !contentChecks[f.Check] {
			continue
		}
		add(f.Node)
		add(f.Peer)
	}
	return out
}

func (r *Report) add(f Finding, max int) {
	if f.Severity == Error {
		r.Errors++
	} else {
		r.Warnings++
	}
	if len(r.Findings) < max {
		r.Findings = append(r.Findings, f)
	} else {
		r.Truncated = true
	}
}

// Mode selects what a caller does with a Report.
type Mode uint8

const (
	// ModeOff skips the check entirely.
	ModeOff Mode = iota
	// ModeWarn runs the check and serves the graph regardless,
	// surfacing findings through logs and metrics.
	ModeWarn
	// ModeStrict rejects any graph whose report contains
	// error-severity findings.
	ModeStrict
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeStrict:
		return "strict"
	default:
		return "warn"
	}
}

// ParseMode parses "off", "warn", or "strict".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "warn", "":
		return ModeWarn, nil
	case "strict":
		return ModeStrict, nil
	}
	return ModeWarn, fmt.Errorf("bad verify mode %q (want off, warn, or strict)", s)
}

// Reject reports whether a graph with report r should be refused
// under mode m.
func (m Mode) Reject(r *Report) bool { return m == ModeStrict && r != nil && !r.OK() }

// Options tunes Check. The zero value gets sensible defaults.
type Options struct {
	// MaxFindings caps the findings retained in the report (counts are
	// never capped). Default 64.
	MaxFindings int
	// DegreeSigma is how many standard deviations above the mean
	// degree a node must sit to be flagged as an outlier. Default 8.
	DegreeSigma float64
	// MinOutlierDegree is the absolute degree floor for outlier
	// findings, so tiny graphs don't flag their busiest node.
	// Default 256.
	MinOutlierDegree int
}

func (o Options) withDefaults() Options {
	if o.MaxFindings <= 0 {
		o.MaxFindings = 64
	}
	if o.DegreeSigma <= 0 {
		o.DegreeSigma = 8
	}
	if o.MinOutlierDegree <= 0 {
		o.MinOutlierDegree = 256
	}
	return o
}

// Check runs the full integrity pass over g and returns its report.
// g must be fully loaded; Check freezes it (idempotent) so closures
// are available. The pass only reads through the public Graph API and
// is safe to run on a graph that is concurrently serving reads.
func Check(g *kb.Graph, opts Options) *Report {
	opts = opts.withDefaults()
	g.Freeze()
	r := &Report{Nodes: g.NumNodes(), Triples: g.NumTriples()}
	checkStructure(g, r, opts)
	checkTaxonomy(g, r, opts)
	checkDegrees(g, r, opts)
	checkLabels(g, r, opts)
	return r
}

// checkStructure validates ID ranges, predicate registration, index
// symmetry (out ⊆ sp ∩ po ∩ in and in ⊆ out), and triple totals.
func checkStructure(g *kb.Graph, r *Report, opts Options) {
	n := kb.ID(g.NumNodes())
	preds := make(map[kb.ID]bool, g.NumPredicates())
	for _, p := range g.Predicates() {
		preds[p] = true
	}

	totalOut, totalIn := 0, 0
	for s := kb.ID(0); s < n; s++ {
		for _, e := range g.Out(s) {
			totalOut++
			if e.To < 0 || e.To >= n || e.Pred < 0 || e.Pred >= n {
				r.add(Finding{Error, "structural", s, kb.Invalid,
					fmt.Sprintf("out edge %d -[%d]-> %d references an ID outside [0,%d)", s, e.Pred, e.To, n)},
					opts.MaxFindings)
				continue
			}
			if !preds[e.Pred] {
				r.add(Finding{Error, "structural", e.Pred, s,
					fmt.Sprintf("edge %s -[%s]-> %s uses unregistered predicate node %d",
						g.Name(s), g.Name(e.Pred), g.Name(e.To), e.Pred)},
					opts.MaxFindings)
			}
			if !containsID(g.Objects(s, e.Pred), e.To) {
				r.add(Finding{Error, "symmetry", s, e.To,
					fmt.Sprintf("edge %s -[%s]-> %s present in out but missing from sp index",
						g.Name(s), g.Name(e.Pred), g.Name(e.To))},
					opts.MaxFindings)
			}
			if !containsID(g.Subjects(e.Pred, e.To), s) {
				r.add(Finding{Error, "symmetry", s, e.To,
					fmt.Sprintf("edge %s -[%s]-> %s present in out but missing from po index",
						g.Name(s), g.Name(e.Pred), g.Name(e.To))},
					opts.MaxFindings)
			}
			if !containsEdge(g.In(e.To), kb.Edge{Pred: e.Pred, To: s}) {
				r.add(Finding{Error, "symmetry", s, e.To,
					fmt.Sprintf("edge %s -[%s]-> %s present in out but missing from in index",
						g.Name(s), g.Name(e.Pred), g.Name(e.To))},
					opts.MaxFindings)
			}
		}
		// The reverse direction: every in edge must have a matching
		// out edge. (In edges point To the subject.)
		for _, e := range g.In(s) {
			totalIn++
			if e.To < 0 || e.To >= n || e.Pred < 0 || e.Pred >= n {
				r.add(Finding{Error, "structural", s, kb.Invalid,
					fmt.Sprintf("in edge of %d references an ID outside [0,%d)", s, n)},
					opts.MaxFindings)
				continue
			}
			if !containsEdge(g.Out(e.To), kb.Edge{Pred: e.Pred, To: s}) {
				r.add(Finding{Error, "symmetry", s, e.To,
					fmt.Sprintf("edge %s -[%s]-> %s present in in index but missing from out",
						g.Name(e.To), g.Name(e.Pred), g.Name(s))},
					opts.MaxFindings)
			}
		}
	}
	if totalOut != g.NumTriples() {
		r.add(Finding{Error, "structural", kb.Invalid, kb.Invalid,
			fmt.Sprintf("out index holds %d edges but the graph reports %d triples", totalOut, g.NumTriples())},
			opts.MaxFindings)
	}
	if totalIn != totalOut {
		r.add(Finding{Error, "structural", kb.Invalid, kb.Invalid,
			fmt.Sprintf("in index holds %d edges but out holds %d", totalIn, totalOut)},
			opts.MaxFindings)
	}
}

// checkTaxonomy finds cycles in the subclass relation with an
// iterative Tarjan SCC (explicit stack — taxonomy depth must not be
// bounded by goroutine stack size). Any SCC with more than one member,
// or a self-loop, is a cycle: the type closures terminate on one but
// make every class in it an ancestor of every other, and
// kb.TaxonomyDepth assumes a DAG.
func checkTaxonomy(g *kb.Graph, r *Report, opts Options) {
	n := kb.ID(g.NumNodes())
	var classes []kb.ID
	for id := kb.ID(0); id < n; id++ {
		if g.KindOf(id) == kb.KindClass {
			classes = append(classes, id)
		}
	}
	if len(classes) == 0 {
		return
	}

	const unvisited = -1
	index := make(map[kb.ID]int, len(classes))
	low := make(map[kb.ID]int, len(classes))
	onStack := make(map[kb.ID]bool, len(classes))
	var stack []kb.ID
	next := 0

	type frame struct {
		v  kb.ID
		ei int // next successor index to explore
	}

	for _, root := range classes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succs := g.Superclasses(f.v)
			if f.ei < len(succs) {
				w := succs[f.ei]
				f.ei++
				if w == f.v {
					// Self-loop: a class that is its own superclass.
					r.add(Finding{Error, "taxonomy-cycle", f.v, f.v,
						fmt.Sprintf("class %q is its own superclass", g.Name(f.v))},
						opts.MaxFindings)
					continue
				}
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// All successors explored: pop the frame, fold lowlink up.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				// v is an SCC root: pop the component.
				var comp []kb.ID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					names := make([]string, 0, min(len(comp), 5))
					for _, c := range comp[:min(len(comp), 5)] {
						names = append(names, g.Name(c))
					}
					peer := comp[0]
					if peer == v && len(comp) > 1 {
						peer = comp[1]
					}
					r.add(Finding{Error, "taxonomy-cycle", v, peer,
						fmt.Sprintf("subclass cycle through %d classes: %s", len(comp), strings.Join(names, " -> "))},
						opts.MaxFindings)
				}
			}
		}
	}
}

// checkDegrees flags hub nodes whose total degree is far above the
// graph mean — artifacts that turn every lookup into a scan and every
// value into a plausible candidate.
func checkDegrees(g *kb.Graph, r *Report, opts Options) {
	n := kb.ID(g.NumNodes())
	var sum, sumSq float64
	cnt := 0
	deg := func(id kb.ID) int { return len(g.Out(id)) + len(g.In(id)) }
	for id := kb.ID(0); id < n; id++ {
		if d := deg(id); d > 0 {
			sum += float64(d)
			sumSq += float64(d) * float64(d)
			cnt++
		}
	}
	if cnt < 2 {
		return
	}
	mean := sum / float64(cnt)
	variance := sumSq/float64(cnt) - mean*mean
	if variance < 0 {
		variance = 0
	}
	threshold := mean + opts.DegreeSigma*math.Sqrt(variance)
	if threshold < float64(opts.MinOutlierDegree) {
		threshold = float64(opts.MinOutlierDegree)
	}

	type hub struct {
		id kb.ID
		d  int
	}
	var hubs []hub
	for id := kb.ID(0); id < n; id++ {
		if d := deg(id); float64(d) > threshold {
			hubs = append(hubs, hub{id, d})
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].d > hubs[j].d })
	for _, h := range hubs {
		r.add(Finding{Warn, "degree-outlier", h.id, kb.Invalid,
			fmt.Sprintf("node %q has degree %d (mean %.1f, threshold %.1f)", g.Name(h.id), h.d, mean, threshold)},
			opts.MaxFindings)
	}
}

// checkLabels groups instance and class names by a normalized key and
// flags groups holding more than one distinct node — likely entity
// splits ("NewYork" vs "new york") that fracture evidence.
func checkLabels(g *kb.Graph, r *Report, opts Options) {
	n := kb.ID(g.NumNodes())
	groups := make(map[string][]kb.ID)
	for id := kb.ID(0); id < n; id++ {
		switch g.KindOf(id) {
		case kb.KindInstance, kb.KindClass:
		default:
			continue
		}
		key := normalizeLabel(g.Name(id))
		if key == "" {
			continue
		}
		groups[key] = append(groups[key], id)
	}
	keys := make([]string, 0, len(groups))
	for k, ids := range groups {
		if len(ids) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ids := groups[k]
		names := make([]string, 0, min(len(ids), 5))
		for _, id := range ids[:min(len(ids), 5)] {
			names = append(names, fmt.Sprintf("%q", g.Name(id)))
		}
		r.add(Finding{Warn, "duplicate-label", ids[0], ids[1],
			fmt.Sprintf("%d nodes share normalized label %q: %s", len(ids), k, strings.Join(names, ", "))},
			opts.MaxFindings)
	}
}

// normalizeLabel lowercases, trims, and collapses runs of whitespace,
// '_', and '-' to a single space.
func normalizeLabel(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return ""
	}
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '_' || r == '-' {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteRune(r)
	}
	return b.String()
}

func containsID(ids []kb.ID, want kb.ID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func containsEdge(edges []kb.Edge, want kb.Edge) bool {
	for _, e := range edges {
		if e == want {
			return true
		}
	}
	return false
}
