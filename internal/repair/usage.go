package repair

import (
	"fmt"
	"sort"
	"strings"

	"detective/internal/relation"
	"detective/internal/rules"
)

// RuleUsage counts what one rule did across a table — the audit view
// an operator wants after a cleaning run ("which rules are actually
// earning their keep, and which never fire?").
type RuleUsage struct {
	Rule string
	// Positives counts proof-positive applications (marks only).
	Positives int
	// Repairs counts applications that rewrote a cell.
	Repairs int
	// MultiVersion counts repairs that had more than one candidate.
	MultiVersion int
}

// UsageReport aggregates per-rule usage over a table.
type UsageReport struct {
	Tuples  int
	PerRule []RuleUsage
}

// String renders the report, busiest rules first.
func (r UsageReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cleaned %d tuples\n", r.Tuples)
	for _, u := range r.PerRule {
		fmt.Fprintf(&b, "  %-24s positives=%-6d repairs=%-6d multi-version=%d\n",
			u.Rule, u.Positives, u.Repairs, u.MultiVersion)
	}
	return b.String()
}

// RepairTableWithUsage is RepairTable (fast engine) plus the per-rule
// usage report. Rules appear in the report even when they never fired.
func (e *Engine) RepairTableWithUsage(tb *relation.Table) (*relation.Table, UsageReport) {
	usage := make(map[string]*RuleUsage, len(e.matchers))
	order := make([]string, 0, len(e.matchers))
	for _, m := range e.matchers {
		usage[m.Rule.Name] = &RuleUsage{Rule: m.Rule.Name}
		order = append(order, m.Rule.Name)
	}
	out := &relation.Table{Schema: tb.Schema, Tuples: make([]*relation.Tuple, tb.Len())}
	for i, t := range tb.Tuples {
		repaired, steps := e.FastRepairExplain(t)
		out.Tuples[i] = repaired
		for _, st := range steps {
			u := usage[st.Rule]
			switch st.Kind {
			case rules.Repair:
				u.Repairs++
				if len(st.Alternatives) > 1 {
					u.MultiVersion++
				}
			case rules.Positive:
				u.Positives++
			}
		}
	}
	report := UsageReport{Tuples: tb.Len()}
	for _, name := range order {
		report.PerRule = append(report.PerRule, *usage[name])
	}
	sort.SliceStable(report.PerRule, func(i, j int) bool {
		a, b := report.PerRule[i], report.PerRule[j]
		if a.Repairs+a.Positives != b.Repairs+b.Positives {
			return a.Repairs+a.Positives > b.Repairs+b.Positives
		}
		return a.Rule < b.Rule
	})
	return out, report
}
