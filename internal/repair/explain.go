package repair

import (
	"fmt"
	"sort"
	"strings"

	"detective/internal/relation"
	"detective/internal/rules"
)

// Step records one rule application during a repair — the white-box
// provenance that rule-based cleaning offers over IC-based black
// boxes (the argument of the paper's introduction: "rule-based methods
// are white-boxes ... more interpretable about what happened").
type Step struct {
	// Rule is the name of the applied detective rule.
	Rule string
	// Kind is Positive (cells proven correct) or Repair.
	Kind rules.OutcomeKind
	// RepairCol/Old/New describe the rewrite (Repair steps only; Old
	// and New are empty for pure marking steps).
	RepairCol string
	Old, New  string
	// Alternatives lists the other repair versions the KB offered.
	Alternatives []string
	// MarkCols are the columns this step proved correct.
	MarkCols []string
	// Witness maps the rule's node names to the KB instances of the
	// instance-level matching graph behind the decision.
	Witness map[string]string
}

// String renders the step for humans.
func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s: ", s.Rule)
	if s.Kind == rules.Repair && s.RepairCol != "" {
		fmt.Fprintf(&b, "repaired %s %q -> %q", s.RepairCol, s.Old, s.New)
		if len(s.Alternatives) > 1 {
			fmt.Fprintf(&b, " (alternatives: %s)", strings.Join(s.Alternatives[1:], ", "))
		}
		b.WriteString("; ")
	}
	fmt.Fprintf(&b, "marked %s correct", strings.Join(s.MarkCols, ", "))
	if len(s.Witness) > 0 {
		keys := make([]string, 0, len(s.Witness))
		for k := range s.Witness {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%s", k, s.Witness[k])
		}
		fmt.Fprintf(&b, " [witness: %s]", strings.Join(parts, ", "))
	}
	return b.String()
}

// FastRepairExplain is FastRepair plus the ordered list of rule
// applications that produced the result. A repair that panics or
// exhausts the step budget yields the original tuple and no steps.
func (e *Engine) FastRepairExplain(t *relation.Tuple) (*relation.Tuple, []Step) {
	out, steps, _ := e.FastRepairExplainSafe(t)
	return out, steps
}

// FastRepairExplainSafe is FastRepairExplain that also reports the
// per-tuple panic quarantine: a repair that panics yields the original
// tuple, no steps, and quarantined=true, tallied in Stats.Quarantined.
func (e *Engine) FastRepairExplainSafe(t *relation.Tuple) (out *relation.Tuple, steps []Step, quarantined bool) {
	out = t.Clone()
	st := e.getState()
	steps = []Step{}
	st.steps = &steps
	if oc := e.runSafe(st, out, t.Values, t.Marked); oc != tupleOK {
		// The partial step trace would describe a discarded repair.
		return out, nil, oc == tupleQuarantined
	}
	return out, steps, false
}

// recordStep captures the application of rule idx with outcome out,
// where old is the pre-application value of the repaired column.
func (e *Engine) recordStep(st *fastState, idx int, out rules.Outcome, old string) {
	if st.steps == nil {
		return
	}
	step := Step{
		Rule:     e.matchers[idx].Rule.Name,
		Kind:     out.Kind,
		MarkCols: out.MarkCols,
		Witness:  out.Witness,
	}
	if out.Kind == rules.Repair {
		step.RepairCol = out.RepairCol
		step.Old = old
		step.New = out.Repairs[0]
		step.Alternatives = out.Repairs
	}
	*st.steps = append(*st.steps, step)
}
