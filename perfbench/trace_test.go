package main

import "testing"

func TestSelfTimeNestedSpans(t *testing.T) {
	// root [0,100] has children [10,30] and [20,50] (overlapping: union
	// 40) and [60,70]; the first child has a grandchild [12,18].
	spans := []span{
		{Name: "repair.stream", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "repair.row", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "repair.row", ID: 2, Parent: 0, Start: 20, End: 50},
		{Name: "repair.row", ID: 3, Parent: 0, Start: 60, End: 70},
		{Name: "rules.evaluate", ID: 4, Parent: 1, Start: 12, End: 18},
	}
	want := []int64{100 - 50, 20 - 6, 30, 10, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d) = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeSiblingPassAfterParent(t *testing.T) {
	// A sibling estimate runs after the row it explains; its own
	// interval is subtracted from the row's duration.
	spans := []span{
		{Name: "repair.row", ID: 0, Parent: -1, Start: 0, End: 30},
		{Name: "rules.evaluate", ID: 1, Parent: 0, Start: 40, End: 52},
	}
	if got := selfTimes(spans); got[0] != 18 || got[1] != 12 {
		t.Fatalf("self = %v, want [18 12]", got)
	}
}

func TestLayerTable(t *testing.T) {
	spans := []span{
		{Name: "server.reload_stage", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "kb.delta_apply", ID: 1, Parent: 0, Start: 5, End: 10},
		{Name: "kb.verify", ID: 2, Parent: 0, Start: 10, End: 40},
		{Name: "server.reload_stage", ID: 3, Parent: -1, Start: 200, End: 300},
		{Name: "kb.verify", ID: 4, Parent: 3, Start: 210, End: 230},
		{Name: "registry.tenant", ID: 5, Parent: -1, Start: 400, End: 410},
	}
	rows, total, un := layerTable(spans, "server.reload_stage")
	if total != 200 || un != 200-5-30-20 {
		t.Fatalf("total %d unattributed %d, want 200 and 145", total, un)
	}
	if len(rows) != 2 || rows[0].name != "kb.verify" || rows[0].self != 50 || rows[0].count != 2 ||
		rows[1].name != "kb.delta_apply" || rows[1].self != 5 {
		t.Fatalf("rows = %+v", rows)
	}
}
