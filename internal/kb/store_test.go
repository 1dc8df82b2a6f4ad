package kb

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreSwapBumpsGeneration(t *testing.T) {
	g1 := paperGraph()
	st := NewStore(g1)
	if st.Graph() != g1 {
		t.Fatal("store does not serve the initial graph")
	}
	if st.Swaps() != 0 {
		t.Fatalf("Swaps = %d before any swap", st.Swaps())
	}

	// A fresh, smaller graph has a lower generation than g1; Swap must
	// stamp it strictly above the outgoing graph's.
	g2 := New()
	g2.AddTriple("a", "r", "b")
	if g2.Generation() > g1.Generation() {
		t.Fatalf("test setup: g2 gen %d should start below g1 gen %d", g2.Generation(), g1.Generation())
	}
	old := st.Swap(g2)
	if old != g1 {
		t.Error("Swap did not return the replaced graph")
	}
	if st.Graph() != g2 {
		t.Error("Swap did not publish the new graph")
	}
	if st.Generation() <= g1.Generation() {
		t.Errorf("post-swap generation %d not above old generation %d", st.Generation(), g1.Generation())
	}
	if st.Swaps() != 1 {
		t.Errorf("Swaps = %d, want 1", st.Swaps())
	}

	// A graph already above the current generation keeps its own.
	g3 := New()
	for i := 0; i < 100; i++ {
		g3.AddTriple("x", "r", "y"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	want := g3.Generation()
	if want <= st.Generation() {
		t.Fatalf("test setup: g3 gen %d should exceed current gen %d", want, st.Generation())
	}
	st.Swap(g3)
	if st.Generation() != want {
		t.Errorf("generation rewritten to %d, want preserved %d", st.Generation(), want)
	}
}

func TestStoreSwapFreezes(t *testing.T) {
	st := NewStore(paperGraph())
	g2 := New()
	g2.AddType("i", "c")
	g2.AddSubclass("c", "d")
	st.Swap(g2)
	if !st.Graph().closed {
		t.Error("swapped-in graph was not frozen")
	}
}

func TestStoreConcurrentPinAndSwap(t *testing.T) {
	base := paperGraph()
	st := NewStore(base)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Pin once, then do multi-step reads entirely on the
				// pinned graph — internally consistent regardless of
				// concurrent swaps.
				g := st.Graph()
				n := g.NumTriples()
				total := 0
				for _, s := range g.names {
					total += len(g.Out(g.Lookup(s)))
				}
				if total != n {
					panic("pinned graph internally inconsistent")
				}
			}
		}()
	}

	var lastGen int64
	for i := 0; i < 50; i++ {
		g := paperGraph()
		g.AddTriple("extra", "r", "v")
		st.Swap(g)
		gen := st.Generation()
		if gen <= lastGen {
			t.Fatalf("generation not strictly increasing: %d after %d", gen, lastGen)
		}
		lastGen = gen
	}
	stop.Store(true)
	wg.Wait()
	if st.Swaps() != 50 {
		t.Errorf("Swaps = %d, want 50", st.Swaps())
	}
}

func TestStoreRetainAndRollback(t *testing.T) {
	g1 := paperGraph()
	st := NewStore(g1)
	st.SetRetain(2)

	if _, _, err := st.Rollback(); err != ErrNoRetained {
		t.Fatalf("rollback on empty ring: err = %v, want ErrNoRetained", err)
	}

	g2, g3, g4 := paperGraph(), paperGraph(), paperGraph()
	g2.AddTriple("v", "r", "2")
	g3.AddTriple("v", "r", "3")
	g4.AddTriple("v", "r", "4")
	st.Swap(g2)
	st.Swap(g3)
	st.Swap(g4) // ring now [g2, g3]; g1 evicted

	hist := st.History()
	if len(hist) != 3 || !hist[0].Live || hist[0].Generation != g4.Generation() ||
		hist[1].Generation != g3.Generation() || hist[2].Generation != g2.Generation() {
		t.Fatalf("history = %+v", hist)
	}

	now, dropped, err := st.Rollback()
	if err != nil || now != g3 || dropped != g4 {
		t.Fatalf("Rollback = %v, %v, %v; want g3, g4", now, dropped, err)
	}
	if st.Graph() != g3 || st.Rollbacks() != 1 {
		t.Fatalf("store not serving g3 after rollback (rollbacks=%d)", st.Rollbacks())
	}
	if g3.Generation() >= g4.Generation() {
		t.Fatal("rolled-back graph must keep its original lower generation")
	}

	// A fresh graph swapped in after a rollback must be stamped above
	// the dropped g4, not just above the live g3: generation numbers
	// are never reused for different content.
	g5 := New()
	g5.AddTriple("v", "r", "5")
	st.Swap(g5)
	if g5.Generation() <= g4.Generation() {
		t.Fatalf("post-rollback swap reused generation space: g5=%d g4=%d",
			g5.Generation(), g4.Generation())
	}

	// Ring is now [g2, g3]: g3 was re-retained by the g5 swap.
	now, _, err = st.Rollback()
	if err != nil || now != g3 {
		t.Fatalf("second rollback = %v, %v; want g3", now, err)
	}
	now, _, err = st.Rollback()
	if err != nil || now != g2 {
		t.Fatalf("third rollback = %v, %v; want g2", now, err)
	}
	if _, _, err = st.Rollback(); err != ErrNoRetained {
		t.Fatalf("rollback past ring bottom: err = %v", err)
	}
}

func TestStoreSetRetainTrims(t *testing.T) {
	st := NewStore(paperGraph())
	st.SetRetain(3)
	var gens []int64
	for i := 0; i < 3; i++ {
		g := paperGraph()
		g.AddTriple("v", "r", string(rune('a'+i)))
		st.Swap(g)
		gens = append(gens, st.Generation())
	}
	if got := len(st.History()) - 1; got != 3 {
		t.Fatalf("retained %d graphs, want 3", got)
	}
	st.SetRetain(1)
	hist := st.History()
	if len(hist) != 2 || hist[1].Generation != gens[1] {
		t.Fatalf("SetRetain(1) kept wrong graphs: %+v (gens %v)", hist, gens)
	}
	st.SetRetain(0)
	if len(st.History()) != 1 {
		t.Fatal("SetRetain(0) did not clear the ring")
	}
	if _, _, err := st.Rollback(); err != ErrNoRetained {
		t.Fatalf("rollback after SetRetain(0): err = %v", err)
	}
}

func TestStoreRollbackConcurrentReaders(t *testing.T) {
	st := NewStore(paperGraph())
	st.SetRetain(4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := st.Graph()
				total := 0
				for _, s := range g.names {
					total += len(g.Out(g.Lookup(s)))
				}
				if total != g.NumTriples() {
					panic("pinned graph internally inconsistent")
				}
			}
		}()
	}
	for i := 0; i < 32; i++ {
		g := paperGraph()
		g.AddTriple("extra", "r", "v")
		st.Swap(g)
		if i%3 == 2 {
			if _, _, err := st.Rollback(); err != nil {
				t.Errorf("rollback %d: %v", i, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
