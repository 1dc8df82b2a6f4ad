package kb

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPairTableAddGetGrow(t *testing.T) {
	tab := newPairTable(0, 0)
	// Interleave appends across many keys so spans relocate while the
	// table grows several times.
	const keys = 500
	want := make(map[uint64][]ID)
	for round := 0; round < 4; round++ {
		for k := 0; k < keys; k++ {
			key := pairKey(ID(k), ID(k%7))
			v := ID(round*keys + k)
			tab.add(key, v)
			want[key] = append(want[key], v)
		}
	}
	if tab.len() != keys {
		t.Fatalf("len = %d, want %d", tab.len(), keys)
	}
	for key, vals := range want {
		if got := tab.get(key); !reflect.DeepEqual(got, vals) {
			t.Fatalf("get(%d) = %v, want %v", key, got, vals)
		}
	}
	if got := tab.get(pairKey(9999, 9999)); got != nil {
		t.Fatalf("get on absent key = %v, want nil", got)
	}
}

func TestPairTableHighDegreeKey(t *testing.T) {
	// One key with thousands of values exercises the amortized
	// doubling of span relocation.
	tab := newPairTable(0, 0)
	key := pairKey(3, 4)
	var want []ID
	for i := 0; i < 5000; i++ {
		tab.add(key, ID(i))
		want = append(want, ID(i))
	}
	if got := tab.get(key); !reflect.DeepEqual(got, want) {
		t.Fatalf("high-degree key lost values: got %d, want %d", len(got), len(want))
	}
}

func TestPairTableRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newPairTable(0, 0)
	want := make(map[uint64][]ID)
	for i := 0; i < 20000; i++ {
		a, b := ID(rng.Intn(300)), ID(rng.Intn(300))
		key := pairKey(a, b)
		v := ID(i)
		tab.add(key, v)
		want[key] = append(want[key], v)
	}
	if tab.len() != len(want) {
		t.Fatalf("len = %d, want %d", tab.len(), len(want))
	}
	for key, vals := range want {
		if got := tab.get(key); !reflect.DeepEqual(got, vals) {
			t.Fatalf("get(%d) diverged from reference map", key)
		}
	}
}

func TestPairTablePutBulk(t *testing.T) {
	// put is the presized bulk path of flattenPairTable: distinct keys,
	// values copied into the arena.
	tab := newPairTable(100, 1000)
	scratch := []ID{1, 2, 3}
	for k := 0; k < 100; k++ {
		scratch[0] = ID(k)
		tab.put(pairKey(ID(k), 1), scratch)
	}
	for k := 0; k < 100; k++ {
		want := []ID{ID(k), 2, 3}
		if got := tab.get(pairKey(ID(k), 1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("put must copy its value: get = %v, want %v", got, want)
		}
	}
}

func TestEdgeIndexAddView(t *testing.T) {
	var x edgeIndex
	for i := 0; i < 10; i++ {
		x.addNode()
	}
	var want [10][]Edge
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		k := ID(rng.Intn(10))
		e := Edge{Pred: ID(i % 13), To: ID(i)}
		x.add(k, e)
		want[k] = append(want[k], e)
	}
	for k := range want {
		if got := x.view(ID(k)); !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("view(%d) diverged: got %d edges, want %d", k, len(got), len(want[k]))
		}
	}
	if x.view(Invalid) != nil || x.view(10) != nil {
		t.Fatal("out-of-range view must be nil")
	}
	if x.view(ID(9)) == nil {
		t.Fatal("expected edges for node 9")
	}
}

func TestEdgeIndexViewIsCapped(t *testing.T) {
	var x edgeIndex
	x.addNode()
	x.addNode()
	x.add(0, Edge{Pred: 1, To: 1})
	x.add(1, Edge{Pred: 2, To: 2})
	v := x.view(0)
	if cap(v) != len(v) {
		t.Fatalf("view must be capped: len %d cap %d", len(v), cap(v))
	}
}
