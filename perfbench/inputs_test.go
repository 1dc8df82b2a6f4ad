package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// inputDigest hashes everything a workload sends: bodies, request
// order and reload deltas.
func inputDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	b, err := setup(options{workload: workload, seed: seed, seconds: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	h := sha256.New()
	for _, bd := range b.bodies {
		h.Write(b.arena.bytes(bd.data))
	}
	for _, tk := range b.tenants {
		h.Write(tk.fwd)
		h.Write(tk.inv)
	}
	fmt.Fprint(h, b.seq, b.warm, b.reloadTenant)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, wl := range []string{"cold", "hot", "fleet"} {
		a, b := inputDigest(t, wl, 9), inputDigest(t, wl, 9)
		if a != b {
			t.Errorf("%s: two set-ups with seed 9 generated different inputs", wl)
		}
		if c := inputDigest(t, wl, 10); c == a {
			t.Errorf("%s: seeds 9 and 10 generated the same inputs", wl)
		}
	}
}
