package main

import (
	"errors"
	"net/http"
	"testing"

	"detective/internal/server"
)

func trailers(rows, quarantined, budget string) http.Header {
	h := http.Header{}
	h.Set(server.TrailerRows, rows)
	h.Set(server.TrailerQuarantined, quarantined)
	h.Set(server.TrailerBudgetExhausted, budget)
	return h
}

func TestCheckCleanRejectsCorruptedBody(t *testing.T) {
	ref := []byte("Name,City\nAda,Paris\nBob,Rome\n")
	if err := checkClean(200, trailers("2", "0", "0"), 2, append([]byte(nil), ref...), ref); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)-3] = 'n' // Rome -> Rone
	err := checkClean(200, trailers("2", "0", "0"), 2, bad, ref)
	if !errors.Is(err, errMismatch) {
		t.Fatalf("corrupted body: err = %v, want errMismatch", err)
	}
	if err := checkClean(200, trailers("2", "0", "0"), 2, ref[:len(ref)-1], ref); !errors.Is(err, errMismatch) {
		t.Fatalf("truncated body: err = %v, want errMismatch", err)
	}
}

func TestCheckCleanStatusAndTrailers(t *testing.T) {
	for name, tc := range map[string]struct {
		status int
		h      http.Header
	}{
		"shed":        {429, trailers("2", "0", "0")},
		"short":       {200, trailers("1", "0", "0")},
		"missing":     {200, http.Header{}},
		"quarantined": {200, trailers("2", "1", "0")},
		"budget":      {200, trailers("2", "0", "3")},
	} {
		if err := checkClean(tc.status, tc.h, 2, nil, nil); err == nil || errors.Is(err, errMismatch) {
			t.Errorf("%s: err = %v, want a non-mismatch failure", name, err)
		}
	}
}

func TestCheckReload(t *testing.T) {
	if rows, err := checkReload(200, []byte(`{"delta":true,"canary":{"promoted":true,"replayedRows":7}}`)); err != nil || rows != 7 {
		t.Fatalf("promoted delta: %d, %v", rows, err)
	}
	for _, body := range []string{`{"delta":false,"canary":{"promoted":true}}`, `{"delta":true,"canary":{"promoted":false}}`, `{"delta":true}`} {
		if _, err := checkReload(200, []byte(body)); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
	if _, err := checkReload(409, []byte(`{"error":{}}`)); err == nil {
		t.Error("409 accepted")
	}
}
