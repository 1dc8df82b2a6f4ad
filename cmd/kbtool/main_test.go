package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"detective/internal/kb"
)

// writeSnapshot packs g into a snapshot file under dir.
func writeSnapshot(t *testing.T, dir, name string, g *kb.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func healthyGraph() *kb.Graph {
	g := kb.New()
	g.AddType("Alice", "person")
	g.AddType("Paris", "city")
	g.AddTriple("Alice", "livesIn", "Paris")
	return g
}

// cycleGraph decodes fine but fails the deep integrity pass: its
// taxonomy contains a subclass cycle.
func cycleGraph() *kb.Graph {
	g := healthyGraph()
	g.AddSubclass("city", "country")
	g.AddSubclass("country", "city")
	return g
}

func TestVerifyHealthySnapshot(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "ok.snap", healthyGraph())
	for _, args := range [][]string{{path}, {"-deep", path}, {path, "-deep"}} {
		var out, errw bytes.Buffer
		if code := runVerify(args, &out, &errw); code != 0 {
			t.Fatalf("verify %v = %d: %s%s", args, code, out.String(), errw.String())
		}
		if !strings.HasPrefix(out.String(), "ok:") {
			t.Fatalf("verify %v output = %q", args, out.String())
		}
	}
}

// TestVerifyCorruptSnapshotExit3: a flipped payload byte breaks the
// section checksum; both plain and deep verify classify the file as
// corrupt with exit 3, never reaching the integrity pass.
func TestVerifyCorruptSnapshotExit3(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "corrupt.snap", healthyGraph())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-deep", path}} {
		var out, errw bytes.Buffer
		if code := runVerify(args, &out, &errw); code != 3 {
			t.Fatalf("verify %v = %d, want 3: %s%s", args, code, out.String(), errw.String())
		}
		if !strings.Contains(errw.String(), "corrupt snapshot") {
			t.Fatalf("stderr = %q", errw.String())
		}
	}
}

// TestVerifyDeepSuspectSnapshotExit4: a well-formed snapshot of a
// structurally broken graph passes plain verify (exit 0) but fails
// -deep with exit 4 — the two failure classes stay distinguishable.
func TestVerifyDeepSuspectSnapshotExit4(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "suspect.snap", cycleGraph())

	var out, errw bytes.Buffer
	if code := runVerify([]string{path}, &out, &errw); code != 0 {
		t.Fatalf("plain verify = %d, want 0: %s%s", code, out.String(), errw.String())
	}

	out.Reset()
	errw.Reset()
	if code := runVerify([]string{"-deep", path}, &out, &errw); code != 4 {
		t.Fatalf("deep verify = %d, want 4: %s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "taxonomy-cycle") {
		t.Fatalf("findings not printed: %q", out.String())
	}
	if !strings.Contains(errw.String(), "structurally suspect") {
		t.Fatalf("stderr = %q", errw.String())
	}
}

// TestV1SnapshotExit3: info and verify refuse a retired DKBS v1 file
// with exit 3 and say how to migrate it.
func TestV1SnapshotExit3(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, []byte("DKBS\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(out, errw *bytes.Buffer) int{
		"info":   func(out, errw *bytes.Buffer) int { return runInfo([]string{path}, out, errw) },
		"verify": func(out, errw *bytes.Buffer) int { return runVerify([]string{path}, out, errw) },
	} {
		var out, errw bytes.Buffer
		if code := run(&out, &errw); code != 3 {
			t.Fatalf("%s on a v1 file = %d, want 3: %s%s", name, code, out.String(), errw.String())
		}
		if !strings.Contains(errw.String(), "version 1") || !strings.Contains(errw.String(), "kbtool pack") {
			t.Fatalf("%s stderr = %q, want the v1 migration hint", name, errw.String())
		}
	}
}

func TestVerifyUsageExit2(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runVerify(nil, &out, &errw); code != 2 {
		t.Fatalf("no-arg verify = %d, want 2", code)
	}
	if code := runVerify([]string{"-deep", "a", "b"}, &out, &errw); code != 2 {
		t.Fatalf("extra-arg verify = %d, want 2", code)
	}
}
