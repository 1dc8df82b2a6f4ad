package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"detective/internal/faultinject"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/similarity"
)

// reloadGraph builds variant "A" or "B" of a tiny KB whose repairs
// carry the variant suffix, so a cleaned row reveals which graph
// served it (same trick as the repair-level hot-swap tests).
func reloadGraph(variant string) *kb.Graph {
	g := kb.New()
	g.AddType("Alice", "person")
	g.AddType("Paris"+variant, "city")
	g.AddType("Euro"+variant, "country")
	g.AddTriple("Alice", "livesIn", "Paris"+variant)
	g.AddTriple("Alice", "citizenOf", "Euro"+variant)
	return g
}

func reloadRules() []*rules.DR {
	ed2 := similarity.Spec{Op: similarity.OpED, K: 2}
	return []*rules.DR{
		{
			Name:     "fix-city",
			Evidence: []rules.Node{{Name: "e", Col: "Name", Type: "person", Sim: similarity.Eq}},
			Pos:      rules.Node{Name: "p", Col: "City", Type: "city", Sim: ed2},
			Edges:    []rules.Edge{{From: "e", Rel: "livesIn", To: "p"}},
		},
		{
			Name:     "fix-country",
			Evidence: []rules.Node{{Name: "e", Col: "Name", Type: "person", Sim: similarity.Eq}},
			Pos:      rules.Node{Name: "p", Col: "Country", Type: "country", Sim: ed2},
			Edges:    []rules.Edge{{From: "e", Rel: "citizenOf", To: "p"}},
		},
	}
}

func newReloadServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	schema := relation.NewSchema("people", "Name", "City", "Country")
	s, err := server.NewWithStore(reloadRules(), kb.NewStore(reloadGraph("A")), schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cleanOne(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url+"/clean", "text/csv",
		strings.NewReader("Name,City,Country\nAlice,ParisX,EuroX\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/clean status = %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	return lines[len(lines)-1]
}

func TestReloadEndpointSwapsGraph(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The admin handler lives on its own (ops) mux, like production.
	ops := http.NewServeMux()
	ops.Handle("POST /reload", s.ReloadHandler(func() (*kb.Graph, error) {
		return reloadGraph("B"), nil
	}))
	opsTS := httptest.NewServer(ops)
	defer opsTS.Close()

	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("pre-reload clean = %q", got)
	}

	resp, err := http.Post(opsTS.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/reload status = %d: %s", resp.StatusCode, b)
	}
	var rr struct {
		Generation int64 `json:"generation"`
		Swaps      int64 `json:"swaps"`
		Triples    int   `json:"triples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Swaps != 1 || rr.Generation <= 0 || rr.Triples != 2 {
		t.Fatalf("reload response = %+v", rr)
	}

	if got := cleanOne(t, ts.URL); got != "Alice,ParisB,EuroB" {
		t.Fatalf("post-reload clean = %q", got)
	}

	// /stats reflects the swap.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.KBSwaps != 1 || stats.KBGeneration != rr.Generation {
		t.Fatalf("stats generation/swaps = %d/%d, want %d/1",
			stats.KBGeneration, stats.KBSwaps, rr.Generation)
	}
}

func TestReloadHandlerKeepsGraphOnLoadFailure(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	h := httptest.NewServer(s.ReloadHandler(func() (*kb.Graph, error) {
		return nil, fmt.Errorf("disk corrupted")
	}))
	defer h.Close()

	resp, err := http.Post(h.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "disk corrupted") {
		t.Fatalf("error body = %s", body)
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("failed load still swapped (swaps = %d)", s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after failed reload = %q", got)
	}
}

// TestReloadUnderLoad hot-swaps the KB while concurrent /clean
// requests stream: every request must succeed with internally
// consistent rows (no mixed-generation repairs).
func TestReloadUnderLoad(t *testing.T) {
	s := newReloadServer(t, server.Config{MaxConcurrent: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const rows = 200
	var in strings.Builder
	in.WriteString("Name,City,Country\n")
	for i := 0; i < rows; i++ {
		in.WriteString("Alice,ParisX,EuroX\n")
	}
	csv := in.String()

	done := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				s.ReloadKB(reloadGraph("B"), 0)
			} else {
				s.ReloadKB(reloadGraph("A"), 0)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(csv))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/clean status = %d: %s", resp.StatusCode, body)
				return
			}
			lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
			if len(lines) != rows+1 {
				t.Errorf("got %d output lines, want %d", len(lines), rows+1)
				return
			}
			for i, line := range lines[1:] {
				f := strings.Split(line, ",")
				if len(f) != 3 {
					t.Errorf("row %d malformed: %q", i, line)
					return
				}
				city, country := f[1], f[2]
				if !strings.HasPrefix(city, "Paris") || !strings.HasPrefix(country, "Euro") {
					t.Errorf("row %d: unexpected repair (%q, %q)", i, city, country)
					return
				}
				if city[len("Paris"):] != country[len("Euro"):] {
					t.Errorf("row %d: mixed-generation repair (%q, %q)", i, city, country)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	swapper.Wait()
	if s.Store().Swaps() == 0 {
		t.Fatal("no swap happened during the run")
	}
}

// TestReloadUnderLoadSurvivesBadCandidates hammers /clean while the
// reload path is fed nothing but poisoned candidates: snapshots that
// fail mid-decode (injected read fault) and graphs that fail the
// strict integrity self-check. Neither class may displace the serving
// generation or fail a single in-flight request.
func TestReloadUnderLoadSurvivesBadCandidates(t *testing.T) {
	s := newReloadServer(t, server.Config{MaxConcurrent: 64, VerifyMode: "strict"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A well-formed snapshot whose stream is cut mid-decode.
	var snap bytes.Buffer
	if err := reloadGraph("B").WriteSnapshotV2(&snap); err != nil {
		t.Fatal(err)
	}
	loadTruncated := func() (*kb.Graph, error) {
		return kb.LoadSnapshot(&faultinject.Reader{
			R:         bytes.NewReader(snap.Bytes()),
			FailAfter: int64(snap.Len()) / 2,
		})
	}
	// A decodable graph that strict verify rejects (taxonomy cycle).
	loadSuspect := func() (*kb.Graph, error) {
		g := reloadGraph("B")
		g.AddSubclass("city", "country")
		g.AddSubclass("country", "city")
		return g, nil
	}
	mux := http.NewServeMux()
	mux.Handle("POST /reload/truncated", s.ReloadHandler(loadTruncated))
	mux.Handle("POST /reload/suspect", s.ReloadHandler(loadSuspect))
	opsTS := httptest.NewServer(mux)
	defer opsTS.Close()

	startGen := s.Store().Generation()

	const rows = 100
	var in strings.Builder
	in.WriteString("Name,City,Country\n")
	for i := 0; i < rows; i++ {
		in.WriteString("Alice,ParisX,EuroX\n")
	}
	csv := in.String()

	done := make(chan struct{})
	var reloader sync.WaitGroup
	reloader.Add(1)
	go func() {
		defer reloader.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			path := "/reload/truncated"
			want := http.StatusInternalServerError
			if i%2 == 1 {
				path = "/reload/suspect"
				want = http.StatusConflict
			}
			resp, err := http.Post(opsTS.URL+path, "", nil)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s status = %d, want %d: %s", path, resp.StatusCode, want, body)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(csv))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/clean status = %d: %s", resp.StatusCode, body)
					return
				}
				lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
				if len(lines) != rows+1 {
					t.Errorf("got %d output lines, want %d", len(lines), rows+1)
					return
				}
				for i, line := range lines[1:] {
					if line != "Alice,ParisA,EuroA" {
						t.Errorf("row %d served off a poisoned candidate: %q", i, line)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	reloader.Wait()

	if got := s.Store().Generation(); got != startGen {
		t.Fatalf("generation moved %d -> %d under poisoned reloads", startGen, got)
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("poisoned candidate swapped in (swaps = %d)", s.Store().Swaps())
	}
}
