package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// newTestServer boots a server over an empty Guttman tree on an
// ephemeral port (httptest picks a free localhost port).
func newTestServer(t *testing.T, snapshotPath string) (*Server, *httptest.Server) {
	t.Helper()
	opts, name, err := cliutil.IndexOptions("", "rtree", 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.NewChecked(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Tree:         rtree.NewConcurrent(tree),
		IndexName:    name,
		SnapshotPath: snapshotPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func rectSlice(r geom.Rect) []float64 {
	return []float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
}

// TestServerLifecycle is the end-to-end integration test: insert (single
// + batch), search, KNN, delete, snapshot, restart from the snapshot,
// and identical query results on the restored server. Run it with
// -race: queries below run from concurrent goroutines.
func TestServerLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tree.gob")
	s, ts := newTestServer(t, snap)

	rng := rand.New(rand.NewSource(42))
	const n = 2000
	items := make([]map[string]any, n)
	for i := range items {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		items[i] = map[string]any{"id": fmt.Sprintf("obj-%04d", i), "rect": rectSlice(r)}
	}

	// Single insert.
	var ins insertResponse
	resp := postJSON(t, ts.URL+"/insert", items[0], &ins)
	if resp.StatusCode != http.StatusOK || ins.Inserted != 1 || ins.Size != 1 {
		t.Fatalf("single insert: %d %+v", resp.StatusCode, ins)
	}
	// Batch insert of the rest.
	resp = postJSON(t, ts.URL+"/insert", map[string]any{"items": items[1:]}, &ins)
	if resp.StatusCode != http.StatusOK || ins.Inserted != n-1 || ins.Size != n {
		t.Fatalf("batch insert: %d %+v", resp.StatusCode, ins)
	}

	// Concurrent search + KNN readers (exercises the RWMutex under -race).
	queries := make([]geom.Rect, 50)
	for i := range queries {
		queries[i] = geom.Square(rng.Float64(), rng.Float64(), 0.05)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				var sr searchResponse
				getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", ts.URL, q.MinX, q.MinY, q.MaxX, q.MaxY), &sr)
				if sr.NodesAccessed == 0 {
					t.Errorf("worker %d query %d: no node accesses reported", w, i)
					return
				}
				var kr knnResponse
				getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=5", ts.URL, q.MinX, q.MinY), &kr)
				if len(kr.Neighbors) != 5 {
					t.Errorf("knn returned %d neighbors", len(kr.Neighbors))
					return
				}
			}
		}()
	}
	wg.Wait()

	// Delete one object and verify it is gone.
	var del deleteResponse
	postJSON(t, ts.URL+"/delete", items[0], &del)
	if !del.Deleted || del.Size != n-1 {
		t.Fatalf("delete: %+v", del)
	}
	postJSON(t, ts.URL+"/delete", items[0], &del)
	if del.Deleted {
		t.Fatalf("second delete of same object succeeded")
	}

	// Stats: request counts, latency, node accesses.
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Tree.Size != n-1 || st.Tree.Height < 2 || st.Tree.Nodes == 0 {
		t.Fatalf("tree stats: %+v", st.Tree)
	}
	if st.Endpoints["insert"].Count != 2 || st.Endpoints["delete"].Count != 2 {
		t.Fatalf("endpoint counts: %+v", st.Endpoints)
	}
	se := st.Endpoints["search"]
	if se.Count != 4*50 || se.NodeAccesses == 0 || se.P50Micros == 0 {
		t.Fatalf("search metrics: %+v", se)
	}
	if st.Endpoints["knn"].NodeAccesses == 0 {
		t.Fatalf("knn node accesses missing: %+v", st.Endpoints["knn"])
	}

	// Explicit snapshot, then collect reference results.
	resp = postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	type refResult struct {
		ids      []string
		accesses int
		knnIDs   []string
	}
	collect := func(base string) []refResult {
		out := make([]refResult, len(queries))
		for i, q := range queries {
			var sr searchResponse
			getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", base, q.MinX, q.MinY, q.MaxX, q.MaxY), &sr)
			sort.Strings(sr.IDs)
			var kr knnResponse
			getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=7", base, q.MinX, q.MinY), &kr)
			knn := make([]string, len(kr.Neighbors))
			for j, nb := range kr.Neighbors {
				knn[j] = nb.ID
			}
			out[i] = refResult{ids: sr.IDs, accesses: sr.NodesAccessed, knnIDs: knn}
		}
		return out
	}
	want := collect(ts.URL)

	// Graceful shutdown: drain, final snapshot.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart from the snapshot and verify identical results, including
	// node-access counts (structure round-trips exactly).
	opts, _, err := cliutil.IndexOptions("", "rtree", 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, _, err := LoadSnapshot(snap, shard.Options{Tree: opts})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != n-1 {
		t.Fatalf("restored %d objects, want %d", restored.Len(), n-1)
	}
	s2, err := New(Config{Index: restored, IndexName: "rtree"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := collect(ts2.URL)
	for i := range want {
		if len(got[i].ids) != len(want[i].ids) {
			t.Fatalf("query %d: %d results after restore, want %d", i, len(got[i].ids), len(want[i].ids))
		}
		for j := range want[i].ids {
			if got[i].ids[j] != want[i].ids[j] {
				t.Fatalf("query %d result %d: %q != %q", i, j, got[i].ids[j], want[i].ids[j])
			}
		}
		if got[i].accesses != want[i].accesses {
			t.Fatalf("query %d: %d node accesses after restore, want %d", i, got[i].accesses, want[i].accesses)
		}
		for j := range want[i].knnIDs {
			if got[i].knnIDs[j] != want[i].knnIDs[j] {
				t.Fatalf("query %d knn %d: %q != %q", i, j, got[i].knnIDs[j], want[i].knnIDs[j])
			}
		}
	}
}

func TestServerCloseWritesFinalSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "final.gob")
	s, ts := newTestServer(t, snap)
	postJSON(t, ts.URL+"/insert", map[string]any{"id": "x", "rect": []float64{0.1, 0.1, 0.2, 0.2}}, nil)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	restored, _, _, err := LoadSnapshot(snap, shard.Options{Tree: opts})
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored %d objects", restored.Len())
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundSnapshotLoop(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "bg.gob")
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	tree, _ := rtree.NewChecked(opts)
	s, err := New(Config{
		Tree:          rtree.NewConcurrent(tree),
		SnapshotPath:  snap,
		SnapshotEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/insert", map[string]any{"rect": []float64{0, 0, 0.1, 0.1}}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshots.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadSnapshot(snap, shard.Options{Tree: opts}); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "")
	cases := []struct {
		method, path string
		body         string
	}{
		{"POST", "/insert", `{"rect":[1,2,3]}`},                 // arity
		{"POST", "/insert", `{"rect":[0.3,0.3,0.1,0.1]}`},       // inverted
		{"POST", "/insert", `not json`},                         // parse error
		{"POST", "/insert", `{"items":[{"rect":[0,0,"a",1]}]}`}, // non-numeric coord
		{"POST", "/delete", `{"rect":[0,0,1,1]}`},               // missing id
		{"GET", "/search?rect=1,2", ""},                         // arity
		{"GET", "/knn?point=0.5,0.5&k=-2", ""},                  // bad k
		{"GET", "/knn?point=zap", ""},                           // bad point
	}
	for _, c := range cases {
		var resp *http.Response
		var err error
		if c.method == "POST" {
			resp, err = http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		} else {
			resp, err = http.Get(ts.URL + c.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s body=%q: status %d, want 400", c.method, c.path, c.body, resp.StatusCode)
		}
	}
	// Snapshot without a configured path is a 503.
	resp, err := http.Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("snapshot without path: %d, want 503", resp.StatusCode)
	}
	// Wrong method is rejected by the mux.
	resp, err = http.Get(ts.URL + "/insert")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /insert: %d, want 405", resp.StatusCode)
	}
}

func TestBodySizeCap(t *testing.T) {
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	tree, _ := rtree.NewChecked(opts)
	s, err := New(Config{Tree: rtree.NewConcurrent(tree), MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := bytes.Repeat([]byte("x"), 1024)
	resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}

func TestAutoIDAssignment(t *testing.T) {
	_, ts := newTestServer(t, "")
	var ins insertResponse
	postJSON(t, ts.URL+"/insert", map[string]any{"items": []map[string]any{
		{"rect": []float64{0, 0, 0.1, 0.1}},
		{"rect": []float64{0.2, 0.2, 0.3, 0.3}},
	}}, &ins)
	if len(ins.IDs) != 2 || ins.IDs[0] == "" || ins.IDs[0] == ins.IDs[1] {
		t.Fatalf("auto ids: %+v", ins)
	}
	var sr searchResponse
	getJSON(t, ts.URL+"/search?rect=0,0,1,1", &sr)
	if sr.Count != 2 {
		t.Fatalf("count %d", sr.Count)
	}
}

func TestSearchTruncation(t *testing.T) {
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	tree, _ := rtree.NewChecked(opts)
	s, err := New(Config{Tree: rtree.NewConcurrent(tree), MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	items := make([]map[string]any, 20)
	rng := rand.New(rand.NewSource(7))
	for i := range items {
		items[i] = map[string]any{"id": fmt.Sprintf("t%d", i), "rect": rectSlice(geom.Square(rng.Float64(), rng.Float64(), 0.01))}
	}
	postJSON(t, ts.URL+"/insert", map[string]any{"items": items}, nil)
	var sr searchResponse
	getJSON(t, ts.URL+"/search?rect=-1,-1,2,2", &sr)
	if !sr.Truncated || len(sr.IDs) != 5 || sr.Count != 20 {
		t.Fatalf("truncation: %+v", sr)
	}
}

// TestPanicRecovery proves the recovery middleware converts a handler
// panic into a 500 JSON error on a live connection (instead of net/http
// aborting it), counts it, and leaves the server serving.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, "")

	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	pts := httptest.NewServer(mux)
	defer pts.Close()

	var errResp map[string]string
	resp := getJSON(t, pts.URL+"/boom", &errResp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}
	if errResp["error"] == "" {
		t.Fatalf("500 body carries no JSON error: %v", errResp)
	}
	if got := s.metrics.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The real server still works and reports the panic in /stats.
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.PanicsRecovered != 1 {
		t.Fatalf("stats panics_recovered = %d, want 1", st.PanicsRecovered)
	}

	// A handler that panics after starting its response must not trigger
	// a second write; the request is still counted as an error.
	mux.HandleFunc("GET /late", s.instrument("late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late kaboom")
	}))
	resp, err := http.Get(pts.URL + "/late")
	if err != nil {
		t.Fatalf("late panic killed the connection: %v", err)
	}
	resp.Body.Close()
	if got := s.metrics.panics.Value(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}
}
