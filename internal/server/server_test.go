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
	"sync"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// newTestServer boots a server over an empty Guttman tree on an
// ephemeral port (httptest picks a free localhost port).
// newIndex returns an empty one-shard index with tree's options — the
// index a -shards 1 server serves.
func newIndex(t testing.TB, tree rtree.Options) *shard.ShardedTree {
	t.Helper()
	ix, err := shard.New(shard.Options{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t *testing.T, snapshotPath string) (*Server, *httptest.Server) {
	t.Helper()
	opts, name, err := cliutil.IndexOptions("", "rtree", 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Index:        newIndex(t, opts),
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

// setKey SETs key at r and fails the test unless the server accepted it.
func setKey(t *testing.T, base, key string, r geom.Rect) setResponse {
	t.Helper()
	var res setResponse
	if resp := postJSON(t, base+"/set", map[string]any{"key": key, "rect": rectSlice(r)}, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("set %q: status %d", key, resp.StatusCode)
	}
	return res
}

// delKey DELs key and returns the response.
func delKey(t *testing.T, base, key string) delResponse {
	t.Helper()
	var res delResponse
	if resp := postJSON(t, base+"/del", map[string]any{"key": key}, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("del %q: status %d", key, resp.StatusCode)
	}
	return res
}

// searchKeys returns every key /search pages out for q.
func searchKeys(t *testing.T, base string, q geom.Rect) []string {
	t.Helper()
	var page pagedWire
	getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", base, q.MinX, q.MinY, q.MaxX, q.MaxY), &page)
	if page.Cursor != "" {
		t.Fatalf("search %v: more than one page", q)
	}
	return page.Keys
}

// TestServerLifecycle is the end-to-end integration test: set, search,
// KNN, del, snapshot, restart from the snapshot, and identical query
// results on the restored server. Run it with -race: queries below run
// from concurrent goroutines.
func TestServerLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "index.snap")
	s, ts := newTestServer(t, snap)

	rng := rand.New(rand.NewSource(42))
	const n = 2000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%04d", i)
		res := setKey(t, ts.URL, keys[i], geom.Square(rng.Float64(), rng.Float64(), 0.01))
		if res.Replaced || res.Size != i+1 {
			t.Fatalf("set %d: %+v", i, res)
		}
	}

	// Concurrent search + KNN readers (exercises lock-free epoch reads
	// under -race).
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
				var sr pagedWire
				getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", ts.URL, q.MinX, q.MinY, q.MaxX, q.MaxY), &sr)
				if sr.NodesAccessed == 0 {
					t.Errorf("worker %d query %d: no node accesses reported", w, i)
					return
				}
				var kr pagedWire
				getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=5", ts.URL, q.MinX, q.MinY), &kr)
				if len(kr.Keys) != 5 {
					t.Errorf("knn returned %d neighbors", len(kr.Keys))
					return
				}
			}
		}()
	}
	wg.Wait()

	// Delete one object and verify it is gone.
	if del := delKey(t, ts.URL, keys[0]); !del.Deleted || del.Size != n-1 {
		t.Fatalf("del: %+v", del)
	}
	if del := delKey(t, ts.URL, keys[0]); del.Deleted {
		t.Fatalf("second del of same key succeeded")
	}

	// Stats: request counts, latency, node accesses.
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Tree.Size != n-1 || st.Tree.Height < 2 || st.Tree.Nodes == 0 {
		t.Fatalf("tree stats: %+v", st.Tree)
	}
	if st.Endpoints["set"].Count != n || st.Endpoints["del"].Count != 2 {
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
	resp := postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	type refResult struct {
		keys     []string
		accesses int
		knnKeys  []string
	}
	collect := func(base string) []refResult {
		out := make([]refResult, len(queries))
		for i, q := range queries {
			var sr pagedWire
			getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", base, q.MinX, q.MinY, q.MaxX, q.MaxY), &sr)
			var kr pagedWire
			getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=7", base, q.MinX, q.MinY), &kr)
			out[i] = refResult{keys: sr.Keys, accesses: sr.NodesAccessed, knnKeys: kr.Keys}
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
	restored, _, err := LoadSnapshot(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := collection.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != n-1 || coll.Len() != n-1 {
		t.Fatalf("restored %d objects and %d keys, want %d", restored.Len(), coll.Len(), n-1)
	}
	s2, err := New(Config{Index: restored, Collection: coll, IndexName: "rtree"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := collect(ts2.URL)
	for i := range want {
		if fmt.Sprint(got[i].keys) != fmt.Sprint(want[i].keys) {
			t.Fatalf("query %d: %v after restore, want %v", i, got[i].keys, want[i].keys)
		}
		if got[i].accesses != want[i].accesses {
			t.Fatalf("query %d: %d node accesses after restore, want %d", i, got[i].accesses, want[i].accesses)
		}
		if fmt.Sprint(got[i].knnKeys) != fmt.Sprint(want[i].knnKeys) {
			t.Fatalf("query %d knn: %v after restore, want %v", i, got[i].knnKeys, want[i].knnKeys)
		}
	}
}

func TestServerCloseWritesFinalSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "final.snap")
	s, ts := newTestServer(t, snap)
	setKey(t, ts.URL, "x", geom.NewRect(0.1, 0.1, 0.2, 0.2))
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	restored, _, err := LoadSnapshot(snap, opts)
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
	snap := filepath.Join(t.TempDir(), "bg.snap")
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	s, err := New(Config{
		Index:         newIndex(t, opts),
		SnapshotPath:  snap,
		SnapshotEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	setKey(t, ts.URL, "x", geom.NewRect(0, 0, 0.1, 0.1))
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
	if _, _, err := LoadSnapshot(snap, opts); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "")
	cases := []struct {
		method, path string
		body         string
	}{
		{"POST", "/set", `{"key":"a","rect":[1,2,3]}`},           // arity
		{"POST", "/set", `{"key":"a","rect":[0.3,0.3,0.1,0.1]}`}, // inverted
		{"POST", "/set", `not json`},                             // parse error
		{"POST", "/set", `{"key":"a","rect":[0,0,"a",1]}`},       // non-numeric coord
		{"POST", "/del", `{"rect":[0,0,1,1]}`},                   // missing key
		{"GET", "/search?rect=1,2", ""},                          // arity
		{"GET", "/knn?point=0.5,0.5&k=-2", ""},                   // bad k
		{"GET", "/knn?point=zap", ""},                            // bad point
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
	resp, err = http.Get(ts.URL + "/set")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /set: %d, want 405", resp.StatusCode)
	}
}

func TestBodySizeCap(t *testing.T) {
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	s, err := New(Config{Index: newIndex(t, opts), MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := bytes.Repeat([]byte("x"), 1024)
	resp, err := http.Post(ts.URL+"/set", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}

// TestQueriesWithoutLimitAnswerOnePage: with no limit, /search and /knn
// answer one keyed page clamped to MaxResults — there is no unpaged
// mode — and the retired ID endpoints are gone.
func TestQueriesWithoutLimitAnswerOnePage(t *testing.T) {
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	s, err := New(Config{Index: newIndex(t, opts), MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		setKey(t, ts.URL, fmt.Sprintf("t%02d", i), geom.Square(rng.Float64(), rng.Float64(), 0.01))
	}
	var sr pagedWire
	getJSON(t, ts.URL+"/search?rect=-1,-1,2,2", &sr)
	if len(sr.Keys) != 5 || sr.Count != 5 || sr.Cursor == "" || sr.Keys[0] != "t00" {
		t.Fatalf("search without limit: %+v", sr)
	}
	var kr pagedWire
	getJSON(t, ts.URL+"/knn?point=0.5,0.5&k=20", &kr)
	if len(kr.Keys) != 5 || len(kr.Dists) != 5 {
		t.Fatalf("knn without limit: %+v", kr)
	}
	for _, path := range []string{"/insert", "/delete"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			bytes.NewReader([]byte(`{"id":"a","rect":[0,0,1,1]}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
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
