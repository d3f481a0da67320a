package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

type pagedWire struct {
	Keys   []string     `json:"keys"`
	Rects  [][4]float64 `json:"rects"`
	Dists  []float64    `json:"dists"`
	Cursor string       `json:"cursor"`
	Count  int          `json:"count"`
}

// TestKeyedEndpoints drives the whole keyed HTTP surface: SET (insert
// and move), GET, DEL, /within and the paged modes of /search and /knn.
func TestKeyedEndpoints(t *testing.T) {
	s, ts := newTestServer(t, "")
	defer s.Close()

	// SET 20 unit squares on a diagonal.
	for i := 0; i < 20; i++ {
		var res setResponse
		x := float64(i)
		postJSON(t, ts.URL+"/set", map[string]any{
			"key":  fmt.Sprintf("obj-%02d", i),
			"rect": []float64{x, x, x + 1, x + 1},
		}, &res)
		if res.Replaced || res.Size != i+1 {
			t.Fatalf("set %d: %+v", i, res)
		}
	}

	// Move one: SET again under the same key must replace, not add.
	var moved setResponse
	postJSON(t, ts.URL+"/set", map[string]any{
		"key": "obj-05", "rect": []float64{100, 100, 101, 101},
	}, &moved)
	if !moved.Replaced || moved.Size != 20 {
		t.Fatalf("move: %+v", moved)
	}
	if moved.Prev == nil || moved.Prev[0] != 5 {
		t.Fatalf("move prev = %v", moved.Prev)
	}

	// GET sees the new position; a missing key is 404.
	var got struct {
		Key  string     `json:"key"`
		Rect [4]float64 `json:"rect"`
	}
	getJSON(t, ts.URL+"/get?key=obj-05", &got)
	if got.Rect[0] != 100 {
		t.Fatalf("get after move: %+v", got)
	}
	if resp := getJSON(t, ts.URL+"/get?key=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing key: status %d", resp.StatusCode)
	}

	// Paged /search (intersects) over the first ten squares, 3 per page.
	rect := url.QueryEscape("0,0,9.5,9.5")
	var keys []string
	cursor := ""
	pages := 0
	for {
		var page pagedWire
		getJSON(t, ts.URL+"/search?rect="+rect+"&limit=3&cursor="+url.QueryEscape(cursor), &page)
		keys = append(keys, page.Keys...)
		pages++
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
		if pages > 10 {
			t.Fatal("cursor never exhausted")
		}
	}
	// obj-00..obj-09 minus the moved obj-05.
	if len(keys) != 9 || pages != 3 {
		t.Fatalf("paged search: %d keys in %d pages: %v", len(keys), pages, keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("paged search out of key order: %v", keys)
		}
	}

	// /within returns only contained objects: the window clips obj-03's
	// square in half, so it must not appear.
	var within pagedWire
	getJSON(t, ts.URL+"/within?rect="+url.QueryEscape("0,0,3.5,3.5"), &within)
	if len(within.Keys) != 3 || within.Keys[2] != "obj-02" {
		t.Fatalf("within: %v", within.Keys)
	}

	// Paged /knn near the origin: ascending distances, keys follow.
	var knn pagedWire
	getJSON(t, ts.URL+"/knn?point=0,0&k=5&limit=5", &knn)
	if len(knn.Keys) != 5 || knn.Keys[0] != "obj-00" {
		t.Fatalf("paged knn: %+v", knn)
	}
	for i := 1; i < len(knn.Dists); i++ {
		if knn.Dists[i-1] > knn.Dists[i] {
			t.Fatalf("knn dists not ascending: %v", knn.Dists)
		}
	}
	// The k-set pages through with a cursor.
	var knn2 pagedWire
	getJSON(t, ts.URL+"/knn?point=0,0&k=5&limit=2", &knn2)
	if len(knn2.Keys) != 2 || knn2.Cursor == "" {
		t.Fatalf("paged knn first page: %+v", knn2)
	}
	var knn3 pagedWire
	getJSON(t, ts.URL+"/knn?point=0,0&k=5&limit=9&cursor="+url.QueryEscape(knn2.Cursor), &knn3)
	if len(knn3.Keys) != 3 || knn3.Cursor != "" {
		t.Fatalf("paged knn second page: %+v", knn3)
	}
	if gotAll := append(knn2.Keys, knn3.Keys...); fmt.Sprint(gotAll) != fmt.Sprint(knn.Keys) {
		t.Fatalf("paged knn pages %v != one-shot %v", gotAll, knn.Keys)
	}

	// A cursor of the wrong kind is a 400, not a silent restart.
	if resp := getJSON(t, ts.URL+"/search?rect="+rect+"&cursor="+url.QueryEscape(knn2.Cursor), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("knn cursor on search: status %d", resp.StatusCode)
	}

	// DEL removes exactly the key.
	var del delResponse
	postJSON(t, ts.URL+"/del", map[string]any{"key": "obj-07"}, &del)
	if !del.Deleted || del.Size != 19 {
		t.Fatalf("del: %+v", del)
	}
	postJSON(t, ts.URL+"/del", map[string]any{"key": "obj-07"}, &del)
	if del.Deleted {
		t.Fatalf("second del reported deleted")
	}

	// /stats carries the collection counters.
	var stats struct {
		Collection collection.Stats `json:"collection"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Collection.Objects != 19 || stats.Collection.Sets != 21 ||
		stats.Collection.UpdatesInPlace != 1 || stats.Collection.Dels != 1 {
		t.Fatalf("stats.collection = %+v", stats.Collection)
	}
	if err := s.Collection().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedSnapshotRestore proves the key map survives the full
// save/load cycle: a server with keyed and legacy objects snapshots,
// and a second server restored from the file answers keyed GETs.
func TestKeyedSnapshotRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "keyed.snap")
	s, ts := newTestServer(t, snap)
	for i := 0; i < 50; i++ {
		x := float64(i)
		postJSON(t, ts.URL+"/set", map[string]any{
			"key":  fmt.Sprintf("k-%02d", i),
			"rect": []float64{x, 0, x + 1, 1},
		}, nil)
	}
	// A legacy unkeyed insert shares the index but not the key map.
	postJSON(t, ts.URL+"/insert", map[string]any{"id": "legacy-1", "rect": []float64{500, 500, 501, 501}}, nil)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	idx, pairs, lsn, err := LoadSnapshot(snap, shard.Options{Tree: opts})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 || len(pairs) != 50 {
		t.Fatalf("restored lsn=%d pairs=%d, want 0/50", lsn, len(pairs))
	}
	if idx.Len() != 51 {
		t.Fatalf("restored index holds %d objects, want 51", idx.Len())
	}
	coll := collection.Restore(idx, pairs)
	s2, err := New(Config{Index: idx, Collection: coll})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var got struct {
		Rect [4]float64 `json:"rect"`
	}
	getJSON(t, ts2.URL+"/get?key=k-31", &got)
	if got.Rect[0] != 31 {
		t.Fatalf("restored get: %+v", got)
	}
	// The legacy object is not addressable by key but still queryable.
	if resp := getJSON(t, ts2.URL+"/get?key=legacy-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy object addressable by key: %d", resp.StatusCode)
	}
}

// TestKeyedWALRecovery replays keyed records through the collection:
// sets, moves and dels past the snapshot LSN reappear after a restart.
func TestKeyedWALRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	opts, _, _ := cliutil.IndexOptions("", "rtree", 16, 6)
	tree, _ := rtree.NewChecked(opts)
	idx := rtree.NewConcurrent(tree)
	coll := collection.New(idx)
	s, err := New(Config{Index: idx, Collection: coll, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < 30; i++ {
		x := float64(i)
		postJSON(t, ts.URL+"/set", map[string]any{"key": fmt.Sprintf("m-%02d", i), "rect": []float64{x, x, x + 1, x + 1}}, nil)
	}
	// Move ten, delete five — recovery must reproduce the net state.
	for i := 0; i < 10; i++ {
		postJSON(t, ts.URL+"/set", map[string]any{"key": fmt.Sprintf("m-%02d", i), "rect": []float64{float64(i), 50, float64(i) + 1, 51}}, nil)
	}
	for i := 20; i < 25; i++ {
		postJSON(t, ts.URL+"/del", map[string]any{"key": fmt.Sprintf("m-%02d", i)}, nil)
	}
	ts.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	tree2, _ := rtree.NewChecked(opts)
	idx2 := rtree.NewConcurrent(tree2)
	coll2 := collection.New(idx2)
	if _, err := Recover(w2, 0, idx2, coll2, t.Logf); err != nil {
		t.Fatal(err)
	}
	if coll2.Len() != 25 {
		t.Fatalf("recovered %d keys, want 25", coll2.Len())
	}
	if r, ok := coll2.Get("m-03"); !ok || r.MinY != 50 {
		t.Fatalf("recovered m-03 = %v %v, want moved rect", r, ok)
	}
	if _, ok := coll2.Get("m-22"); ok {
		t.Fatal("recovered a deleted key")
	}
	if err := coll2.Validate(); err != nil {
		t.Fatal(err)
	}
}
