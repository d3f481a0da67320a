package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// newShardedTestServer boots a server over an empty 4-shard index.
func newShardedTestServer(t *testing.T, snapshotPath string) (*Server, *httptest.Server, *shard.ShardedTree) {
	t.Helper()
	st, err := shard.New(shard.Options{
		Shards: 4,
		Tree:   rtree.Options{MaxEntries: 16, MinEntries: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Index:        st,
		IndexName:    "rtree[4 shards]",
		SnapshotPath: snapshotPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, st
}

func TestConfigRequiresAnIndex(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("Config without an Index accepted")
	}
}

// TestShardedServerLifecycle runs the serving loop over a ShardedTree:
// set, query, per-shard /stats breakdown, snapshot, restart from it,
// identical query results.
func TestShardedServerLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sharded.snap")
	s, ts, st := newShardedTestServer(t, snap)

	rng := rand.New(rand.NewSource(11))
	const n = 3000
	for i := 0; i < n; i++ {
		setKey(t, ts.URL, fmt.Sprintf("obj-%04d", i), geom.Square(rng.Float64(), rng.Float64(), 0.01))
	}

	// /stats aggregates across shards and carries the per-shard breakdown.
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Tree.Size != n {
		t.Fatalf("aggregate size %d, want %d", stats.Tree.Size, n)
	}
	if len(stats.Shards) != st.NumShards() {
		t.Fatalf("%d shard stats entries, want %d", len(stats.Shards), st.NumShards())
	}
	perShardSum := 0
	for i, sh := range stats.Shards {
		if sh.Size == 0 {
			t.Errorf("shard %d reports no objects (uniform data should populate all)", i)
		}
		perShardSum += sh.Size
	}
	if perShardSum != n {
		t.Fatalf("per-shard sizes sum to %d, want %d", perShardSum, n)
	}

	// A del routed through the server really lands.
	if del := delKey(t, ts.URL, "obj-0000"); !del.Deleted || del.Size != n-1 {
		t.Fatalf("del: %+v", del)
	}

	// Reference query results, then snapshot + shutdown.
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.Square(rng.Float64(), rng.Float64(), 0.06)
	}
	collect := func(base string) [][]string {
		out := make([][]string, 0, 2*len(queries))
		for _, q := range queries {
			var kr pagedWire
			getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=9", base, q.MinX, q.MinY), &kr)
			out = append(out, searchKeys(t, base, q), kr.Keys)
		}
		return out
	}
	want := collect(ts.URL)
	resp := postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The shard count comes from the file...
	restored, _, err := LoadSnapshot(snap, rtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != n-1 || restored.NumShards() != st.NumShards() {
		t.Fatalf("restored %d objects over %d shards, want %d over %d",
			restored.Len(), restored.NumShards(), n-1, st.NumShards())
	}

	// ...and the restored server answers every query identically.
	coll, err := collection.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Index: restored, Collection: coll, IndexName: "rtree[4 shards]"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := collect(ts2.URL)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("result set %d: %d keys after restore, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("result set %d key %d: %q != %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}
