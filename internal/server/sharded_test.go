package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

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
		t.Fatal("Config with neither Tree nor Index accepted")
	}
}

// TestShardedServerLifecycle runs the serving loop over a ShardedTree:
// insert, query, per-shard /stats breakdown, snapshot, restart from it,
// identical query results.
func TestShardedServerLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sharded.gob")
	s, ts, st := newShardedTestServer(t, snap)

	rng := rand.New(rand.NewSource(11))
	const n = 3000
	items := make([]map[string]any, n)
	for i := range items {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		items[i] = map[string]any{"id": fmt.Sprintf("obj-%04d", i), "rect": rectSlice(r)}
	}
	var ins insertResponse
	resp := postJSON(t, ts.URL+"/insert", map[string]any{"items": items}, &ins)
	if resp.StatusCode != http.StatusOK || ins.Inserted != n || ins.Size != n {
		t.Fatalf("batch insert: %d %+v", resp.StatusCode, ins)
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

	// A delete routed through the server really lands.
	var del deleteResponse
	postJSON(t, ts.URL+"/delete", items[0], &del)
	if !del.Deleted || del.Size != n-1 {
		t.Fatalf("delete: %+v", del)
	}

	// Reference query results, then snapshot + shutdown.
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.Square(rng.Float64(), rng.Float64(), 0.06)
	}
	collect := func(base string) [][]string {
		out := make([][]string, 0, 2*len(queries))
		for _, q := range queries {
			var sr searchResponse
			getJSON(t, fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", base, q.MinX, q.MinY, q.MaxX, q.MaxY), &sr)
			sort.Strings(sr.IDs)
			var kr knnResponse
			getJSON(t, fmt.Sprintf("%s/knn?point=%g,%g&k=9", base, q.MinX, q.MinY), &kr)
			knn := make([]string, len(kr.Neighbors))
			for j, nb := range kr.Neighbors {
				knn[j] = nb.ID
			}
			out = append(out, sr.IDs, knn)
		}
		return out
	}
	want := collect(ts.URL)
	resp = postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The sharded snapshot restores only when a sharded index is asked
	// for (the shard count itself comes from the file)...
	opts := shard.Options{Tree: rtree.Options{MaxEntries: 16, MinEntries: 6}}
	if _, _, _, err := LoadSnapshot(snap, opts); !errors.Is(err, ErrSnapshotKind) {
		t.Fatalf("single-tree load of a sharded snapshot: err = %v, want ErrSnapshotKind", err)
	}
	opts.Shards = 2
	index, _, _, err := LoadSnapshot(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored := index.(*shard.ShardedTree)
	if restored.Len() != n-1 || restored.NumShards() != st.NumShards() {
		t.Fatalf("restored %d objects over %d shards, want %d over %d",
			restored.Len(), restored.NumShards(), n-1, st.NumShards())
	}

	// ...and the restored server answers every query identically.
	s2, err := New(Config{Index: restored, IndexName: "rtree[4 shards]"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := collect(ts2.URL)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("result set %d: %d ids after restore, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("result set %d id %d: %q != %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}
