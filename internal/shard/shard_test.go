package shard

import (
	"math/rand"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(Options{GridBits: 99}); err == nil {
		t.Error("oversized GridBits accepted")
	}
	if _, err := New(Options{World: geom.NewRect(0, 0, 0, 5)}); err == nil {
		t.Error("degenerate world accepted")
	}
	if _, err := New(Options{Tree: rtree.Options{MaxEntries: 2}}); err == nil {
		t.Error("invalid per-shard tree options accepted")
	}
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 {
		t.Errorf("default shard count %d, want 1", s.NumShards())
	}
}

func TestRouterCoversAllShards(t *testing.T) {
	// Uniform data must populate every shard for any modest shard count —
	// the contiguous Z-run split's balance property.
	data := dataset.MustGenerate(dataset.UNI, 4000, 2)
	for _, n := range []int{2, 3, 4, 8, 16} {
		r := NewRouter(geom.NewRect(0, 0, 1, 1), DefaultGridBits, n)
		counts := make([]int, n)
		for _, obj := range data {
			counts[r.Shard(obj)]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Errorf("%d shards: shard %d received no objects", n, i)
			}
			// No shard should exceed 3x its fair share on uniform data.
			if c > 3*len(data)/n {
				t.Errorf("%d shards: shard %d holds %d of %d objects", n, i, c, len(data))
			}
		}
	}
}

// TestRouterIsPure pins the router as a pure function of (world, grid
// bits, shards): cell c goes to shard c·n/cells, two routers built from
// the same arguments agree on every rectangle, and each shard owns one
// contiguous run of the Z-order curve.
func TestRouterIsPure(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		a := NewRouter(world, DefaultGridBits, n)
		b := NewRouter(world, DefaultGridBits, n)
		cells := a.Cells()
		prev := 0
		for c := 0; c < cells; c++ {
			got := a.CellShard(c)
			if want := c * n / cells; got != want {
				t.Fatalf("%d shards: cell %d on shard %d, want %d", n, c, got, want)
			}
			if got != prev && got != prev+1 {
				t.Fatalf("%d shards: cell %d on shard %d after shard %d — not one Z-run per shard", n, c, got, prev)
			}
			prev = got
		}
		if prev != n-1 {
			t.Fatalf("%d shards: the last cell is on shard %d, want %d", n, prev, n-1)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 2000; i++ {
			r := geom.Square(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1, rng.Float64()*0.05)
			if a.Cell(r) != b.Cell(r) || a.Shard(r) != b.Shard(r) {
				t.Fatalf("%d shards: routers disagree on %v: cell %d/%d, shard %d/%d",
					n, r, a.Cell(r), b.Cell(r), a.Shard(r), b.Shard(r))
			}
			if got, want := a.Shard(r), a.CellShard(a.Cell(r)); got != want {
				t.Fatalf("%d shards: Shard(%v) = %d, CellShard(Cell) = %d", n, r, got, want)
			}
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	s := newTestSharded(t, 4)
	data := dataset.MustGenerate(dataset.UNI, 2000, 13)
	for i, r := range data {
		s.Insert(r, i)
	}
	agg := s.Stats()
	per := s.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	var size, nodes, leaves int
	var mem int64
	maxHeight := 0
	for _, st := range per {
		size += st.Size
		nodes += st.Nodes
		leaves += st.Leaves
		mem += st.MemoryBytes
		if st.Height > maxHeight {
			maxHeight = st.Height
		}
	}
	if agg.Size != size || agg.Size != 2000 {
		t.Errorf("aggregate size %d, per-shard sum %d, want 2000", agg.Size, size)
	}
	if agg.Nodes != nodes || agg.Leaves != leaves || agg.MemoryBytes != mem {
		t.Errorf("aggregate nodes/leaves/mem %d/%d/%d, sums %d/%d/%d",
			agg.Nodes, agg.Leaves, agg.MemoryBytes, nodes, leaves, mem)
	}
	if agg.Height != maxHeight {
		t.Errorf("aggregate height %d, max shard height %d", agg.Height, maxHeight)
	}
	if agg.AvgFill <= 0 || agg.AvgFill > 1 {
		t.Errorf("aggregate AvgFill %g out of range", agg.AvgFill)
	}
}

func TestSingleShardDegeneratesToConcurrentTree(t *testing.T) {
	// Shards=1 must behave exactly like one ConcurrentTree (it routes
	// everything to shard 0 without grouping overhead).
	s := newTestSharded(t, 1)
	c := rtree.NewConcurrent(rtree.New(testTreeOpts()))
	data := dataset.MustGenerate(dataset.SKE, 1500, 4)
	for i, r := range data {
		s.Insert(r, i)
		c.Insert(r, i)
	}
	q := geom.NewRect(0.2, 0.2, 0.8, 0.8)
	gotRes, gotStats := s.Search(q)
	wantRes, wantStats := c.Search(q)
	if len(gotRes) != len(wantRes) || gotStats != wantStats {
		t.Fatalf("single-shard search diverges: %d/%+v vs %d/%+v",
			len(gotRes), gotStats, len(wantRes), wantStats)
	}
}
