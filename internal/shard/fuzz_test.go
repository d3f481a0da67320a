package shard

import (
	"math"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// FuzzShardRouter feeds adversarial rectangles — zero-area points,
// cell-boundary straddlers, rects far outside the router grid, huge and
// tiny extents — through the route→insert→search→delete round trip. The
// properties: routing is total and in-range, stable (the same rect
// routes identically every time, which Delete depends on), a center
// outside the world routes like its clamp onto the world's edge, a
// routed insert is findable by a fan-out query, and the routed delete
// removes it again. The seed corpus under testdata/fuzz covers each
// adversarial family; `go test -fuzz=FuzzShardRouter ./internal/shard`
// explores on from there.
func FuzzShardRouter(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 1)                         // zero-area at the origin corner
	f.Add(0.5, 0.5, 0.5, 0.5, 4)                         // zero-area grid-center point
	f.Add(0.49999, 0.49999, 0.50001, 0.50001, 4)         // straddles the central cell corner
	f.Add(-3.0, -3.0, 5.0, 5.0, 7)                       // covers the whole grid and beyond
	f.Add(12.0, -44.0, 13.0, -43.0, 3)                   // entirely outside the grid
	f.Add(0.0, 0.0, 1.0, 1.0, 16)                        // the world rect itself
	f.Add(1.0, 1.0, 1.0, 1.0, 2)                         // the far corner, on-boundary
	f.Add(0.015625, 0.015625, 0.015625, 0.03125, 5)      // zero-width on a cell edge
	f.Add(math.MaxFloat64, 0.0, math.MaxFloat64, 0.0, 4) // center overflows to +Inf: (Min+Max)/2
	f.Add(0.1, 0.2, 0.3, 0.4, 0)                         // shard count clamped to >= 1 by the harness

	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 float64, shards int) {
		if shards < 1 {
			shards = 1
		}
		if shards > 64 {
			shards = shards%64 + 1
		}
		for _, v := range []float64{x1, y1, x2, y2} {
			if math.IsNaN(v) {
				t.Skip() // NaN rects are rejected by Rect.Valid; not routable input
			}
		}
		r := geom.NewRect(x1, y1, x2, y2)

		s, err := New(Options{Shards: shards, Tree: testTreeOpts()})
		if err != nil {
			t.Fatal(err)
		}
		router := s.Router()
		si := router.Shard(r)
		if si < 0 || si >= shards {
			t.Fatalf("rect %v routed to shard %d of %d", r, si, shards)
		}
		for i := 0; i < 3; i++ {
			if again := router.Shard(r); again != si {
				t.Fatalf("routing unstable: %d then %d", si, again)
			}
		}
		// An out-of-world center routes like its clamp onto the world's
		// edge: the MaxFloat64 seed's center (+Inf, 0) must route with
		// the corner (1, 0), never wrap to the near edge.
		c := r.Center()
		clamped := geom.Pt(math.Min(math.Max(c.X, 0), 1), math.Min(math.Max(c.Y, 0), 1))
		if want := router.Shard(geom.PointRect(clamped)); si != want {
			t.Fatalf("rect %v (center %v) routed to shard %d, its clamp %v to shard %d", r, c, si, clamped, want)
		}

		// Insert → the object lands in the routed shard and a fan-out
		// query over its own rect finds it.
		s.Insert(r, 42)
		if got := s.Shard(si).Len(); got != 1 {
			t.Fatalf("routed shard holds %d objects, want 1", got)
		}
		found := false
		s.SearchEach(r, func(_ geom.Rect, d any) { found = found || d == 42 })
		if !found {
			t.Fatalf("inserted rect %v not found by its own range query", r)
		}
		if got, _ := s.KNN(r.Center(), 1); len(got) != 1 || got[0].Data != 42 {
			t.Fatalf("KNN at center of the only object returned %v", got)
		}

		// Delete routes back to the same shard and removes it.
		if !s.Delete(r, 42) {
			t.Fatalf("routed delete missed rect %v (shard %d)", r, si)
		}
		if s.Len() != 0 {
			t.Fatalf("tree not empty after delete: %d", s.Len())
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
