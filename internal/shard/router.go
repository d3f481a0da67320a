// Package shard layers space partitioning on top of internal/rtree: a
// ShardedTree routes every object to one of N independent ConcurrentTree
// shards by the Z-order cell of its center point, so concurrent writers
// contend on per-shard writer mutexes instead of one tree-wide mutex
// (reads were already lock-free per shard via epoch publication).
// Queries consult per-shard bounds summaries and probe only the shards
// whose bounds can contribute; because each object lives in exactly one
// shard, the bounds are conservative, and the per-shard query algorithms
// are the unmodified classic R-Tree kernels, the merged answers are
// provably identical to a single tree's — the property the differential
// suite in this package pins down. This mirrors the discipline of
// learned spatial partitioning systems: the partitioner may be arbitrary
// (here a fixed space-filling-curve split, elsewhere a learned model) as
// long as the query layer is answer-preserving.
package shard

import (
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/sfc"
)

// DefaultGridBits is the default router resolution: 2^6 = 64 cells per
// side, 4096 cells — far more cells than any plausible shard count, so
// the n equal Z-runs differ by at most one cell, and the per-cell bounds
// stay fine-grained enough to prune.
const DefaultGridBits = 6

// maxGridBits caps the router resolution: the cell bounds summaries are
// a dense table of 2^(2·GridBits) entries, so 8 bits per side (65536
// cells) is the largest resolution that keeps it trivially cheap.
const maxGridBits = 8

// Router maps rectangles to shard indexes. It quantizes the rectangle's
// center point onto a 2^GridBits × 2^GridBits grid over World, orders
// the cells along the Z-order (Morton) curve, and splits the curve into
// n contiguous equal runs: cell z goes to shard z·n/cells. Each shard
// therefore owns a compact region of space — the property that makes
// per-shard bounds tight enough to prune. Points on or outside the World
// boundary clamp into the outermost cells (sfc.Quantize), so routing is
// total: every rectangle — zero-area, boundary-straddling, or entirely
// outside the grid — routes to exactly one shard, deterministically and
// identically on every platform.
//
// Routing only decides where an object is stored; queries probe every
// shard whose bounds intersect the query, so a poorly balanced router
// costs throughput, never answers.
//
// Router is an immutable value: a pure function of (world, grid bits,
// shard count), so two routers built from the same arguments agree on
// every rectangle, and a snapshot needs only those three to route its
// objects again.
type Router struct {
	world    geom.Rect
	gridBits uint
	shards   int
}

// NewRouter returns a router over the given world for n shards. gridBits
// must be in [1, maxGridBits]; n must be >= 1.
func NewRouter(world geom.Rect, gridBits, n int) Router {
	return Router{world: world, gridBits: uint(gridBits), shards: n}
}

// Shards returns the shard count n; Shard returns values in [0, n).
func (rt Router) Shards() int { return rt.shards }

// Cells returns the number of grid cells, 2^(2·GridBits).
func (rt Router) Cells() int { return 1 << (2 * rt.gridBits) }

// Cell returns the Z-order cell index of r's center, in [0, Cells()).
func (rt Router) Cell(r geom.Rect) int {
	x, y := sfc.Quantize(r.Center(), rt.world)
	shift := sfc.Order - rt.gridBits
	return int(sfc.ZOrderXY2D(x>>shift, y>>shift))
}

// CellShard returns the shard that owns cell c: c·n/Cells().
func (rt Router) CellShard(c int) int {
	return c * rt.shards / rt.Cells()
}

// Shard returns the shard index for an object with bounding rectangle r.
func (rt Router) Shard(r geom.Rect) int {
	if rt.shards <= 1 {
		return 0
	}
	return rt.CellShard(rt.Cell(r))
}
