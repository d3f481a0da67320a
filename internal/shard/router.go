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
// (here a space-filling curve with a workload-adaptive cell→shard map,
// elsewhere a learned model) as long as the query layer is
// answer-preserving.
package shard

import (
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/sfc"
)

// DefaultGridBits is the default router resolution: 2^6 = 64 cells per
// side, 4096 cells — far more cells than any plausible shard count, so
// the assignment of Z-ordered cells to shards stays balanced even under
// heavily clustered data, and cell migration moves small slices of the
// key space at a time.
const DefaultGridBits = 6

// maxGridBits caps the router resolution: the cell→shard assignment,
// heat counters and bounds summaries are all dense tables of
// 2^(2·GridBits) entries, so 8 bits per side (65536 cells) is the
// largest resolution that keeps those tables trivially cheap.
const maxGridBits = 8

// Router maps rectangles to shard indexes. It quantizes the rectangle's
// center point onto a 2^GridBits × 2^GridBits grid over World, orders
// the cells along the Z-order (Morton) curve, and looks the cell up in a
// dynamic cell→shard table. The table starts as contiguous equal Z-runs
// (cell z goes to shard z·n/cells), so each shard initially owns a
// compact region of space — the property that makes per-shard bounds
// tight enough to prune — and cell migration (ShardedTree.MigrateCell)
// retargets individual cells as the observed workload shifts. Points on
// or outside the World boundary clamp into the outermost cells
// (sfc.Quantize), so routing is total: every rectangle — zero-area,
// boundary-straddling, or entirely outside the grid — routes to exactly
// one shard, deterministically.
//
// Routing only decides where an object is stored; queries probe every
// shard whose bounds intersect the query, so a poorly balanced router
// costs throughput, never answers.
//
// Router is a value type whose assignment table is a shared slice:
// copies made by ShardedTree.Router() observe later migrations. Entries
// are atomics so routing reads race-free against migration writes; the
// ShardedTree additionally orders whole operations against migration
// with its route lock.
type Router struct {
	world    geom.Rect
	gridBits uint
	shards   int
	assign   []atomic.Int32
}

// NewRouter returns a router over the given world for n shards with the
// default contiguous Z-run assignment. gridBits must be in
// [1, maxGridBits]; n must be >= 1.
func NewRouter(world geom.Rect, gridBits, n int) Router {
	rt := newRouterEmpty(world, gridBits, n)
	cells := rt.Cells()
	for c := 0; c < cells; c++ {
		rt.assign[c].Store(int32(c * n / cells))
	}
	return rt
}

// newRouterAssigned returns a router with an explicit assignment table,
// as restored from a snapshot. Entries must be in [0, n).
func newRouterAssigned(world geom.Rect, gridBits, n int, assign []int32) Router {
	rt := newRouterEmpty(world, gridBits, n)
	for c := range rt.assign {
		rt.assign[c].Store(assign[c])
	}
	return rt
}

func newRouterEmpty(world geom.Rect, gridBits, n int) Router {
	rt := Router{world: world, gridBits: uint(gridBits), shards: n}
	rt.assign = make([]atomic.Int32, rt.Cells())
	return rt
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

// CellShard returns the shard currently assigned to cell c.
func (rt Router) CellShard(c int) int {
	if rt.shards <= 1 {
		return 0
	}
	return int(rt.assign[c].Load())
}

// Shard returns the shard index for an object with bounding rectangle r.
func (rt Router) Shard(r geom.Rect) int {
	if rt.shards <= 1 {
		return 0
	}
	return rt.CellShard(rt.Cell(r))
}

// setCellShard retargets cell c. Only ShardedTree.migrateCellLocked may
// call this, under the exclusive route lock.
func (rt Router) setCellShard(c, shard int) {
	rt.assign[c].Store(int32(shard))
}
