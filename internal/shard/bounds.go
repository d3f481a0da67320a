package shard

import (
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// cellStripes is the lock striping factor for per-cell bounds updates:
// cell c's record is guarded by cellMu[c%cellStripes].
const cellStripes = 64

// cellBounds summarizes the live objects whose centers fall in one grid
// cell: a rectangle containing every such object and their count. The
// rectangle only grows while the cell is occupied (deletes leave it
// loose — recomputing a tight cover would need a cell scan per delete)
// and resets to empty when the count returns to zero, so delete-heavy
// workloads shed stale coverage at cell granularity.
type cellBounds struct {
	rect  geom.Rect
	count int64
}

// shardBounds is a shard's aggregate summary: a rectangle containing
// every object stored in the shard and the object count. Values are
// immutable once published — readers load the pointer once and get a
// consistent (rect, count) pair without taking any lock.
type shardBounds struct {
	rect  geom.Rect
	count int64
}

var emptyShardBounds = &shardBounds{}

// boundsIndex maintains the pruning metadata for a ShardedTree: one
// cellBounds per router cell and one published shardBounds per shard.
//
// Maintenance discipline (the conservative-cover invariant): on insert
// the cell and shard summaries grow BEFORE the tree mutation publishes,
// so any query that can see the object already sees bounds covering it;
// on delete they shrink AFTER the tree mutation publishes, so bounds
// never exclude an object a query can still see. Bounds may therefore be
// loose (cover objects that are gone) but never unsafe, which is exactly
// what answer-preserving pruning needs.
type boundsIndex struct {
	cellMu [cellStripes]sync.Mutex
	cells  []cellBounds

	aggMu []sync.Mutex // one per shard, serializes aggregate publication
	agg   []atomic.Pointer[shardBounds]
}

func newBoundsIndex(cells, shards int) *boundsIndex {
	b := &boundsIndex{
		cells: make([]cellBounds, cells),
		aggMu: make([]sync.Mutex, shards),
		agg:   make([]atomic.Pointer[shardBounds], shards),
	}
	for i := range b.agg {
		b.agg[i].Store(emptyShardBounds)
	}
	return b
}

// shard returns shard si's current aggregate summary. Lock-free: one
// atomic pointer load.
func (b *boundsIndex) shard(si int) *shardBounds { return b.agg[si].Load() }

// growCell extends cell c's summary to cover r and counts the object.
func (b *boundsIndex) growCell(c int, r geom.Rect) {
	mu := &b.cellMu[c%cellStripes]
	mu.Lock()
	cb := &b.cells[c]
	if cb.count == 0 {
		cb.rect = r
	} else {
		cb.rect = cb.rect.Union(r)
	}
	cb.count++
	mu.Unlock()
}

// shrinkCell uncounts one object from cell c, resetting the summary to
// empty when the cell empties.
func (b *boundsIndex) shrinkCell(c int) {
	mu := &b.cellMu[c%cellStripes]
	mu.Lock()
	cb := &b.cells[c]
	cb.count--
	if cb.count == 0 {
		cb.rect = geom.Rect{}
	} else if cb.count < 0 {
		mu.Unlock()
		panic("shard: cell bounds count underflow")
	}
	mu.Unlock()
}

// growShard extends shard si's aggregate to cover r and adds n objects.
func (b *boundsIndex) growShard(si int, r geom.Rect, n int64) {
	b.aggMu[si].Lock()
	old := b.agg[si].Load()
	nb := &shardBounds{count: old.count + n}
	if old.count == 0 {
		nb.rect = r
	} else {
		nb.rect = old.rect.Union(r)
	}
	b.agg[si].Store(nb)
	b.aggMu[si].Unlock()
}

// shrinkShard uncounts n objects from shard si's aggregate, resetting
// it to empty when the shard empties.
func (b *boundsIndex) shrinkShard(si int, n int64) {
	b.aggMu[si].Lock()
	old := b.agg[si].Load()
	nb := &shardBounds{count: old.count - n, rect: old.rect}
	if nb.count == 0 {
		nb.rect = geom.Rect{}
	} else if nb.count < 0 {
		b.aggMu[si].Unlock()
		panic("shard: shard bounds count underflow")
	}
	b.agg[si].Store(nb)
	b.aggMu[si].Unlock()
}

// recompute rebuilds shard si's aggregate as the exact union of its
// cells' summaries. Only Decode calls it, before the tree is shared, so
// the cell records may be read bare.
func (b *boundsIndex) recompute(si int, rt *Router) {
	nb := &shardBounds{}
	for c := range b.cells {
		cb := &b.cells[c]
		if cb.count == 0 || rt.CellShard(c) != si {
			continue
		}
		if nb.count == 0 {
			nb.rect = cb.rect
		} else {
			nb.rect = nb.rect.Union(cb.rect)
		}
		nb.count += cb.count
	}
	b.agg[si].Store(nb)
}
