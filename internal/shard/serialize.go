package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// wireSharded is the gob wire form of a ShardedTree: the routing
// parameters plus each shard's own rtree gob encoding, kept as opaque
// byte blocks so each shard's block is exactly rtree.(*Tree).Encode's
// format.
//
// The router is a pure function of (GridBits, World, shard count), so
// those three are all the routing state a snapshot needs. The cell/shard
// bounds summaries travel with the trees: they must be in the snapshot
// rather than be rebuilt tight from the trees, because they are
// maintained incrementally and may be loose after deletes, and the
// round-trip tests pin query *stats* identity between an index and its
// restored copy — identical pruning decisions require identical bounds.
type wireSharded struct {
	Version  int
	GridBits int
	World    geom.Rect
	Shards   [][]byte

	CellRects  []geom.Rect // cell → bounds cover ({} when empty)
	CellCounts []int64     // cell → live object count
	ShardRects []geom.Rect // shard → aggregate bounds cover ({} when empty)
}

const wireVersion = 2

// EncodeSnapshot writes the sharded tree to w. Each shard's published
// epoch is cloned (pinned only for the arena copy) and encoded outside
// it, so encoding never blocks writers for longer than one clone; shards
// are captured one at a time (see the consistency note on ShardedTree).
// Payload values must be gob-encodable, with non-basic concrete types
// registered by the caller, as for rtree.(*Tree).Encode.
func (s *ShardedTree) EncodeSnapshot(w io.Writer) error {
	return s.PrepareSnapshot()(w)
}

// PrepareSnapshot clones every shard's published epoch *now*, together
// with the bounds tables, and returns an encoder over the private
// captures to run later: the serving layer captures the clones and the
// WAL's last LSN at one consistent instant, then encodes outside all
// locks.
func (s *ShardedTree) PrepareSnapshot() func(w io.Writer) error {
	clones := make([]*rtree.Tree, len(s.shards))
	for i, sh := range s.shards {
		clones[i] = sh.Snapshot()
	}
	cells := s.router.Cells()
	cellRects := make([]geom.Rect, cells)
	cellCounts := make([]int64, cells)
	for c := 0; c < cells; c++ {
		mu := &s.bounds.cellMu[c%cellStripes]
		mu.Lock()
		cellRects[c] = s.bounds.cells[c].rect
		cellCounts[c] = s.bounds.cells[c].count
		mu.Unlock()
	}
	shardRects := make([]geom.Rect, len(s.shards))
	for i := range s.shards {
		shardRects[i] = s.bounds.shard(i).rect
	}
	return func(w io.Writer) error {
		wt := wireSharded{
			Version:    wireVersion,
			GridBits:   s.opts.GridBits,
			World:      s.opts.World,
			Shards:     make([][]byte, len(clones)),
			CellRects:  cellRects,
			CellCounts: cellCounts,
			ShardRects: shardRects,
		}
		for i, t := range clones {
			var buf bytes.Buffer
			if err := t.Encode(&buf); err != nil {
				return fmt.Errorf("shard: encode shard %d: %w", i, err)
			}
			wt.Shards[i] = buf.Bytes()
		}
		if err := gob.NewEncoder(w).Encode(wt); err != nil {
			return fmt.Errorf("shard: encode: %w", err)
		}
		return nil
	}
}

// Decode reads a sharded tree previously written by EncodeSnapshot. The
// shard count, grid resolution and world frame come from the snapshot —
// they determine where every stored object lives, so restoring with a
// different routing configuration would break Delete. The serialized
// bounds are restored unioned with covers rebuilt from the trees, so a
// snapshot captured under concurrent writers still yields conservative
// bounds. Every restored shard is validated (rtree.Decode runs the
// invariant checker) and every restored object is checked to route to
// the shard that holds it — which is also what refuses a payload from a
// build with cell migration whose objects sit off the fixed router.
// opts.Tree supplies the insertion strategies for future writes, exactly
// like rtree.Decode; its Shards/GridBits/World fields are ignored.
func Decode(r io.Reader, opts Options) (*ShardedTree, error) {
	var wt wireSharded
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("shard: decode: %w", err)
	}
	if wt.Version != wireVersion {
		return nil, fmt.Errorf("shard: unsupported wire version %d", wt.Version)
	}
	if len(wt.Shards) < 1 {
		return nil, fmt.Errorf("shard: snapshot holds no shards")
	}
	opts.Shards = len(wt.Shards)
	opts.GridBits = wt.GridBits
	opts.World = wt.World
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	cells := s.router.Cells()
	if len(wt.CellRects) != cells || len(wt.CellCounts) != cells || len(wt.ShardRects) != opts.Shards {
		return nil, fmt.Errorf("shard: snapshot cell tables malformed")
	}
	walked := make([]cellBounds, cells)
	for i, blob := range wt.Shards {
		t, err := rtree.Decode(bytes.NewReader(blob), opts.Tree)
		if err != nil {
			return nil, fmt.Errorf("shard: decode shard %d: %w", i, err)
		}
		var routeErr error
		forEachLeafEntry(t, func(r geom.Rect, d any) {
			if routeErr != nil {
				return
			}
			c := s.router.Cell(r)
			if got := s.router.CellShard(c); got != i {
				routeErr = fmt.Errorf("shard: snapshot object %v (%v) stored in shard %d routes to shard %d", d, r, i, got)
				return
			}
			cb := &walked[c]
			if cb.count == 0 {
				cb.rect = r
			} else {
				cb.rect = cb.rect.Union(r)
			}
			cb.count++
		})
		if routeErr != nil {
			return nil, routeErr
		}
		s.shards[i] = rtree.NewConcurrent(t)
	}
	for c := range walked {
		cb := walked[c]
		if cb.count > 0 && wt.CellCounts[c] > 0 {
			cb.rect = wt.CellRects[c].Union(cb.rect)
		}
		s.bounds.cells[c] = cb
	}
	for i := range s.shards {
		s.bounds.recompute(i, &s.router)
		if b := s.bounds.shard(i); b.count > 0 {
			s.bounds.agg[i].Store(&shardBounds{count: b.count, rect: b.rect.Union(wt.ShardRects[i])})
		}
	}
	return s, nil
}

// forEachLeafEntry streams every stored (rect, data) pair of t.
func forEachLeafEntry(t *rtree.Tree, fn func(geom.Rect, any)) {
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		for j, e := range n.Entries() {
			if n.IsLeaf() {
				fn(e.Rect, e.Data)
				continue
			}
			walk(n.ChildAt(j))
		}
	}
	walk(t.Root())
}
