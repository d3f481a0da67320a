package rtree

import (
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// ConcurrentTree makes a Tree safe for use from multiple goroutines with
// a lock-free read path: queries load the current published epoch (an
// immutable snapshot of the tree) through an atomic pointer and run the
// zero-alloc kernels on it with no mutex — readers never block writers
// and writers never block readers. Mutations serialize through a plain
// mutex and maintain two arenas left-right style (see epoch.go): apply
// to the private write arena, publish it atomically, then catch the
// retired arena up once its readers drain — a single operation by
// replaying it, a batch (Apply) by copying the published arena. The
// cost is 2x arena memory and each single mutation applied twice —
// microseconds against the lock handoff it deletes from every query.
//
// Mutation closures (Update) therefore run once per arena and must be
// deterministic, mutate only through the passed tree, and be free of
// side effects outside it. The zero value is not usable; construct with
// NewConcurrent.
type ConcurrentTree struct {
	mu    sync.Mutex            // serializes writers
	write *Tree                 // private write arena (== published tree until first write)
	cur   atomic.Pointer[epoch] // published immutable epoch, loaded lock-free by readers
}

// NewConcurrent wraps t. The caller must stop using t directly. The
// second arena is created lazily on the first mutation (clone-on-first-
// write), so read-only uses — a restored snapshot that is only queried —
// never pay the 2x memory.
func NewConcurrent(t *Tree) *ConcurrentTree {
	c := &ConcurrentTree{write: t}
	c.cur.Store(&epoch{tree: t})
	return c
}

// Op is one mutation of a batch: insert Data at Rect, or, with Delete
// set, remove the object stored under exactly (Rect, Data) — a no-op
// when there is none.
type Op struct {
	Rect   geom.Rect
	Data   any
	Delete bool
}

// InsertOps returns the batch inserting data[i] at rects[i], in order.
// rects and data must have equal length.
func InsertOps(rects []geom.Rect, data []any) []Op {
	if len(rects) != len(data) {
		panic("rtree: InsertBatch length mismatch")
	}
	ops := make([]Op, len(rects))
	for i, r := range rects {
		ops[i] = Op{Rect: r, Data: data[i]}
	}
	return ops
}

// Apply runs ops in order, exactly as the same sequence of Insert and
// Delete calls would, and returns how many Delete ops removed an object.
func (t *Tree) Apply(ops []Op) (removed int) {
	for _, op := range ops {
		if !op.Delete {
			t.Insert(op.Rect, op.Data)
		} else if t.Delete(op.Rect, op.Data) {
			removed++
		}
	}
	return removed
}

// writeArena returns the private write arena. On the first mutation
// since construction the published epoch still wraps the original
// arena, which must stay frozen for its readers, so a private copy is
// split off to write to. The caller holds c.mu.
func (c *ConcurrentTree) writeArena() *Tree {
	if cur := c.cur.Load(); cur.tree == c.write {
		return cur.tree.Clone()
	}
	return c.write
}

// publish makes w the published epoch, waits out the readers pinned on
// the epoch it replaces, and returns that epoch's arena — private to
// the writer from then on, one batch behind w. The caller holds c.mu.
func (c *ConcurrentTree) publish(w *Tree) *Tree {
	old := c.cur.Swap(&epoch{tree: w}) // readers switch here
	old.drain()
	return old.tree
}

// mutate is the single-operation writer path: it applies op to the write
// arena, publishes that arena as the new epoch, and replays op onto the
// retired arena (after its readers drain) so both sides stay identical.
// op runs exactly twice, once per arena, and must make the same
// structural change to each — true for any deterministic function of
// the tree, which both arenas are byte-identical instances of on entry.
func (c *ConcurrentTree) mutate(op func(*Tree)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writeArena()
	op(w)
	old := c.publish(w)
	op(old) // catch the retired arena up
	c.write = old
	if old.size != w.size || old.height != w.height {
		panic("rtree: concurrent mutation diverged between arenas (non-deterministic op?)")
	}
}

// Apply runs ops in order as one atomic mutation — queries observe none
// or all of the batch — publishing a single epoch. The ops run once: the
// retired arena catches up by an arena copy (three slice copies and a
// rebase, O(tree)) instead of re-running them, so a batch of at least a
// few ops per stored object costs one application plus one copy where
// single-op mutations cost two applications. It returns how many Delete
// ops removed an object.
func (c *ConcurrentTree) Apply(ops []Op) (removed int) {
	if len(ops) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writeArena()
	removed = w.Apply(ops)
	old := c.publish(w)
	old.SyncFrom(w)
	c.write = old
	return removed
}

// Insert adds an object, serialized with other mutations; concurrent
// readers keep querying the previous epoch until the insert publishes.
func (c *ConcurrentTree) Insert(r geom.Rect, data any) {
	c.mutate(func(t *Tree) { t.Insert(r, data) })
}

// InsertBatch adds len(rects) objects as one Apply: queries observe none
// or all of the batch. rects and data must have equal length; data[i] is
// stored under rects[i].
func (c *ConcurrentTree) InsertBatch(rects []geom.Rect, data []any) {
	c.Apply(InsertOps(rects, data))
}

// Delete removes an object, serialized with other mutations.
func (c *ConcurrentTree) Delete(r geom.Rect, data any) bool {
	var ok bool
	// Both arenas are identical, so the second application returns the
	// same result and the plain overwrite is safe.
	c.mutate(func(t *Tree) { ok = t.Delete(r, data) })
	return ok
}

// Search runs a range query on the current epoch, lock-free.
func (c *ConcurrentTree) Search(q geom.Rect) ([]any, QueryStats) {
	e := c.pin()
	defer e.unpin()
	return e.tree.Search(q)
}

// SearchAppend appends matches to dst, querying the current epoch
// lock-free; with a caller-reused dst the query allocates nothing.
func (c *ConcurrentTree) SearchAppend(q geom.Rect, dst []any) ([]any, QueryStats) {
	e := c.pin()
	defer e.unpin()
	return e.tree.SearchAppend(q, dst)
}

// SearchCount counts matches on the current epoch, lock-free.
func (c *ConcurrentTree) SearchCount(q geom.Rect) QueryStats {
	e := c.pin()
	defer e.unpin()
	return e.tree.SearchCount(q)
}

// SearchEach streams matches to fn from the current epoch, lock-free.
// fn must not call mutating methods of c (the epoch is pinned, and a
// mutation would deadlock waiting for it to drain) and must not block:
// a pinned epoch stalls the next writer's arena reclamation.
func (c *ConcurrentTree) SearchEach(q geom.Rect, fn func(geom.Rect, any)) QueryStats {
	e := c.pin()
	defer e.unpin()
	return e.tree.SearchEach(q, fn)
}

// ContainsPoint reports point containment on the current epoch, lock-free.
func (c *ConcurrentTree) ContainsPoint(p geom.Point) (bool, QueryStats) {
	e := c.pin()
	defer e.unpin()
	return e.tree.ContainsPoint(p)
}

// KNN runs a nearest-neighbor query on the current epoch, lock-free.
func (c *ConcurrentTree) KNN(p geom.Point, k int) ([]Neighbor, QueryStats) {
	e := c.pin()
	defer e.unpin()
	return e.tree.KNN(p, k)
}

// KNNAppend appends the k nearest neighbors to dst, querying the current
// epoch lock-free; with a caller-reused dst the query allocates nothing.
func (c *ConcurrentTree) KNNAppend(p geom.Point, k int, dst []Neighbor) ([]Neighbor, QueryStats) {
	e := c.pin()
	defer e.unpin()
	return e.tree.KNNAppend(p, k, dst)
}

// Len returns the object count of the current epoch, lock-free.
func (c *ConcurrentTree) Len() int {
	e := c.pin()
	defer e.unpin()
	return e.tree.Len()
}

// Bounds returns the root MBR of the current epoch's tree — the minimal
// rectangle covering every stored object — and whether the tree is
// non-empty. Shard-level pruning uses it as the coarse per-shard bound.
func (c *ConcurrentTree) Bounds() (geom.Rect, bool) {
	e := c.pin()
	defer e.unpin()
	return e.tree.Bounds()
}

// Snapshot returns a deep copy of the current epoch's tree. The copy is
// private to the caller: long analytical scans can run on it without
// stalling anyone. The epoch stays pinned only for the duration of the
// arena copy (three array memcpys), not the caller's scan.
func (c *ConcurrentTree) Snapshot() *Tree {
	e := c.pin()
	defer e.unpin()
	return e.tree.Clone()
}

// Stats computes the tree's structural statistics on the current epoch,
// lock-free.
func (c *ConcurrentTree) Stats() TreeStats {
	e := c.pin()
	defer e.unpin()
	return e.tree.Stats()
}

// Validate runs the full invariant checker on the current epoch.
func (c *ConcurrentTree) Validate() error {
	e := c.pin()
	defer e.unpin()
	return e.tree.Validate()
}

// Update applies fn to the tree, for compound operations (move =
// delete + insert) that must be atomic with respect to queries: readers
// observe the pre-update or post-update epoch, never an intermediate
// state. fn runs once per arena (twice total) and must be deterministic,
// mutate only through its argument, and have no side effects outside it
// — a fn that, say, appends to a captured slice would do so twice.
func (c *ConcurrentTree) Update(fn func(t *Tree)) {
	c.mutate(fn)
}

// View applies fn to the current epoch's tree, for read-only compound
// operations (structural statistics, serialization) that need a
// consistent view but no private copy. The tree fn observes is frozen
// for the duration of the call. fn must not mutate the tree, must not
// call mutating methods of c (deadlock: the pinned epoch cannot drain),
// must not retain references past the call (the arena is recycled for
// future writes), and should return promptly — a pinned epoch stalls
// writers' arena reclamation.
func (c *ConcurrentTree) View(fn func(t *Tree)) {
	e := c.pin()
	defer e.unpin()
	fn(e.tree)
}
