package rtree

import (
	"io"
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
// retired arena up by replaying the same operation once its readers
// drain. The cost is 2x arena memory and each mutation applied twice —
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

// mutate is the single writer path: it applies op to the write arena,
// publishes that arena as the new epoch, and replays op onto the retired
// arena (after its readers drain) so both sides stay identical. op runs
// exactly twice, once per arena, and must make the same structural
// change to each — true for any deterministic function of the tree,
// which both arenas are byte-identical instances of on entry.
func (c *ConcurrentTree) mutate(op func(*Tree)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.write
	if cur := c.cur.Load(); cur.tree == w {
		// First mutation since construction: the published epoch still
		// wraps the original arena, which must stay frozen for its
		// readers. Split off a private copy to write to.
		w = cur.tree.Clone()
	}
	op(w)
	old := c.cur.Swap(&epoch{tree: w}) // publish: readers switch here
	old.drain()                        // wait out readers pinned pre-swap
	op(old.tree)                       // catch the retired arena up
	c.write = old.tree
	if c.write.size != w.size || c.write.height != w.height {
		panic("rtree: concurrent mutation diverged between arenas (non-deterministic op?)")
	}
}

// Insert adds an object, serialized with other mutations; concurrent
// readers keep querying the previous epoch until the insert publishes.
func (c *ConcurrentTree) Insert(r geom.Rect, data any) {
	c.mutate(func(t *Tree) { t.Insert(r, data) })
}

// InsertBatch adds len(rects) objects as one atomic mutation — queries
// observe none or all of the batch — publishing a single epoch for the
// whole batch, the bulk ingest path of a serving workload. rects and
// data must have equal length; data[i] is stored under rects[i].
func (c *ConcurrentTree) InsertBatch(rects []geom.Rect, data []any) {
	if len(rects) != len(data) {
		panic("rtree: InsertBatch length mismatch")
	}
	c.mutate(func(t *Tree) {
		for i, r := range rects {
			t.Insert(r, data[i])
		}
	})
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

// PrepareSnapshot is the serving layer's snapshot hook, shared with
// shard.ShardedTree: it clones the current epoch *now* (pinning it only
// for the arena copy) and returns a gob encoder over the private clone
// to run later, so serialization I/O never blocks writers or pins an
// epoch. The serving layer captures the tree state and the WAL's last
// LSN at one consistent instant (under its snapshot lock) and keeps the
// encoding I/O outside every lock. Because a mutation only returns after
// publishing its epoch, the captured epoch reflects every acknowledged
// write — the WAL consistency argument of internal/server is unchanged.
func (c *ConcurrentTree) PrepareSnapshot() func(io.Writer) error {
	return c.Snapshot().Encode
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
