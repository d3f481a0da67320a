package rtree

import (
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the publication substrate of ConcurrentTree's lock-free
// read path. A ConcurrentTree owns two arenas (left-right concurrency):
// the *published* one, wrapped in an immutable epoch that readers load
// through an atomic pointer, and the *write* one, a private Tree that
// only the (mutex-serialized) writers touch. A mutation applies itself
// to the write arena, publishes it as the new epoch with one atomic
// swap, waits for the readers still pinned on the previous epoch to
// drain, and then catches the retired arena up — which becomes the next
// write arena. A single operation is replayed onto it: both arenas see
// the exact same insert/delete sequence, and because the arena makes
// tree structure a deterministic function of that sequence (DESIGN.md
// §9), they stay byte-identical under the canonical v2 encoding. A
// batch (Apply) is copied instead, which is byte-identical by
// construction and costs O(tree) rather than the batch a second time.
//
// Readers never take a lock: pinning is one atomic load plus a
// reference-count increment, re-validated against the published pointer
// to close the load/claim race (the standard hazard-style handshake —
// see pin below). The queries themselves are the existing zero-alloc
// kernels running on the pinned, frozen arena.

// epoch is one published, immutable version of a ConcurrentTree. The
// wrapped tree must not be mutated while the epoch is reachable from
// ConcurrentTree.cur or pinned by a reader; once it is replaced and its
// readers drain, the writer recycles the arena as the next write side.
type epoch struct {
	tree    *Tree
	readers atomic.Int64 // readers currently pinned on this epoch
}

// pin claims the current epoch for reading. The increment-then-revalidate
// loop closes the race with a concurrent publish: if the load and the
// increment straddle a pointer swap, the re-load observes the new pointer
// (atomics are sequentially consistent), the claim is rolled back and the
// reader retries on the fresh epoch. Conversely, if the re-load still
// sees e, the swap had not happened at increment time, so the writer's
// drain is guaranteed to observe this reader's count. No mutex, no
// allocation.
func (c *ConcurrentTree) pin() *epoch {
	for {
		e := c.cur.Load()
		e.readers.Add(1)
		if c.cur.Load() == e {
			return e
		}
		e.readers.Add(-1)
	}
}

// unpin releases a claim taken by pin.
func (e *epoch) unpin() {
	e.readers.Add(-1)
}

// drain blocks until every reader pinned on e has unpinned. Called by
// the writer (holding c.mu) after e was replaced as the published epoch,
// so no new reader can pin it — the count only falls. Reader critical
// sections are single queries (microseconds) or a snapshot capture
// (one arena memcpy), so the writer spins briefly and then backs off to
// short sleeps instead of burning a core.
func (e *epoch) drain() {
	for i := 0; e.readers.Load() != 0; i++ {
		if i < 128 {
			runtime.Gosched()
			continue
		}
		time.Sleep(10 * time.Microsecond)
	}
}
