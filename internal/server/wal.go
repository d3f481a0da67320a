package server

import (
	"fmt"
	"hash/maphash"
	"sync"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// WAL integration: with a log attached, every mutating endpoint appends
// its operation to the write-ahead log *before* applying it to the
// collection, so an acknowledged write is durable per the log's fsync
// policy and a crash loses nothing the client was told succeeded.
//
// Consistency between mutations and snapshots is enforced by walMu, a
// readers-writer lock with inverted roles: every mutation — with or
// without a log — holds it SHARED for its append+apply critical section
// (mutations still run concurrently with each other — per-shard
// parallelism is untouched), while the snapshot capture holds it
// EXCLUSIVE just long enough to read the last LSN and clone the index.
// With no mutation mid-flight — neither between its append and its
// apply, nor between a keyed move's index delete and index insert — the
// clone and the captured LSN describe one instant: the key map rebuilt
// from the clone validates, and replaying records after that LSN neither
// duplicates nor drops a write. The expensive snapshot encoding runs
// outside the lock (Index.PrepareSnapshot). Epoch publication in each
// shard's rtree.ConcurrentTree preserves this argument unchanged: an
// index mutation returns — and so releases its shared hold on walMu —
// only after publishing the epoch containing it, so the epochs the
// exclusive capture clones reflect every mutation whose append the
// captured LSN covers.
//
// walMu alone does not order two concurrent LOGGED mutations against
// EACH OTHER: writer A could append set(X) at LSN 1, writer B append
// del(X) at LSN 2 yet apply first, and both acknowledgements would
// then contradict a crash replay (which applies in LSN order). Ops on
// distinct keys commute, so only same-key races matter; idMu stripes
// per-key ordering on top of walMu — every logged mutation holds its
// key's stripe across its append+apply pair, making log order equal
// apply order per key while unrelated keys stay fully concurrent.
// Without a log there is no second order to agree with, so unlogged
// mutations skip the stripes (the collection's own key stripe already
// serializes a key's moves).

// idStripes is the size of the per-key ordering lock set.
const idStripes = 64

// idSeed makes the stripe hash stable for the process lifetime.
var idSeed = maphash.MakeSeed()

// keyStripe returns the idMu stripe that orders key's logged mutations.
func (s *Server) keyStripe(key string) *sync.Mutex {
	return &s.idMu[maphash.String(idSeed, key)%idStripes]
}

// appendSet logs the keyed upsert and applies it through the
// collection, under the shared half of the snapshot lock plus the key's
// idMu stripe. Returns an error — without applying — when the log
// rejects the append: a write the WAL cannot make durable must not
// become visible. The logged rect is the NEW position — replaying
// Set(key, rect) is self-contained, so a torn log never leaves half a
// move. Lock order: walMu (shared) → idMu stripe → collection key
// stripe → index locks; the collection takes its stripe strictly inside
// ours and the index locks strictly inside that, so the order is
// acyclic (see DESIGN.md §13).
func (s *Server) appendSet(key string, r geom.Rect) (collection.SetResult, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.WAL != nil {
		mu := s.keyStripe(key)
		mu.Lock()
		defer mu.Unlock()
		if _, err := s.cfg.WAL.AppendSet(r, key); err != nil {
			return collection.SetResult{}, fmt.Errorf("wal append failed, set not applied: %w", err)
		}
	}
	return s.coll.Set(key, r), nil
}

// appendDelKey logs the keyed delete and applies it. The logged rect is
// the key's position at append time (informational — replay deletes by
// key); a del of an absent key logs rect zero and replays as a no-op.
func (s *Server) appendDelKey(key string) (bool, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.WAL != nil {
		mu := s.keyStripe(key)
		mu.Lock()
		defer mu.Unlock()
		rect, _ := s.coll.Get(key)
		if _, err := s.cfg.WAL.AppendDelKey(rect, key); err != nil {
			return false, fmt.Errorf("wal append failed, del not applied: %w", err)
		}
	}
	_, ok := s.coll.Del(key)
	return ok, nil
}

// Recover replays every log record past afterLSN (the LSN the restored
// snapshot covers) into coll, in LSN order. Records route through the
// collection's index dynamically, so a log written by an N-shard server
// restores correctly into an M-shard one; an epoch mismatch is logged
// once as a heads-up, not an error. Build coll with collection.Restore
// over the restored index and pass the same instance to
// Config.Collection. Recover must run before the server
// starts handling requests.
//
// Records are applied in batches through coll.ApplyLog, which leaves
// every tree exactly as record-at-a-time Set and Del calls would. A
// batch holds at most as many records as the collection has held live
// objects at any point of the recovery, counting the restored ones (at
// least one). A tree's arena never shrinks, so it holds about that
// many objects however many have since been deleted: the index's
// arena catch-up copy per batch costs about one object per record in
// each shard the batch touches, and the buffer never outgrows the
// arenas. The returned Duration covers the scan and the apply.
func Recover(w *wal.WAL, afterLSN uint64, coll *collection.Collection, logf func(format string, args ...any)) (wal.ReplayStats, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	epochWarned := false
	var batch []collection.LogOp
	limit := max(1, coll.Len())
	flush := func() error {
		coll.ApplyLog(batch)
		clear(batch)
		batch = batch[:0]
		limit = max(limit, coll.Len())
		return nil
	}
	return w.ReplayBuffered(afterLSN, func(rec wal.Record) error {
		if rec.Epoch != w.Epoch() && !epochWarned {
			logf("wal: record LSN %d has routing epoch %d, server runs epoch %d (records re-route dynamically; this is informational)",
				rec.LSN, rec.Epoch, w.Epoch())
			epochWarned = true
		}
		batch = append(batch, collection.LogOp{Key: rec.Key, Rect: rec.Rect, Del: rec.Type == wal.RecDelKey})
		if len(batch) >= limit {
			return flush()
		}
		return nil
	}, flush)
}

// walStatsPayload is the "wal" section of /stats (and the expvar
// mirror): the log's counters plus its configuration.
type walStatsPayload struct {
	Dir    string `json:"dir"`
	Policy string `json:"fsync_policy"`
	Epoch  uint32 `json:"epoch"`
	wal.Metrics
}
