package server

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// WAL integration: with a log attached, every mutating endpoint appends
// its operation to the write-ahead log *before* applying it to the
// index, so an acknowledged write is durable per the log's fsync policy
// and a crash loses nothing the client was told succeeded.
//
// Consistency between mutations and snapshots is enforced by walMu, a
// readers-writer lock with inverted roles: every mutation — with or
// without a log — holds it SHARED for its append+apply critical section
// (mutations still run concurrently with each other — per-shard
// parallelism is untouched), while the snapshot capture holds it
// EXCLUSIVE just long enough to read the last LSN, copy the key map and
// clone the index. With no mutation mid-flight — neither between its
// append and its apply, nor between a keyed move's index delete, index
// insert and key-map update — the key map, the clone and the captured
// LSN describe one instant: the restored collection validates, and
// replaying records after that LSN neither duplicates nor drops a
// write. The expensive snapshot encoding runs outside the lock
// (Index.PrepareSnapshot). Epoch publication in rtree.ConcurrentTree
// preserves this argument unchanged: an index mutation returns — and so
// releases its shared hold on walMu — only after publishing the epoch
// containing it, so the epoch the exclusive capture clones reflects
// every mutation whose append the captured LSN covers.
//
// walMu alone does not order two concurrent LOGGED mutations against
// EACH OTHER: writer A could append insert(X) at LSN 1, writer B append
// delete(X) at LSN 2 yet apply first, and both acknowledgements would
// then contradict a crash replay (which applies in LSN order). Ops on
// distinct IDs commute in the index, so only same-ID races matter;
// idMu stripes per-ID ordering on top of walMu — every mutation holds
// the stripe of each ID it touches across its append+apply pair, making
// log order equal apply order per key while unrelated IDs stay fully
// concurrent. Without a log there is no second order to agree with, so
// unlogged mutations skip the stripes (the collection's own key stripe
// already serializes a key's moves).

// idStripes is the size of the per-ID ordering lock set. 64 keeps the
// acquired-stripe set representable as one uint64 bitmask.
const idStripes = 64

// idSeed makes the stripe hash stable for the process lifetime.
var idSeed = maphash.MakeSeed()

// lockIDs locks the stripe of every id — deduplicated via a bitmask and
// taken in ascending index order so overlapping batches cannot deadlock
// — and returns the matching unlock.
func (s *Server) lockIDs(ids []string) (unlock func()) {
	var mask uint64
	for _, id := range ids {
		mask |= 1 << (maphash.String(idSeed, id) % idStripes)
	}
	for i := 0; i < idStripes; i++ {
		if mask&(1<<i) != 0 {
			s.idMu[i].Lock()
		}
	}
	return func() {
		for i := 0; i < idStripes; i++ {
			if mask&(1<<i) != 0 {
				s.idMu[i].Unlock()
			}
		}
	}
}

// appendInsert applies the batch under the shared half of the snapshot
// lock; with a log attached it first appends it, under the ID stripes of
// every inserted object (the other three helpers follow the same shape).
// single selects the compact single-object record type for one-item
// batches. Returns an error — without applying — when the log rejects
// the append: a write the WAL cannot make durable must not become
// visible.
func (s *Server) appendInsert(rects []geom.Rect, data []any, ids []string, single bool) error {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.WAL != nil {
		defer s.lockIDs(ids)()
		var err error
		if single {
			_, err = s.cfg.WAL.AppendInsert(rects[0], ids[0])
		} else {
			_, err = s.cfg.WAL.AppendInsertBatch(rects, ids)
		}
		if err != nil {
			return fmt.Errorf("wal append failed, insert not applied: %w", err)
		}
	}
	s.index.InsertBatch(rects, data)
	return nil
}

// appendDelete logs the delete and applies it, under the shared half of
// the snapshot lock plus the ID's stripe. A delete that misses still
// leaves a record in the log; replaying it is a no-op, so correctness
// is unaffected.
func (s *Server) appendDelete(r geom.Rect, id string) (bool, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.WAL != nil {
		defer s.lockIDs([]string{id})()
		if _, err := s.cfg.WAL.AppendDelete(r, id); err != nil {
			return false, fmt.Errorf("wal append failed, delete not applied: %w", err)
		}
	}
	return s.index.Delete(r, id), nil
}

// appendSet logs the keyed upsert and applies it through the
// collection, under the shared half of the snapshot lock plus the key's
// ID stripe. The logged rect is the NEW position — replaying Set(key,
// rect) is self-contained, so a torn log never leaves half a move. Lock
// order: walMu (shared) → idMu stripe → collection key stripe →
// index locks; the collection takes its stripe strictly inside ours and
// the index locks strictly inside that, so the order is acyclic (see
// DESIGN.md §13).
func (s *Server) appendSet(key string, r geom.Rect) (collection.SetResult, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.WAL != nil {
		defer s.lockIDs([]string{key})()
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
		defer s.lockIDs([]string{key})()
		rect, _ := s.coll.Get(key)
		if _, err := s.cfg.WAL.AppendDelKey(rect, key); err != nil {
			return false, fmt.Errorf("wal append failed, del not applied: %w", err)
		}
	}
	_, ok := s.coll.Del(key)
	return ok, nil
}

// RecoveryResult reports what Recover replayed into the index.
type RecoveryResult struct {
	Stats wal.ReplayStats
	// MaxAutoID is the largest N seen among replayed "obj-N" IDs — the
	// server-assigned ID shape — so a restarted server can seed its
	// auto-ID counter past every recovered object instead of recycling
	// IDs (Config.AutoIDSeed).
	MaxAutoID uint64
}

// Recover replays every log record past afterLSN (the LSN the restored
// snapshot covers) into idx, in LSN order. Records route through the
// Index interface dynamically, so a log written by an N-shard server
// restores correctly into an M-shard or single-tree one; an epoch
// mismatch is logged once as a heads-up, not an error. Recover must run
// before the server starts handling requests.
//
// coll receives the keyed records (RecSet/RecDelKey); build it over idx
// with collection.Restore from the snapshot's key map and pass
// the same instance to Config.Collection. A nil coll rejects keyed
// records — only valid for logs written by a pre-keyed server.
func Recover(w *wal.WAL, afterLSN uint64, idx Index, coll *collection.Collection, logf func(format string, args ...any)) (RecoveryResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res RecoveryResult
	epochWarned := false
	stats, err := w.Replay(afterLSN, func(rec wal.Record) error {
		if rec.Epoch != w.Epoch() && !epochWarned {
			logf("wal: record LSN %d has routing epoch %d, server runs epoch %d (records re-route dynamically; this is informational)",
				rec.LSN, rec.Epoch, w.Epoch())
			epochWarned = true
		}
		switch rec.Type {
		case wal.RecInsert, wal.RecInsertBatch:
			data := make([]any, len(rec.IDs))
			for i, id := range rec.IDs {
				data[i] = id
				if n, ok := parseAutoID(id); ok && n > res.MaxAutoID {
					res.MaxAutoID = n
				}
			}
			idx.InsertBatch(rec.Rects, data)
		case wal.RecDelete:
			idx.Delete(rec.Rects[0], rec.IDs[0])
		case wal.RecSet:
			if coll == nil {
				return fmt.Errorf("server: keyed record at LSN %d but no collection to replay into", rec.LSN)
			}
			coll.Set(rec.IDs[0], rec.Rects[0])
		case wal.RecDelKey:
			if coll == nil {
				return fmt.Errorf("server: keyed record at LSN %d but no collection to replay into", rec.LSN)
			}
			coll.Del(rec.IDs[0])
		default:
			return fmt.Errorf("server: unknown wal record type %v at LSN %d", rec.Type, rec.LSN)
		}
		return nil
	})
	res.Stats = stats
	return res, err
}

// parseAutoID recognizes the server-assigned "obj-N" ID shape.
func parseAutoID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "obj-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// walStatsPayload is the "wal" section of /stats (and the expvar
// mirror): the log's counters plus its configuration.
type walStatsPayload struct {
	Dir    string `json:"dir"`
	Policy string `json:"fsync_policy"`
	Epoch  uint32 `json:"epoch"`
	wal.Metrics
}
