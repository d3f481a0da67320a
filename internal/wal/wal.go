package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every append returns: no acknowledged
	// write is ever lost, at one fsync per append.
	SyncAlways SyncPolicy = iota
	// SyncInterval groups commits: an append blocks until an fsync
	// covers its record — the periodic one (at most Options.SyncInterval
	// later), or an earlier out-of-band fsync (explicit Sync, segment
	// rotation, Close) — so concurrent writers share one fsync.
	// Durability equals SyncAlways for acknowledged writes; latency is
	// bounded by the interval.
	SyncInterval
	// SyncNone never fsyncs on the append path (segments still sync on
	// rotation and Close). A crash can lose acknowledged writes that
	// were only in the OS page cache — but not process-buffered data:
	// every append reaches the kernel before it is acknowledged.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal-fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Defaults for the zero values of Options.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 5 * time.Millisecond
)

// Options configures a WAL.
type Options struct {
	// Dir is the segment directory (required). Created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default DefaultSegmentBytes). A single record larger
	// than the limit still gets a segment to itself — records never
	// split across segments.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the group-commit period for SyncInterval
	// (default DefaultSyncInterval).
	SyncInterval time.Duration
	// Epoch tags every appended record with the writer's routing epoch
	// (the serving layer uses the shard count). Replay routes records
	// dynamically, so a mismatch is informational, not fatal.
	Epoch uint32

	// openAppend is a test seam for fault injection (FailingWriter);
	// nil uses the real filesystem.
	openAppend func(path string, offset int64) (segmentFile, error)
}

// segmentFile is the active segment's write-side contract, satisfied by
// *os.File and by the crash-test FailingWriter.
type segmentFile interface {
	io.Writer
	io.Closer
	Sync() error
}

func osOpenAppend(path string, offset int64) (segmentFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Metrics is a point-in-time snapshot of a WAL's counters, mirrored into
// the serving layer's expvar /stats payload.
type Metrics struct {
	Appends         int64         `json:"appends"`
	AppendedBytes   int64         `json:"appended_bytes"`
	Fsyncs          int64         `json:"fsyncs"`
	FsyncedBytes    int64         `json:"fsynced_bytes"`
	Rotations       int64         `json:"rotations"`
	TornTruncations int64         `json:"torn_truncations"`
	RetiredSegments int64         `json:"retired_segments"`
	Segments        int           `json:"segments"`
	LastLSN         uint64        `json:"last_lsn"`
	ReplayRecords   int64         `json:"replay_records"`
	ReplayDuration  time.Duration `json:"replay_duration_ns"` // scan plus apply, as ReplayStats.Duration
}

// WAL is a segmented write-ahead log open for appending. All methods are
// safe for concurrent use. Create with Open; Close before discarding.
type WAL struct {
	opts Options

	mu       sync.Mutex // guards the active segment, LSNs and counters
	f        segmentFile
	size     int64 // bytes in the active segment
	firstLSN uint64
	lastLSN  uint64
	segments []segmentRef // all segments, active last
	scratch  []byte
	err      error // sticky: the log is unusable after a write fault

	// group-commit state (SyncInterval policy)
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN uint64
	syncErr   error
	syncReqCh chan struct{} // appenders nudge the committer (capacity 1)
	stopCh    chan struct{}
	doneCh    chan struct{}

	metrics struct {
		appends, appendedBytes int64
		fsyncs, fsyncedBytes   int64
		rotations, tornTrunc   int64
		retired                int64
		replayRecords          int64
		replayDuration         time.Duration
		pendingSyncBytes       int64 // written since the last fsync
	}
}

// Open opens (creating if necessary) the log in opts.Dir and recovers
// its tail: segments are scanned in LSN order and the log is physically
// truncated at the first torn frame — one cut short by a crash
// mid-append, or failing its checksum — with every later segment
// removed. A checksum-valid record that does not decode fails Open and
// leaves every file as it was. After Open returns, the on-disk log is a
// clean record run and appends continue at LastLSN()+1.
//
// Open only prepares the log for writing; call Replay to feed the
// surviving records to recovery.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.openAppend == nil {
		opts.openAppend = osOpenAppend
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{opts: opts}
	w.syncCond = sync.NewCond(&w.syncMu)

	if err := w.recoverTail(); err != nil {
		return nil, err
	}

	// Open the last segment for appending, or start the first one.
	if len(w.segments) == 0 {
		if err := w.startSegmentLocked(w.lastLSN + 1); err != nil {
			return nil, err
		}
	} else {
		last := w.segments[len(w.segments)-1]
		f, err := opts.openAppend(last.path, w.size)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		w.f = f
	}

	w.syncedLSN = w.lastLSN
	if opts.Sync == SyncInterval {
		w.stopCh = make(chan struct{})
		w.doneCh = make(chan struct{})
		w.syncReqCh = make(chan struct{}, 1)
		go w.syncLoop()
	}
	return w, nil
}

// recoverTail scans the on-disk segments, truncating at the first
// invalid record and deleting every segment after it. It leaves
// w.segments / w.firstLSN / w.lastLSN / w.size describing the clean log.
func (w *WAL) recoverTail() error {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i > 0 && seg.firstLSN != w.lastLSN+1 {
			// A hole between segments: everything from here is
			// unreachable by sequential replay — drop it.
			return w.dropFrom(segs, i)
		}
		res, err := scanSegment(seg.path, seg.firstLSN, nil)
		if err != nil {
			return err
		}
		if i == 0 {
			w.firstLSN = seg.firstLSN
		}
		if res.records > 0 {
			w.lastLSN = res.lastLSN
		} else if i == 0 {
			w.lastLSN = seg.firstLSN - 1
		}
		w.segments = append(w.segments, seg)
		w.size = res.validLen
		if !res.clean() {
			if res.validLen == 0 {
				// Even the header is bad; rewrite it so the segment is
				// reusable for appending.
				if err := os.WriteFile(seg.path, segMagic[:], 0o644); err != nil {
					return fmt.Errorf("wal: rewrite segment header: %w", err)
				}
				w.size = segHeaderSize
			} else if err := os.Truncate(seg.path, res.validLen); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			w.metrics.tornTrunc++
			return w.dropFrom(segs, i+1)
		}
	}
	return nil
}

// dropFrom removes segs[i:] (they follow a truncation point) and fsyncs
// the directory; the removals count as torn-tail truncations.
func (w *WAL) dropFrom(segs []segmentRef, i int) error {
	removed := false
	for _, seg := range segs[i:] {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: remove segment past truncation: %w", err)
		}
		w.metrics.tornTrunc++
		removed = true
	}
	if removed {
		return syncDir(w.opts.Dir)
	}
	return nil
}

// startSegmentLocked rotates to a fresh segment whose first record will
// be firstLSN. Caller holds w.mu (or is Open, pre-publication).
func (w *WAL) startSegmentLocked(firstLSN uint64) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync on rotate: %w", err)
		}
		w.noteFsyncLocked()
		// The rotation fsync makes every record in the closing segment
		// durable: release any group-commit waiter it covers, instead of
		// leaving them parked until the next ticker tick.
		w.publishSynced(w.lastLSN)
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("wal: close on rotate: %w", err)
		}
		w.f = nil
		w.metrics.rotations++
	}
	ref := segmentRef{path: filepath.Join(w.opts.Dir, segmentName(firstLSN)), firstLSN: firstLSN}
	f, err := w.opts.openAppend(ref.path, 0)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := syncDir(w.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.f = f
	w.size = segHeaderSize
	w.segments = append(w.segments, ref)
	if len(w.segments) == 1 {
		w.firstLSN = firstLSN
	}
	return nil
}

// AppendSet logs a keyed upsert (collection SET) and returns its LSN.
// A key longer than MaxKeyBytes is rejected.
func (w *WAL) AppendSet(r geom.Rect, key string) (uint64, error) {
	return w.append(Record{Type: RecSet, Rect: r, Key: key})
}

// AppendDelKey logs a keyed delete (collection DEL) and returns its LSN.
// r is the position the key held at append time. A key longer than
// MaxKeyBytes is rejected.
func (w *WAL) AppendDelKey(r geom.Rect, key string) (uint64, error) {
	return w.append(Record{Type: RecDelKey, Rect: r, Key: key})
}

// append assigns the next LSN, writes the frame to the active segment
// (rotating first when it is full), and blocks until the record is
// durable per the fsync policy. On a write fault the log becomes sticky-
// failed: a partial frame may be on disk, and interleaving further
// records after it would corrupt the tail scan.
func (w *WAL) append(rec Record) (uint64, error) {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return 0, w.err
	}
	rec.LSN = w.lastLSN + 1
	rec.Epoch = w.opts.Epoch

	need := frameSize(rec)
	if w.size > segHeaderSize && w.size+need > w.opts.SegmentBytes {
		if err := w.startSegmentLocked(rec.LSN); err != nil {
			// The old segment is closed and the new one may be half
			// created; the writer cannot safely continue.
			w.err = err
			w.mu.Unlock()
			w.wakeSyncWaiters(err)
			return 0, err
		}
	}

	var err error
	w.scratch, err = appendFrame(w.scratch[:0], rec)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	n, err := w.f.Write(w.scratch)
	if err != nil {
		// A partial frame is now the segment tail. The scanner would
		// stop there anyway, but the writer cannot safely continue.
		w.err = fmt.Errorf("wal: append write failed (wrote %d of %d bytes): %w", n, len(w.scratch), err)
		err := w.err
		w.mu.Unlock()
		w.wakeSyncWaiters(err)
		return 0, err
	}
	w.size += int64(n)
	w.lastLSN = rec.LSN
	w.metrics.appends++
	w.metrics.appendedBytes += int64(n)
	w.metrics.pendingSyncBytes += int64(n)
	lsn := rec.LSN

	switch w.opts.Sync {
	case SyncAlways:
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: fsync failed: %w", err)
			err := w.err
			w.mu.Unlock()
			w.wakeSyncWaiters(err)
			return 0, err
		}
		w.noteFsyncLocked()
		w.mu.Unlock()
		return lsn, nil
	case SyncNone:
		w.mu.Unlock()
		return lsn, nil
	default: // SyncInterval: group commit
		w.mu.Unlock()
		// Nudge the committer; the buffered channel makes this a no-op
		// when a flush is already queued, so a batch's worth of appends
		// costs one signal.
		select {
		case w.syncReqCh <- struct{}{}:
		default:
		}
		return lsn, w.waitSynced(lsn)
	}
}

// noteFsyncLocked records a completed fsync. Caller holds w.mu.
func (w *WAL) noteFsyncLocked() {
	w.metrics.fsyncs++
	w.metrics.fsyncedBytes += w.metrics.pendingSyncBytes
	w.metrics.pendingSyncBytes = 0
}

// waitSynced blocks until the committer has fsynced past lsn.
func (w *WAL) waitSynced(lsn uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.syncedLSN < lsn && w.syncErr == nil {
		w.syncCond.Wait()
	}
	if w.syncedLSN >= lsn {
		// The record is durable; a sync error raised afterwards (for
		// example Close failing later appends) does not concern it.
		return nil
	}
	return w.syncErr
}

// wakeSyncWaiters fails all group-commit waiters with err.
func (w *WAL) wakeSyncWaiters(err error) {
	w.syncMu.Lock()
	if w.syncErr == nil {
		w.syncErr = err
	}
	w.syncMu.Unlock()
	w.syncCond.Broadcast()
}

// syncLoop is the group-commit committer. Appenders nudge it through
// syncReqCh the moment their record lands in the segment, and it DRAINS:
// after each fsync it re-checks for bytes that arrived during the flush
// and fsyncs again immediately, without ever parking. Under load the
// committer therefore stays hot — the commit cycle is one fsync plus a
// pending check, never a goroutine wake-up handoff. That matters on
// small-core boxes: a parked committer woken by broadcast competes with
// every request handler for the run queue, and each lost slot stalls
// all group-commit waiters. The SyncInterval ticker remains only as a
// liveness backstop (it also bounds staleness when appends race the
// drain check), so commit latency tracks the device, not the tick.
func (w *WAL) syncLoop() {
	defer close(w.doneCh)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-t.C:
		case <-w.syncReqCh:
		}
		for {
			if err := w.syncOnce(); err != nil {
				w.wakeSyncWaiters(err)
				return
			}
			w.mu.Lock()
			pending := w.metrics.pendingSyncBytes
			w.mu.Unlock()
			if pending == 0 {
				break
			}
		}
	}
}

// syncOnce fsyncs the active segment if it has unsynced appends and
// publishes the covered LSN to waiters. The fsync itself runs OFF w.mu:
// holding the append lock across the device flush would stall every
// concurrent appender for the fsync's duration, so group-commit batches
// could never form — new records must be able to land in the segment
// while the current batch flushes. Capturing the *os.File and syncing
// after unlock is safe against a concurrent rotation: os.File refcounts
// its fd, so a Close during the Sync defers until the Sync returns, and
// a Sync that starts after the Close fails with os.ErrClosed — in which
// case the rotation's own fsync already published a watermark at or
// past our target (it covers lastLSN at close time).
func (w *WAL) syncOnce() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	target := w.lastLSN
	pending := w.metrics.pendingSyncBytes
	if pending == 0 {
		w.mu.Unlock()
		w.publishSynced(target)
		return nil
	}
	f := w.f
	w.mu.Unlock()

	if err := f.Sync(); err != nil {
		w.syncMu.Lock()
		covered := w.syncedLSN >= target
		w.syncMu.Unlock()
		if covered {
			// A rotation or explicit Sync got there first and closed or
			// superseded the file; the records we vouch for are durable.
			return nil
		}
		w.mu.Lock()
		w.err = fmt.Errorf("wal: fsync failed: %w", err)
		err = w.err
		w.mu.Unlock()
		return err
	}

	w.mu.Lock()
	w.metrics.fsyncs++
	// Appends (or a rotation's own accounting) may have run during the
	// flush; only claim the bytes this fsync was dispatched for.
	if pending > w.metrics.pendingSyncBytes {
		pending = w.metrics.pendingSyncBytes
	}
	w.metrics.fsyncedBytes += pending
	w.metrics.pendingSyncBytes -= pending
	w.mu.Unlock()
	w.publishSynced(target)
	return nil
}

// publishSynced advances the durable LSN watermark and releases every
// group-commit waiter it covers. Called from every fsync path — the
// periodic syncOnce, explicit Sync, segment rotation, and the final
// fsync in Close — some of which hold w.mu; that nesting is safe because
// no syncMu critical section ever acquires w.mu.
func (w *WAL) publishSynced(lsn uint64) {
	w.syncMu.Lock()
	if lsn > w.syncedLSN {
		w.syncedLSN = lsn
	}
	w.syncMu.Unlock()
	w.syncCond.Broadcast()
}

// Sync forces an fsync of the active segment regardless of policy. The
// covered LSN is published to group-commit waiters: an append whose
// bytes this fsync made durable returns without waiting for the ticker.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync failed: %w", err)
		err := w.err
		w.mu.Unlock()
		w.wakeSyncWaiters(err)
		return err
	}
	w.noteFsyncLocked()
	lsn := w.lastLSN
	w.mu.Unlock()
	w.publishSynced(lsn)
	return nil
}

// LastLSN returns the LSN of the most recently appended record (0 when
// the log is empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// Replay feeds every surviving record with LSN > afterLSN to apply, in
// LSN order — the recovery path after restoring a snapshot that covers
// afterLSN. Open has already truncated any torn tail and refused a log
// holding an undecodable record, so Replay sees a clean record run;
// Replay itself fails when the surviving segments do not reach back to
// afterLSN, so a snapshot/segment mismatch surfaces at startup instead
// of being masked. Replay must run before concurrent appends begin
// (recovery happens before serving starts); records appended by this
// process are not replayed to it.
func (w *WAL) Replay(afterLSN uint64, apply func(Record) error) (ReplayStats, error) {
	return w.ReplayBuffered(afterLSN, apply, nil)
}

// ReplayBuffered is Replay for a consumer that buffers records: apply
// may hold records back and apply them in batches, and flush, when
// non-nil, runs once after the last record to apply what is still
// held. The returned Duration and the log's replay metrics cover the
// scan, every apply and the flush.
func (w *WAL) ReplayBuffered(afterLSN uint64, apply func(Record) error, flush func() error) (ReplayStats, error) {
	start := time.Now()
	var stats ReplayStats
	w.mu.Lock()
	segs := make([]segmentRef, len(w.segments))
	copy(segs, w.segments)
	last := w.lastLSN
	w.mu.Unlock()

	// The surviving segments must reach back to the snapshot boundary:
	// if the oldest one starts past afterLSN+1, records the snapshot
	// does not cover are gone (segments retired against a snapshot that
	// was later lost, or deleted by hand) and silently replaying past
	// the hole would present a corrupt index as a clean recovery.
	if len(segs) > 0 && segs[0].firstLSN > afterLSN+1 {
		return stats, fmt.Errorf("wal: recovery gap: snapshot covers LSN %d but the oldest segment starts at LSN %d (records %d..%d are missing)",
			afterLSN, segs[0].firstLSN, afterLSN+1, segs[0].firstLSN-1)
	}

	for i, seg := range segs {
		// Skip segments entirely covered by the snapshot: the next
		// segment's first LSN bounds this one's last.
		if i+1 < len(segs) && segs[i+1].firstLSN <= afterLSN+1 {
			stats.SegmentsSkipped++
			continue
		}
		_, err := scanSegment(seg.path, seg.firstLSN, func(rec Record) error {
			stats.Records++
			if rec.LSN <= afterLSN {
				stats.Skipped++
				return nil
			}
			stats.Applied++
			return apply(rec)
		})
		if err != nil {
			return stats, err
		}
		stats.SegmentsScanned++
	}
	if flush != nil {
		if err := flush(); err != nil {
			return stats, err
		}
	}
	stats.Duration = time.Since(start)
	stats.LastLSN = last
	w.mu.Lock()
	w.metrics.replayRecords += int64(stats.Applied)
	w.metrics.replayDuration += stats.Duration
	w.mu.Unlock()
	return stats, nil
}

// ReplayStats summarizes a Replay pass.
type ReplayStats struct {
	Records         int // records scanned
	Applied         int // records with LSN past the snapshot
	Skipped         int // records the snapshot already covered
	SegmentsScanned int
	SegmentsSkipped int
	LastLSN         uint64
	Duration        time.Duration // scan plus apply, a buffering consumer's flush included
}

// Retire removes segments whose every record is covered by a durable
// snapshot at upToLSN. The active segment is never removed. Returns the
// number of segments deleted.
func (w *WAL) Retire(upToLSN uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) > 1 && w.segments[1].firstLSN <= upToLSN+1 {
		if err := os.Remove(w.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: retire segment: %w", err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		w.metrics.retired += int64(removed)
		w.firstLSN = w.segments[0].firstLSN
		if err := syncDir(w.opts.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Metrics returns a snapshot of the log's counters.
func (w *WAL) Metrics() Metrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Metrics{
		Appends:         w.metrics.appends,
		AppendedBytes:   w.metrics.appendedBytes,
		Fsyncs:          w.metrics.fsyncs,
		FsyncedBytes:    w.metrics.fsyncedBytes,
		Rotations:       w.metrics.rotations,
		TornTruncations: w.metrics.tornTrunc,
		RetiredSegments: w.metrics.retired,
		Segments:        len(w.segments),
		LastLSN:         w.lastLSN,
		ReplayRecords:   w.metrics.replayRecords,
		ReplayDuration:  w.metrics.replayDuration,
	}
}

// Epoch returns the routing epoch this log stamps on appended records.
func (w *WAL) Epoch() uint32 { return w.opts.Epoch }

// Policy returns the configured fsync policy.
func (w *WAL) Policy() SyncPolicy { return w.opts.Sync }

// Dir returns the segment directory.
func (w *WAL) Dir() string { return w.opts.Dir }

// Close stops the group-commit goroutine, fsyncs and closes the active
// segment. The WAL must not be used afterwards. The final fsync
// publishes its covered LSN before waiters are failed with "closed", so
// an append whose bytes it made durable returns success, not an error —
// its record will be replayed after a restart.
func (w *WAL) Close() error {
	if w.stopCh != nil {
		close(w.stopCh)
		<-w.doneCh
	}
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return nil
	}
	var err error
	var synced uint64
	if w.err == nil {
		if err = w.f.Sync(); err == nil {
			w.noteFsyncLocked()
			synced = w.lastLSN
		}
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil {
		w.err = errors.New("wal: closed")
	}
	w.mu.Unlock()
	if synced > 0 {
		w.publishSynced(synced)
	}
	w.wakeSyncWaiters(errors.New("wal: closed"))
	return err
}
