package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// Snapshot container. One file holds everything a restart needs, and
// this file is the only code that knows its byte layout:
//
//	| magic "RLR-SNAP" | version u32 | kind u8 | lsn u64 |      header, 21 bytes
//	| uvarint count | count × pair |                            key map
//	| index payload |                                           to the trailer
//	| crc32c u32 |                                              over every byte above
//
//	pair = uvarint keyLen | key bytes | MinX MinY MaxX MaxY float64
//
// All fixed-width integers are little-endian. kind names the decoder of
// the index payload: the gob of rtree.(*Tree).Encode for a single tree,
// the gob of shard.(*ShardedTree).EncodeSnapshot for a sharded one —
// each package owns its own payload and knows nothing of the container.
// lsn is the last WAL record the state covers (0 without a log, which
// replays a whole log). The key map is always present; a server that
// never saw a keyed write stores count 0. The LSN travels inside the
// file because the rename that publishes the file is then the single
// commit point for state and LSN together.
//
// The CRC (the WAL's polynomial) is verified before any field is
// trusted, so a torn or bit-rotted file is a load error, never a
// half-restored index.

var snapMagic = [8]byte{'R', 'L', 'R', '-', 'S', 'N', 'A', 'P'}

const (
	snapVersion   = 1
	snapHeaderLen = 8 + 4 + 1 + 8
	snapMinPair   = 1 + 32 // empty key: one length byte and the rect

	kindSingle  = 1
	kindSharded = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotKind reports a snapshot whose index kind (single tree or
// sharded) is not the one the loader was asked for. A server must be
// restarted with the -shards setting its snapshot was written with.
var ErrSnapshotKind = errors.New("snapshot kind mismatch")

func kindName(kind byte) string {
	if kind == kindSharded {
		return "sharded"
	}
	return "single-tree"
}

// SaveSnapshot writes the served index and key map to
// Config.SnapshotPath. The capture — last LSN, key map, a clone of the
// index's published epoch(s) — happens under the exclusive half of
// walMu, which every mutation holds shared, so the three correspond to
// one instant with or without a log (see wal.go). Encoding and disk I/O
// run outside every lock; the file is written to a temp sibling and
// renamed into place, so a crash mid-write leaves the previous snapshot
// intact. With a WAL attached a successful snapshot advances the durable
// LSN and retires fully covered log segments.
//
// SaveSnapshot is single-flighted: snapSaveMu is held across
// capture+write+rename+retire so concurrent callers (POST /snapshot,
// the background snapshotLoop, Close) serialize. Without it a call that
// captured an older LSN could rename its snapshot over a newer one
// after the newer call had already retired segments past that LSN,
// leaving acknowledged writes unrecoverable. A monotonic guard on the
// captured LSN backs the mutex up as defense in depth.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no snapshot path configured")
	}
	var kind byte
	switch s.index.(type) {
	case *rtree.ConcurrentTree:
		kind = kindSingle
	case *shard.ShardedTree:
		kind = kindSharded
	default:
		return fmt.Errorf("server: no snapshot payload kind for index type %T", s.index)
	}
	s.snapSaveMu.Lock()
	defer s.snapSaveMu.Unlock()

	s.walMu.Lock()
	var lsn uint64
	if s.cfg.WAL != nil {
		lsn = s.cfg.WAL.LastLSN()
	}
	pairs := s.coll.Pairs()
	encodeIndex := s.index.PrepareSnapshot()
	s.walMu.Unlock()

	if lsn < s.snapLSN.Load() {
		// Unreachable while snapSaveMu serializes saves (LSNs only
		// grow), but never regress the durable LSN: overwriting a
		// newer snapshot after its segments were retired would lose
		// acknowledged writes.
		return fmt.Errorf("server: snapshot capture LSN %d behind durable LSN %d, refusing stale overwrite", lsn, s.snapLSN.Load())
	}
	err := writeSnapshotAtomic(s.cfg.SnapshotPath, func(w io.Writer) error {
		return writeSnapshot(w, kind, lsn, pairs, encodeIndex)
	})
	if err != nil {
		s.snapErrors.Add(1)
		return err
	}
	s.snapshots.Add(1)
	s.lastSnap.Store(time.Now().UnixNano())
	if s.cfg.WAL != nil {
		s.snapLSN.Store(lsn)
		if _, err := s.cfg.WAL.Retire(lsn); err != nil {
			// The snapshot itself succeeded; stale segments only cost
			// disk and replay-filter time, so log and move on.
			s.cfg.Logf("wal: retire segments covered by LSN %d: %v", lsn, err)
		}
	}
	return nil
}

// writeSnapshot streams one container to w, checksumming as it goes.
func writeSnapshot(w io.Writer, kind byte, lsn uint64, pairs []collection.KeyRect, encodeIndex func(io.Writer) error) error {
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, sum))

	var buf [32]byte
	copy(buf[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], snapVersion)
	buf[12] = kind
	binary.LittleEndian.PutUint64(buf[13:], lsn)
	bw.Write(buf[:snapHeaderLen]) // bufio errors are sticky; Flush reports them

	bw.Write(binary.AppendUvarint(buf[:0], uint64(len(pairs))))
	for _, p := range pairs {
		bw.Write(binary.AppendUvarint(buf[:0], uint64(len(p.Key))))
		bw.WriteString(p.Key)
		for i, v := range [4]float64{p.Rect.MinX, p.Rect.MinY, p.Rect.MaxX, p.Rect.MaxY} {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		bw.Write(buf[:])
	}
	if err := encodeIndex(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(buf[:0], sum.Sum32())); err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return nil
}

func writeSnapshotAtomic(path string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("server: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: snapshot rename: %w", err)
	}
	// Fsync the parent directory too: the rename is a directory-entry
	// update, and without this a crash can surface the *old* name even
	// though the new file's blocks are on disk.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: snapshot dir open: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("server: snapshot dir sync: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("server: snapshot dir close: %w", err)
	}
	return nil
}

// LoadSnapshot restores what SaveSnapshot wrote: the index (a
// *rtree.ConcurrentTree or a *shard.ShardedTree, per the file's kind),
// the key map to rebuild the collection with collection.Restore over
// that index, and the WAL LSN the state covers — replaying the log past
// it reproduces the pre-crash state; 0 replays the whole log.
//
// opts.Shards > 1 asks for a sharded index, anything else for a single
// tree; a file of the other kind fails with ErrSnapshotKind. The routing
// geometry of a sharded index (shard count, grid, world) comes from the
// file. opts.Tree supplies the insertion strategies for the restored
// index's future writes — build it with cliutil.IndexOptions so a server
// restarted with the same -policy / -index flags keeps the insertion
// behaviour its snapshot was built with. Returns os.ErrNotExist
// (wrapped) when no snapshot exists yet.
func LoadSnapshot(path string, opts shard.Options) (Index, []collection.KeyRect, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: open snapshot: %w", err)
	}
	index, pairs, lsn, err := decodeSnapshot(data, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: %s: %w", path, err)
	}
	return index, pairs, lsn, nil
}

// decodeSnapshot restores an index from one container held in memory.
func decodeSnapshot(data []byte, opts shard.Options) (Index, []collection.KeyRect, uint64, error) {
	kind, lsn, pairs, payload, err := parseSnapshot(data)
	if err != nil {
		return nil, nil, 0, err
	}
	want := byte(kindSingle)
	if opts.Shards > 1 {
		want = kindSharded
	}
	if kind != want {
		return nil, nil, 0, fmt.Errorf("%w: file holds a %s index, -shards %d asks for a %s one",
			ErrSnapshotKind, kindName(kind), opts.Shards, kindName(want))
	}
	var index Index
	if kind == kindSharded {
		index, err = shard.Decode(bytes.NewReader(payload), opts)
	} else {
		var t *rtree.Tree
		if t, err = rtree.Decode(bytes.NewReader(payload), opts.Tree); err == nil {
			index = rtree.NewConcurrent(t)
		}
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return index, pairs, lsn, nil
}

// parseSnapshot verifies a container and splits it into its header
// fields, key map and index payload (a sub-slice of data). Nothing is
// trusted before the checksum matches, and every count and length is
// bounded by the bytes that remain before anything is allocated for it,
// so no input makes it allocate more than a small multiple of len(data).
// The payload decoders behind it see checksummed bytes only.
func parseSnapshot(data []byte) (kind byte, lsn uint64, pairs []collection.KeyRect, payload []byte, err error) {
	fail := func(format string, args ...any) (byte, uint64, []collection.KeyRect, []byte, error) {
		return 0, 0, nil, nil, fmt.Errorf(format, args...)
	}
	if len(data) < snapHeaderLen+1+4 || [8]byte(data[:8]) != snapMagic {
		return fail("not a snapshot file (bad magic or too short)")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return fail("snapshot checksum mismatch (file is torn or corrupt)")
	}
	if v := binary.LittleEndian.Uint32(body[8:]); v != snapVersion {
		return fail("unsupported snapshot version %d", v)
	}
	kind, lsn = body[12], binary.LittleEndian.Uint64(body[13:])
	if kind != kindSingle && kind != kindSharded {
		return fail("unknown snapshot index kind %d", kind)
	}
	rest := body[snapHeaderLen:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fail("bad key map count")
	}
	rest = rest[n:]
	if count > uint64(len(rest))/snapMinPair {
		return fail("key map claims %d pairs in %d bytes", count, len(rest))
	}
	pairs = make([]collection.KeyRect, count)
	for i := range pairs {
		klen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < 32 || klen > uint64(len(rest)-n-32) {
			return fail("key map pair %d overruns the file", i)
		}
		key, coords := rest[n:n+int(klen)], rest[n+int(klen):]
		var c [4]float64
		for j := range c {
			c[j] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*j:]))
		}
		pairs[i] = collection.KeyRect{Key: string(key), Rect: geom.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}}
		rest = coords[32:]
	}
	return kind, lsn, pairs, rest, nil
}

// snapshotLoop writes periodic background snapshots until Close.
func (s *Server) snapshotLoop() {
	defer close(s.snapLoopWG)
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-t.C:
			if err := s.SaveSnapshot(); err != nil {
				s.cfg.Logf("background snapshot failed: %v", err)
			} else {
				s.cfg.Logf("background snapshot written (%d objects)", s.index.Len())
			}
		}
	}
}
