package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// Snapshot container. One file holds everything a restart needs, and
// this file is the only code that knows its byte layout:
//
//	| magic "RLR-SNAP" | version u32 = 2 | lsn u64 |   header, 20 bytes
//	| sharded payload |                              to the trailer
//	| crc32c u32 |                                   over every byte above
//
// All fixed-width integers are little-endian. The payload is the gob of
// shard.(*ShardedTree).EncodeSnapshot — the shard package owns it and
// knows nothing of the container. It is the whole served state: every
// leaf payload is the object's key, so collection.Restore rebuilds the
// key map from the restored index. lsn is the last WAL record the state
// covers (0 without a log, which replays a whole log). The LSN travels
// inside the file because the rename that publishes the file is then the
// single commit point for state and LSN together.
//
// The CRC (the WAL's polynomial) is verified before any field is
// trusted, so a torn or bit-rotted file is a load error, never a
// half-restored index.

var snapMagic = [8]byte{'R', 'L', 'R', '-', 'S', 'N', 'A', 'P'}

const (
	// snapVersion 1 also carried a kind byte and a key-map section; its
	// files are refused, not converted.
	snapVersion   = 2
	snapHeaderLen = 8 + 4 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveSnapshot writes the served index to Config.SnapshotPath. The
// capture — last LSN and a clone of the index's published epochs —
// happens under the exclusive half of walMu, which every mutation holds
// shared, so the two correspond to one instant with or without a log
// (see wal.go). Encoding and disk I/O run outside every lock; the file
// is written to a temp sibling and renamed into place, so a crash
// mid-write leaves the previous snapshot intact. With a WAL attached a
// successful snapshot advances the durable LSN and retires fully covered
// log segments.
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
	s.snapSaveMu.Lock()
	defer s.snapSaveMu.Unlock()

	s.walMu.Lock()
	var lsn uint64
	if s.cfg.WAL != nil {
		lsn = s.cfg.WAL.LastLSN()
	}
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
		return writeSnapshot(w, lsn, encodeIndex)
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
func writeSnapshot(w io.Writer, lsn uint64, encodeIndex func(io.Writer) error) error {
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, sum))

	var buf [snapHeaderLen]byte
	copy(buf[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], snapVersion)
	binary.LittleEndian.PutUint64(buf[12:], lsn)
	bw.Write(buf[:]) // bufio errors are sticky; Flush reports them

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

// LoadSnapshot restores what SaveSnapshot wrote: the sharded index and
// the WAL LSN the state covers — replaying the log past it reproduces
// the pre-crash state; 0 replays the whole log. Rebuild the keyed layer
// over the index with collection.Restore.
//
// The routing geometry (shard count, grid, world) comes from the file.
// tree supplies the insertion strategies for the restored index's future
// writes — build it with cliutil.IndexOptions so a server restarted with
// the same -policy / -index flags keeps the insertion behaviour its
// snapshot was built with. Returns os.ErrNotExist (wrapped) when no
// snapshot exists yet.
func LoadSnapshot(path string, tree rtree.Options) (*shard.ShardedTree, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("server: open snapshot: %w", err)
	}
	index, lsn, err := decodeSnapshot(data, tree)
	if err != nil {
		return nil, 0, fmt.Errorf("server: %s: %w", path, err)
	}
	return index, lsn, nil
}

// decodeSnapshot restores an index from one container held in memory.
func decodeSnapshot(data []byte, tree rtree.Options) (*shard.ShardedTree, uint64, error) {
	lsn, payload, err := parseSnapshot(data)
	if err != nil {
		return nil, 0, err
	}
	index, err := shard.Decode(bytes.NewReader(payload), shard.Options{Tree: tree})
	if err != nil {
		return nil, 0, err
	}
	return index, lsn, nil
}

// parseSnapshot verifies a container and splits it into its LSN and
// index payload (a sub-slice of data). Nothing is trusted before the
// checksum matches; the payload decoder sees checksummed bytes only.
func parseSnapshot(data []byte) (lsn uint64, payload []byte, err error) {
	if len(data) < snapHeaderLen+4 || [8]byte(data[:8]) != snapMagic {
		return 0, nil, errors.New("not a snapshot file (bad magic or too short)")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return 0, nil, errors.New("snapshot checksum mismatch (file is torn or corrupt)")
	}
	if v := binary.LittleEndian.Uint32(body[8:]); v != snapVersion {
		return 0, nil, fmt.Errorf("unsupported snapshot version %d (this build reads version %d only)", v, snapVersion)
	}
	return binary.LittleEndian.Uint64(body[12:]), body[snapHeaderLen:], nil
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
