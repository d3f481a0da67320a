package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

var snapTestTree = rtree.Options{MaxEntries: 16, MinEntries: 6}

// restoreSnapshot loads a snapshot written by one of the test servers
// (all built with snapTestTree's capacities) and rebuilds its collection
// from the restored index.
func restoreSnapshot(t *testing.T, path string) (*shard.ShardedTree, *collection.Collection, uint64) {
	t.Helper()
	idx, lsn, err := LoadSnapshot(path, snapTestTree)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := collection.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	return idx, coll, lsn
}

// snapCase is one cell of the snapshot behaviour matrix. sharded=false
// is the one-shard tree a -shards 1 server serves, sharded=true three
// shards.
type snapCase struct {
	sharded, withWAL, keyed bool
}

func (c snapCase) String() string {
	return fmt.Sprintf("sharded=%v/wal=%v/keyed=%v", c.sharded, c.withWAL, c.keyed)
}

func (c snapCase) shards() int {
	if c.sharded {
		return 3
	}
	return 1
}

// opts build the case's index. The coarse grid keeps a file small enough
// to corrupt byte by byte.
func (c snapCase) opts() shard.Options {
	return shard.Options{Tree: snapTestTree, GridBits: 2, Shards: c.shards()}
}

// saveTestSnapshot builds a server for the case, SETs n objects through
// its mutation path, then either moves some and DELs one (keyed) or
// DELs them all again, leaving the key map and the index empty (not
// keyed), snapshots, and returns the live server, its log and the
// snapshot path.
func saveTestSnapshot(t testing.TB, c snapCase, n int) (*Server, *wal.WAL, string) {
	t.Helper()
	dir := t.TempDir()
	index, err := shard.New(c.opts())
	if err != nil {
		t.Fatal(err)
	}
	var w *wal.WAL
	if c.withWAL {
		if w, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	snap := filepath.Join(dir, "snap.bin")
	s, err := New(Config{Index: index, WAL: w, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("o-%03d", i)
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		if _, err := s.appendSet(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if c.keyed && n > 1 {
		for i := 0; i < n; i += 4 {
			if _, err := s.appendSet(fmt.Sprintf("o-%03d", i), geom.Square(rng.Float64(), rng.Float64(), 0.01)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.appendDelKey("o-001"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; !c.keyed && i < n; i++ {
		if _, err := s.appendDelKey(fmt.Sprintf("o-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	return s, w, snap
}

func canonical(t *testing.T, ix Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.PrepareSnapshot()(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip pins restore∘save as the identity, for one
// shard or three, with or without a log, with or without keyed objects:
// the restored index re-encodes to the same bytes, answers a fixed query
// battery with the same results AND the same node accesses, the key map
// rebuilt from it matches the saved collection key for key, and the LSN
// is the log's (0 without one). The shard count is the file's:
// LoadSnapshot takes none, so a restart under any -shards restores the
// saved count.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	battery := make([]geom.Rect, 25)
	for i := range battery {
		battery[i] = geom.Square(rng.Float64(), rng.Float64(), 0.15)
	}
	for _, sharded := range []bool{false, true} {
		for _, withWAL := range []bool{false, true} {
			for _, keyed := range []bool{false, true} {
				c := snapCase{sharded, withWAL, keyed}
				t.Run(c.String(), func(t *testing.T) {
					s, w, snap := saveTestSnapshot(t, c, 400)
					index, lsn, err := LoadSnapshot(snap, snapTestTree)
					if err != nil {
						t.Fatal(err)
					}
					if index.NumShards() != c.shards() {
						t.Fatalf("restored %d shards, want the file's %d", index.NumShards(), c.shards())
					}
					// The restored index re-encodes to the saved bytes.
					if !bytes.Equal(canonical(t, index), canonical(t, s.index)) {
						t.Fatal("restored index re-encodes to different bytes")
					}
					var wantLSN uint64
					if withWAL {
						wantLSN = w.LastLSN()
					}
					if lsn != wantLSN || withWAL == (lsn == 0) {
						t.Fatalf("restored LSN %d, want %d", lsn, wantLSN)
					}
					coll, err := collection.Restore(index)
					if err != nil {
						t.Fatal(err)
					}
					if err := coll.Validate(); err != nil {
						t.Fatal(err)
					}
					if keyed == (coll.Len() == 0) || coll.Len() != s.coll.Len() {
						t.Fatalf("restored %d keys, saved %d", coll.Len(), s.coll.Len())
					}
					coll.Each(func(key string, got geom.Rect) bool {
						if want, ok := s.coll.Get(key); !ok || got != want {
							t.Fatalf("restored %s at %v, saved %v %v", key, got, want, ok)
						}
						return true
					})
					for i, q := range battery {
						var got, want []string
						gs := index.SearchEach(q, func(_ geom.Rect, d any) { got = append(got, d.(string)) })
						ws := s.index.SearchEach(q, func(_ geom.Rect, d any) { want = append(want, d.(string)) })
						sort.Strings(got)
						sort.Strings(want)
						if gs != ws || fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("query %d: %+v %v after restore, want %+v %v", i, gs, got, ws, want)
						}
						gn, gks := index.KNNAppend(q.Center(), 7, nil)
						wn, wks := s.index.KNNAppend(q.Center(), 7, nil)
						if gks != wks || fmt.Sprint(gn) != fmt.Sprint(wn) {
							t.Fatalf("knn %d: %+v after restore, want %+v", i, gks, wks)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotVersion1Refused: a file in the version-1 layout (kind
// byte, key-map section) is refused with an error naming its version,
// and left as it was. A missing file is os.ErrNotExist, the "start
// empty" case.
func TestSnapshotVersion1Refused(t *testing.T) {
	b := append([]byte(nil), snapMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 2) // kind: sharded
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.AppendUvarint(b, 0) // empty key map
	b = append(b, "index payload"...)
	data := sealSnapshot(b)
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if index, _, err := LoadSnapshot(path, snapTestTree); err == nil || index != nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 file: index %v, err %v; want an error naming version 1", index, err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("refused file changed on disk (err %v)", err)
	}
	if _, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent"), snapTestTree); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
}

// TestSnapshotAnyByteFlipIsAnError corrupts every byte of a saved
// snapshot in turn: the loader must report an error each time — never
// panic, never hand back an index.
func TestSnapshotAnyByteFlipIsAnError(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		c := snapCase{sharded: sharded, keyed: true}
		_, _, snap := saveTestSnapshot(t, c, 60)
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeSnapshot(data, snapTestTree); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xff
			if index, _, err := decodeSnapshot(data, snapTestTree); err == nil || index != nil {
				t.Fatalf("sharded=%v: flipping byte %d of %d restored an index (err %v)", sharded, i, len(data), err)
			}
			data[i] ^= 0xff
		}
	}
}

// sealSnapshot appends the container trailer to body.
func sealSnapshot(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLoadSnapshot feeds the loader arbitrary bytes: no panic, memory in
// proportion to the input, an index only when the container and its
// payload both parsed. The checksum stops a mutated file at the door, so
// each input is also resealed — its trailer rewritten to match — and run
// through the container parser. (Resealed bytes stop short of the gob
// payload decoder: it sizes its arenas from the payload's own node
// capacity and is only ever handed checksummed bytes.)
func FuzzLoadSnapshot(f *testing.F) {
	for _, c := range []snapCase{
		{sharded: false, keyed: true},
		{sharded: true, withWAL: true, keyed: true},
		{sharded: false, withWAL: true, keyed: false},
	} {
		_, _, snap := saveTestSnapshot(f, c, 30)
		data, err := os.ReadFile(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, cut := range []int{len(data) - 1, len(data) / 2, snapHeaderLen + 3, snapHeaderLen, 5} {
			f.Add(data[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(1<<20 + 64*len(data))
		var (
			index *shard.ShardedTree
			err   error
		)
		got := allocatedBy(func() { index, _, err = decodeSnapshot(data, snapTestTree) })
		if err != nil && index != nil {
			t.Fatalf("error %v came with an index", err)
		}
		if err != nil && got > limit {
			t.Fatalf("rejecting a %d-byte input allocated %d bytes", len(data), got)
		}
		if err == nil && index.Len() > len(data) {
			t.Fatalf("%d-byte input restored %d objects", len(data), index.Len())
		}
		if len(data) < 4 {
			return
		}
		sealed := sealSnapshot(append([]byte(nil), data[:len(data)-4]...))
		var payload []byte
		if got := allocatedBy(func() { _, payload, err = parseSnapshot(sealed) }); got > limit {
			t.Fatalf("parsing a %d-byte input allocated %d bytes", len(sealed), got)
		}
		if err == nil && len(payload) != len(sealed)-snapHeaderLen-4 {
			t.Fatalf("%d-byte input parsed into %d payload bytes", len(sealed), len(payload))
		}
	})
}
