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
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

var snapTestTree = rtree.Options{MaxEntries: 16, MinEntries: 6}

// loadSingle restores a snapshot written by one of the single-tree test
// servers (all built with snapTestTree's capacities).
func loadSingle(t *testing.T, path string) (*rtree.ConcurrentTree, []collection.KeyRect, uint64) {
	t.Helper()
	idx, pairs, lsn, err := LoadSnapshot(path, shard.Options{Tree: snapTestTree})
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*rtree.ConcurrentTree), pairs, lsn
}

// snapCase is one cell of the snapshot behaviour matrix.
type snapCase struct {
	sharded, withWAL, keyed bool
}

func (c snapCase) String() string {
	return fmt.Sprintf("sharded=%v/wal=%v/keyed=%v", c.sharded, c.withWAL, c.keyed)
}

// opts are the loader options that match the case's index kind. The
// coarse grid keeps a sharded file small enough to corrupt byte by byte.
func (c snapCase) opts() shard.Options {
	o := shard.Options{Tree: snapTestTree, GridBits: 2}
	if c.sharded {
		o.Shards = 3
	}
	return o
}

// saveTestSnapshot builds a server for the case, SETs n objects through
// its mutation path, then either moves some and DELs one (keyed) or
// DELs them all again, leaving the key map and the index empty (not
// keyed), snapshots, and returns the live server, its log and the
// snapshot path.
func saveTestSnapshot(t testing.TB, c snapCase, n int) (*Server, *wal.WAL, string) {
	t.Helper()
	dir := t.TempDir()
	var index Index
	if c.sharded {
		st, err := shard.New(c.opts())
		if err != nil {
			t.Fatal(err)
		}
		index = st
	} else {
		index = rtree.NewConcurrent(rtree.New(snapTestTree))
	}
	var w *wal.WAL
	if c.withWAL {
		var err error
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

func sortedPairs(p []collection.KeyRect) []collection.KeyRect {
	p = append([]collection.KeyRect(nil), p...)
	sort.Slice(p, func(i, j int) bool { return p[i].Key < p[j].Key })
	return p
}

// TestSnapshotRoundTrip pins restore∘save as the identity, whatever the
// index kind, with or without a log, with or without keyed objects: the
// restored index re-encodes to the same bytes, answers a fixed query
// battery with the same results AND the same node accesses, the key map
// comes back pair for pair, and the LSN is the log's (0 without one).
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
					index, pairs, lsn, err := LoadSnapshot(snap, c.opts())
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := index.(*shard.ShardedTree); ok != sharded {
						t.Fatalf("restored a %T", index)
					}
					// First, before any query warms a sharded index's heat counters.
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
					if got, want := sortedPairs(pairs), sortedPairs(s.coll.Pairs()); keyed == (len(got) == 0) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("restored key map %v, want %v", got, want)
					}
					if keyed {
						if err := collection.Restore(index, pairs).Validate(); err != nil {
							t.Fatal(err)
						}
					}
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

// TestSnapshotKindMismatch: a single-tree file refuses a sharded load
// and a sharded file a single-tree load, both with the named error.
func TestSnapshotKindMismatch(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		c := snapCase{sharded: sharded, keyed: true}
		_, _, snap := saveTestSnapshot(t, c, 20)
		other := snapCase{sharded: !sharded}.opts()
		if index, _, _, err := LoadSnapshot(snap, other); !errors.Is(err, ErrSnapshotKind) || index != nil {
			t.Fatalf("sharded=%v file loaded with -shards %d: index %v, err %v; want ErrSnapshotKind", sharded, other.Shards, index, err)
		}
	}
	if _, _, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent"), shard.Options{}); !errors.Is(err, os.ErrNotExist) {
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
		if _, _, _, err := decodeSnapshot(data, c.opts()); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xff
			if index, _, _, err := decodeSnapshot(data, c.opts()); err == nil || index != nil {
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

// TestSnapshotHostileCounts hand-builds checksum-valid containers whose
// key map claims far more pairs (or a far longer key) than the file
// holds. The loader must refuse them having allocated next to nothing —
// not panic in makeslice, not ask the OS for terabytes.
func TestSnapshotHostileCounts(t *testing.T) {
	header := func(kind byte) []byte {
		b := append([]byte(nil), snapMagic[:]...)
		b = binary.LittleEndian.AppendUint32(b, snapVersion)
		b = append(b, kind)
		return binary.LittleEndian.AppendUint64(b, 7)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"count 1<<62", binary.AppendUvarint(header(kindSingle), 1<<62)},
		{"count 1<<36", append(binary.AppendUvarint(header(kindSingle), 1<<36), make([]byte, 100)...)},
		{"key length 1<<40", append(binary.AppendUvarint(binary.AppendUvarint(header(kindSingle), 1), 1<<40), make([]byte, 64)...)},
		{"key length overflows int", append(binary.AppendUvarint(binary.AppendUvarint(header(kindSingle), 1), 1<<63+5), make([]byte, 64)...)},
		{"count varint cut short", append(header(kindSingle), 0x80)},
	} {
		data := sealSnapshot(tc.body)
		var err error
		got := allocatedBy(func() { _, _, _, _, err = parseSnapshot(data) })
		if err == nil {
			t.Errorf("%s: loaded", tc.name)
		}
		if got > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte file", tc.name, got, len(data))
		}
	}
}

// FuzzLoadSnapshot feeds the loader arbitrary bytes: no panic, memory in
// proportion to the input, an index only when every section parsed. The
// checksum stops a mutated file at the door, so each input is also
// resealed — its trailer rewritten to match — and run through the
// container parser, where hostile counts and lengths then meet the
// bounds checks. (Resealed bytes stop short of the gob payload decoders:
// those size their arenas from the payload's own node capacity and are
// only ever handed checksummed bytes.)
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
		for _, shards := range []int{1, 3} {
			var (
				index Index
				pairs []collection.KeyRect
				err   error
			)
			got := allocatedBy(func() {
				index, pairs, _, err = decodeSnapshot(data, shard.Options{Shards: shards, Tree: snapTestTree})
			})
			if err != nil && (index != nil || pairs != nil) {
				t.Fatalf("error %v came with an index or a key map", err)
			}
			if err != nil && got > limit {
				t.Fatalf("rejecting a %d-byte input allocated %d bytes", len(data), got)
			}
			if err == nil && (len(pairs) > len(data)/snapMinPair || index.Len() > len(data)) {
				t.Fatalf("%d-byte input restored %d pairs and %d objects", len(data), len(pairs), index.Len())
			}
		}
		if len(data) < 4 {
			return
		}
		sealed := sealSnapshot(append([]byte(nil), data[:len(data)-4]...))
		var (
			pairs   []collection.KeyRect
			payload []byte
			err     error
		)
		if got := allocatedBy(func() { _, _, pairs, payload, err = parseSnapshot(sealed) }); got > limit {
			t.Fatalf("parsing a %d-byte input allocated %d bytes", len(sealed), got)
		}
		if err == nil && (len(pairs) > len(sealed)/snapMinPair || len(payload) > len(sealed)) {
			t.Fatalf("%d-byte input parsed into %d pairs and %d payload bytes", len(sealed), len(pairs), len(payload))
		}
	})
}
