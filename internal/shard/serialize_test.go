package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// TestSnapshotRoundTrip extends the single-tree gob round-trip pattern
// (rtree's TestEncodeDecodeRoundTrip) to the sharded envelope: a
// snapshot must restore to a tree that is query-identical — same results
// AND same per-query node-access counts, i.e. the same structure shard
// by shard — and re-encoding the restored tree must reproduce the
// snapshot byte for byte (gob stability: the wire form is a pure
// function of the structure, with no map ordering or pointer identity
// leaking in).
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 3000
	data := dataset.MustGenerate(dataset.SKE, n, 3)
	s := newTestSharded(t, 5)
	rng := rand.New(rand.NewSource(8))
	for i, r := range data {
		s.Insert(r, i)
	}
	// Deletes so the snapshot captures post-condense structure too.
	for i := 0; i < n/3; i++ {
		id := rng.Intn(n)
		s.Delete(data[id], id)
	}

	var buf1 bytes.Buffer
	if err := s.EncodeSnapshot(&buf1); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(bytes.NewReader(buf1.Bytes()), Options{Tree: testTreeOpts()})
	if err != nil {
		t.Fatal(err)
	}

	if restored.NumShards() != s.NumShards() {
		t.Fatalf("restored %d shards, want %d", restored.NumShards(), s.NumShards())
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d objects, want %d", restored.Len(), s.Len())
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}

	// Byte stability: encode(decode(encode(x))) == encode(x).
	var buf2 bytes.Buffer
	if err := restored.EncodeSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", buf1.Len(), buf2.Len())
	}

	// Query identity including node accesses (structure round-trips
	// exactly, not just the object set).
	world := geom.NewRect(0, 0, 1, 1)
	for qi, q := range dataset.RangeQueries(40, 0.001, world, 12) {
		wantRes, wantStats := s.Search(q)
		gotRes, gotStats := restored.Search(q)
		want, got := sortedIDs(t, wantRes), sortedIDs(t, gotRes)
		if !equalInts(want, got) {
			t.Fatalf("query %d: result sets differ", qi)
		}
		if gotStats != wantStats {
			t.Fatalf("query %d: stats %+v, want %+v", qi, gotStats, wantStats)
		}
	}
	for i := 0; i < 20; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		want, wantStats := s.KNN(p, 15)
		got, gotStats := restored.KNN(p, 15)
		if len(got) != len(want) || gotStats != wantStats {
			t.Fatalf("KNN %d: %d/%+v, want %d/%+v", i, len(got), gotStats, len(want), wantStats)
		}
		for j := range want {
			if got[j].DistSq != want[j].DistSq || got[j].Data != want[j].Data {
				t.Fatalf("KNN %d neighbor %d differs", i, j)
			}
		}
	}

	// Deletes still route correctly on the restored tree (routing config
	// came from the snapshot, not the caller's Options).
	live := map[int]geom.Rect{}
	restored.SearchEach(geom.NewRect(-1, -1, 2, 2), func(r geom.Rect, d any) {
		live[d.(int)] = r
	})
	deleted := 0
	for id, r := range live {
		if !restored.Delete(r, id) {
			t.Fatalf("restored tree cannot delete live object %d", id)
		}
		if deleted++; deleted >= 100 {
			break
		}
	}
}

// TestSnapshotRoundTripLooseBounds: the (loose, post-delete) bounds
// summaries survive the round trip verbatim, so the restored tree makes
// the *identical pruning decisions* — pinned by requiring full
// QueryStats equality — and re-encodes byte-for-byte.
func TestSnapshotRoundTripLooseBounds(t *testing.T) {
	const n = 2000
	data := dataset.MustGenerate(dataset.GAU, n, 19)
	s := newTestSharded(t, 4)
	for i, r := range data {
		s.Insert(r, i)
	}
	rng := rand.New(rand.NewSource(4))
	// Deletes leave the incremental bounds loose — exactly the state the
	// snapshot must carry verbatim for restored pruning to match.
	for i := 0; i < n/4; i++ {
		s.Delete(data[i*2], i*2)
	}

	var buf1 bytes.Buffer
	if err := s.EncodeSnapshot(&buf1); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(bytes.NewReader(buf1.Bytes()), Options{Tree: testTreeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}

	var buf2 bytes.Buffer
	if err := restored.EncodeSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", buf1.Len(), buf2.Len())
	}

	world := geom.NewRect(0, 0, 1, 1)
	for qi, q := range dataset.RangeQueries(30, 0.001, world, 6) {
		wantRes, wantStats := s.Search(q)
		gotRes, gotStats := restored.Search(q)
		if !equalInts(sortedIDs(t, wantRes), sortedIDs(t, gotRes)) {
			t.Fatalf("query %d: result sets differ after round trip", qi)
		}
		if gotStats != wantStats {
			t.Fatalf("query %d: stats %+v, want %+v (pruning decisions must round-trip)", qi, gotStats, wantStats)
		}
	}
	for i := 0; i < 10; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		want, wantStats := s.KNN(p, 15)
		got, gotStats := restored.KNN(p, 15)
		if len(got) != len(want) || gotStats != wantStats {
			t.Fatalf("KNN %d: %d/%+v, want %d/%+v", i, len(got), gotStats, len(want), wantStats)
		}
	}
}

// legacyWireSharded is the payload shape of builds that still had cell
// migration: wireSharded plus the cell→shard table and per-cell heat.
type legacyWireSharded struct {
	Version    int
	GridBits   int
	World      geom.Rect
	Shards     [][]byte
	Assign     []int32
	Heat       []uint64
	CellRects  []geom.Rect
	CellCounts []int64
	ShardRects []geom.Rect
}

// TestDecodeLegacyPayload: a payload from a build with cell migration
// decodes as long as its objects sit where the fixed router puts them —
// gob skips the Assign and Heat fields — and one whose non-empty cell
// had been migrated away is refused by the per-object routing check,
// naming the misplaced object, instead of loading a tree whose deletes
// would miss.
func TestDecodeLegacyPayload(t *testing.T) {
	const shards = 4
	s := newTestSharded(t, shards)
	data := dataset.MustGenerate(dataset.UNI, 1500, 31)
	for i, r := range data {
		s.Insert(r, i)
	}
	var cur bytes.Buffer
	if err := s.EncodeSnapshot(&cur); err != nil {
		t.Fatal(err)
	}
	var wt legacyWireSharded
	if err := gob.NewDecoder(&cur).Decode(&wt); err != nil {
		t.Fatal(err)
	}
	cells := s.Router().Cells()
	wt.Assign = make([]int32, cells)
	wt.Heat = make([]uint64, cells)
	for c := range wt.Assign {
		wt.Assign[c] = int32(c * shards / cells)
		wt.Heat[c] = uint64(c % 7)
	}
	encode := func(wt legacyWireSharded) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wt); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	restored, err := Decode(bytes.NewReader(encode(wt)), Options{Tree: testTreeOpts()})
	if err != nil {
		t.Fatalf("default-table legacy payload refused: %v", err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored legacy payload invalid: %v", err)
	}
	if restored.Len() != len(data) {
		t.Fatalf("restored %d objects, want %d", restored.Len(), len(data))
	}

	// Migrate the first non-empty cell of shard 0 to shard 1 the way the
	// old builds did: move its objects between the shard trees and
	// retarget the table entry.
	cell := -1
	for c := 0; c < cells && cell < 0; c++ {
		if wt.CellCounts[c] > 0 && int(wt.Assign[c]) == 0 {
			cell = c
		}
	}
	if cell < 0 {
		t.Fatal("no occupied cell on shard 0")
	}
	trees := make([]*rtree.Tree, 2)
	for i := range trees {
		if trees[i], err = rtree.Decode(bytes.NewReader(wt.Shards[i]), testTreeOpts()); err != nil {
			t.Fatal(err)
		}
	}
	var moved []any
	var rects []geom.Rect
	forEachLeafEntry(trees[0], func(r geom.Rect, d any) {
		if s.Router().Cell(r) == cell {
			rects = append(rects, r)
			moved = append(moved, d)
		}
	})
	for i, r := range rects {
		if !trees[0].Delete(r, moved[i]) {
			t.Fatalf("object %v missing from shard 0", moved[i])
		}
		trees[1].Insert(r, moved[i])
		wt.ShardRects[1] = wt.ShardRects[1].Union(r)
	}
	for i, tr := range trees {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		wt.Shards[i] = buf.Bytes()
	}
	wt.Assign[cell] = 1

	_, err = Decode(bytes.NewReader(encode(wt)), Options{Tree: testTreeOpts()})
	if err == nil {
		t.Fatalf("payload with cell %d migrated to shard 1 decoded; its %d objects would route to shard 0", cell, len(moved))
	}
	named := false
	for _, d := range moved {
		named = named || strings.Contains(err.Error(), fmt.Sprintf("snapshot object %v ", d))
	}
	if !named || !strings.Contains(err.Error(), "stored in shard 1 routes to shard 0") {
		t.Fatalf("refusal %q does not name a moved object %v", err, moved)
	}
}

// TestDecodeRejectsGarbage mirrors rtree's decoder hardening for the
// sharded envelope.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not gob")), Options{}); err == nil {
		t.Fatal("garbage decoded without error")
	}
	// A valid gob stream of the wrong shape must also fail.
	var buf bytes.Buffer
	s := newTestSharded(t, 2)
	if err := s.Shard(0).Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf, Options{Tree: testTreeOpts()}); err == nil {
		t.Fatal("single-tree snapshot decoded as sharded without error")
	}
}

// TestSnapshotDeterministicAcrossInstances: two sharded trees built by
// the same operation sequence encode to identical bytes — the property
// that makes snapshot diffing and content-addressed storage work.
func TestSnapshotDeterministicAcrossInstances(t *testing.T) {
	build := func() *ShardedTree {
		s := newTestSharded(t, 3)
		data := dataset.MustGenerate(dataset.UNI, 800, 21)
		for i, r := range data {
			s.Insert(r, i)
		}
		for i := 0; i < 200; i++ {
			s.Delete(data[i*3], i*3)
		}
		return s
	}
	var a, b bytes.Buffer
	if err := build().EncodeSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().EncodeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same build sequence, different snapshots (%d vs %d bytes)", a.Len(), b.Len())
	}
}
