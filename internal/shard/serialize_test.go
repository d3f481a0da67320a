package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
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

// TestSnapshotRoundTripAfterMigration is the adaptive-routing contract: the
// migrated cell→shard assignment, the heat counters and the (possibly
// loose, post-delete) bounds summaries all survive the round trip, so
// the restored tree makes the *identical pruning decisions* — pinned by
// requiring full QueryStats equality — and re-encodes byte-for-byte.
func TestSnapshotRoundTripAfterMigration(t *testing.T) {
	const n = 2000
	data := dataset.MustGenerate(dataset.GAU, n, 19)
	s := newTestSharded(t, 4)
	for i, r := range data {
		s.Insert(r, i)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		if _, err := s.MigrateCell(rng.Intn(s.Router().Cells()), rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	s.RebalanceStep(32)
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

	for c := 0; c < s.Router().Cells(); c++ {
		if got, want := restored.Router().CellShard(c), s.Router().CellShard(c); got != want {
			t.Fatalf("cell %d restored to shard %d, want the migrated assignment %d", c, got, want)
		}
		if got, want := restored.CellHeat(c), s.CellHeat(c); got != want {
			t.Fatalf("cell %d heat restored to %d, want %d", c, got, want)
		}
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored migrated tree invalid: %v", err)
	}

	var buf2 bytes.Buffer
	if err := restored.EncodeSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded migrated snapshot differs: %d vs %d bytes", buf1.Len(), buf2.Len())
	}

	world := geom.NewRect(0, 0, 1, 1)
	for qi, q := range dataset.RangeQueries(30, 0.001, world, 6) {
		wantRes, wantStats := s.Search(q)
		gotRes, gotStats := restored.Search(q)
		if !equalInts(sortedIDs(t, wantRes), sortedIDs(t, gotRes)) {
			t.Fatalf("query %d: result sets differ after migrated round trip", qi)
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
