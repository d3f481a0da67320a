package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// Keyed crash-recovery tests: keyed churn over HTTP against a
// fsync-always WAL, then the server is abandoned un-closed (the
// in-process stand-in for kill -9) and recovery must reproduce exactly
// the acknowledged keyed state — including moves, whose delete+reinsert
// must never come apart across a crash because SET is one log record.

// keyedOp is one acknowledged keyed mutation, in acknowledgement order
// (== LSN order here: a single client applies them sequentially).
type keyedOp struct {
	del  bool
	key  string
	rect geom.Rect
}

// applyOps replays the first n acknowledged ops into a fresh oracle map.
func applyOps(ops []keyedOp, n int) map[string]geom.Rect {
	m := make(map[string]geom.Rect)
	for _, op := range ops[:n] {
		if op.del {
			delete(m, op.key)
		} else {
			m[op.key] = op.rect
		}
	}
	return m
}

// collState dumps a collection as a map for comparison.
func collState(c *collection.Collection) map[string]geom.Rect {
	m := make(map[string]geom.Rect)
	c.Each(func(key string, r geom.Rect) bool {
		m[key] = r
		return true
	})
	return m
}

func diffStates(t *testing.T, got, want map[string]geom.Rect) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for k, r := range want {
			if got[k] != r {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	var missing, extra, moved []string
	for k, r := range want {
		g, ok := got[k]
		switch {
		case !ok:
			missing = append(missing, k)
		case g != r:
			moved = append(moved, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	sort.Strings(moved)
	t.Fatalf("recovered keyed state diverged: %d keys vs %d\nmissing: %v\nextra: %v\nwrong rect: %v",
		len(got), len(want), missing, extra, moved)
}

func newKeyedWALServer(t *testing.T, w *wal.WAL, snapPath string) (*Server, *httptest.Server, *collection.Collection) {
	t.Helper()
	tree, err := rtree.NewChecked(rtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	idx := rtree.NewConcurrent(tree)
	coll := collection.New(idx)
	s, err := New(Config{
		Index:        idx,
		Collection:   coll,
		SnapshotPath: snapPath,
		WAL:          w,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, coll
}

// TestKeyedCrashRecoveryWithSnapshot churns keyed objects, snapshots
// mid-stream (so recovery exercises keyed-section restore + replay past
// the LSN), churns more, crashes, and compares the recovered collection
// against the full acknowledged oracle — every op was fsynced, so the
// durable prefix is everything.
func TestKeyedCrashRecoveryWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 4096, Sync: wal.SyncAlways}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "keyed.snap")
	srv, ts, _ := newKeyedWALServer(t, w1, snap)

	rng := rand.New(rand.NewSource(99))
	var ops []keyedOp
	set := func(key string) {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		postJSON(t, ts.URL+"/set", map[string]any{"key": key, "rect": rectSlice(r)}, nil)
		ops = append(ops, keyedOp{key: key, rect: r})
	}
	del := func(key string) {
		postJSON(t, ts.URL+"/del", map[string]any{"key": key}, nil)
		ops = append(ops, keyedOp{del: true, key: key})
	}

	// Phase 1, covered by the snapshot: 60 keys, 20 moved, 10 deleted.
	for i := 0; i < 60; i++ {
		set(fmt.Sprintf("v-%02d", i))
	}
	for i := 0; i < 20; i++ {
		set(fmt.Sprintf("v-%02d", rng.Intn(60)))
	}
	for i := 0; i < 10; i++ {
		del(fmt.Sprintf("v-%02d", 2*i))
	}
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Phase 2, replay-only: more churn including re-setting deleted keys.
	for i := 0; i < 40; i++ {
		switch rng.Intn(3) {
		case 0:
			set(fmt.Sprintf("v-%02d", rng.Intn(60)))
		case 1:
			set(fmt.Sprintf("w-%02d", rng.Intn(30)))
		default:
			del(fmt.Sprintf("v-%02d", rng.Intn(60)))
		}
	}

	// Crash: abandon server and WAL un-closed.
	ts.Close()

	w2, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	idx2, pairs, lsn := loadSingle(t, snap)
	if lsn == 0 {
		t.Fatal("snapshot carries no LSN")
	}
	if len(pairs) == 0 {
		t.Fatal("snapshot carries no key map")
	}
	coll2 := collection.Restore(idx2, pairs)
	if _, err := Recover(w2, lsn, idx2, coll2, t.Logf); err != nil {
		t.Fatal(err)
	}
	diffStates(t, collState(coll2), applyOps(ops, len(ops)))
	if err := coll2.Validate(); err != nil {
		t.Fatalf("recovered collection invalid: %v", err)
	}
}

// TestKeyedCrashRecoveryTornTail truncates the log mid-record and
// requires the recovered collection to equal the durable-prefix oracle:
// exactly the first N acknowledged ops, where N is what recovery could
// replay — never a torn half-SET, never an op out of order.
func TestKeyedCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	walOpts := wal.Options{Dir: walDir, Sync: wal.SyncAlways}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newKeyedWALServer(t, w1, "")

	rng := rand.New(rand.NewSource(7))
	var ops []keyedOp
	for i := 0; i < 80; i++ {
		key := fmt.Sprintf("t-%02d", rng.Intn(25))
		if rng.Intn(4) == 0 {
			postJSON(t, ts.URL+"/del", map[string]any{"key": key}, nil)
			ops = append(ops, keyedOp{del: true, key: key})
		} else {
			r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
			postJSON(t, ts.URL+"/set", map[string]any{"key": key, "rect": rectSlice(r)}, nil)
			ops = append(ops, keyedOp{key: key, rect: r})
		}
	}
	ts.Close() // crash

	// Tear the tail: chop bytes off the last segment so the final
	// record(s) are unparseable.
	segs, err := filepath.Glob(filepath.Join(walDir, "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-9); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	tree2, _ := rtree.NewChecked(rtree.Options{MaxEntries: 16, MinEntries: 6})
	idx2 := rtree.NewConcurrent(tree2)
	coll2 := collection.New(idx2)
	res, err := Recover(w2, 0, idx2, coll2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Stats.Records
	if n >= len(ops) {
		t.Fatalf("replayed %d records from a torn log of %d ops", n, len(ops))
	}
	if n < len(ops)-2 {
		t.Fatalf("replayed only %d of %d ops; truncation of 9 bytes should cost at most the tail record(s)", n, len(ops))
	}
	diffStates(t, collState(coll2), applyOps(ops, n))
	if err := coll2.Validate(); err != nil {
		t.Fatalf("recovered collection invalid: %v", err)
	}
}
