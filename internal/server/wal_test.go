package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// End-to-end crash-recovery tests: drive a WAL-backed server over HTTP,
// abandon it without any shutdown (the in-process stand-in for kill -9
// — nothing flushes, closes, or snapshots), then recover from the
// snapshot + log into a fresh index and compare against an oracle of
// every acknowledged write.

var testWorld = geom.NewRect(-100, -100, 100, 100)

// indexIDs collects every stored ID via a world-covering range query.
func indexIDs(t *testing.T, idx Index) []string {
	t.Helper()
	var ids []string
	idx.SearchEach(testWorld, func(_ geom.Rect, v any) {
		s, ok := v.(string)
		if !ok {
			t.Fatalf("payload %T, want string", v)
		}
		ids = append(ids, s)
	})
	sort.Strings(ids)
	return ids
}

func oracleIDs(oracle map[string]geom.Rect) []string {
	ids := make([]string, 0, len(oracle))
	for id := range oracle {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func newWALTestServer(t *testing.T, w *wal.WAL, snapPath string, seed uint64) (*Server, *httptest.Server) {
	t.Helper()
	tree, err := rtree.NewChecked(rtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Tree:         rtree.NewConcurrent(tree),
		SnapshotPath: snapPath,
		WAL:          w,
		AutoIDSeed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestServerWALCrashRecovery is the headline path: inserts and deletes
// over HTTP, a snapshot mid-stream, more writes, then an abandoned
// server. Recovery = restore snapshot, replay the log past its LSN;
// the rebuilt index must hold exactly the acknowledged state, and the
// auto-ID counter must resume past every replayed ID.
func TestServerWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "tree.gob")
	walOpts := wal.Options{Dir: walDir, SegmentBytes: 4096, Sync: wal.SyncAlways, Epoch: 1}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newWALTestServer(t, w1, snap, 0)

	rng := rand.New(rand.NewSource(42))
	oracle := make(map[string]geom.Rect)
	insert := func(id string) string {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		var resp struct {
			Inserted int      `json:"inserted"`
			IDs      []string `json:"ids"`
		}
		postJSON(t, ts.URL+"/insert", map[string]any{"id": id, "rect": rectSlice(r)}, &resp)
		if resp.Inserted != 1 {
			t.Fatalf("inserted = %d", resp.Inserted)
		}
		if id == "" {
			if len(resp.IDs) != 1 {
				t.Fatalf("auto-ID insert echoed %d IDs", len(resp.IDs))
			}
			id = resp.IDs[0]
		}
		oracle[id] = r
		return id
	}
	del := func(id string) {
		var resp deleteResponse
		postJSON(t, ts.URL+"/delete", map[string]any{"id": id, "rect": rectSlice(oracle[id])}, &resp)
		if !resp.Deleted {
			t.Fatalf("delete %s missed", id)
		}
		delete(oracle, id)
	}

	// Phase 1 (covered by the snapshot): 40 named objects, 10 deleted.
	for i := 0; i < 40; i++ {
		insert(fmt.Sprintf("pre-%02d", i))
	}
	for i := 0; i < 10; i++ {
		del(fmt.Sprintf("pre-%02d", i))
	}
	if resp := postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d", resp.StatusCode)
	}

	// The /stats wal section and snapshot LSN must be live.
	var stats struct {
		Snapshots struct {
			Written int64  `json:"written"`
			Errors  int64  `json:"errors"`
			LSN     uint64 `json:"lsn"`
		} `json:"snapshots"`
		WAL *struct {
			Dir     string `json:"dir"`
			Policy  string `json:"fsync_policy"`
			Appends int64  `json:"appends"`
		} `json:"wal"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Snapshots.Written != 1 || stats.Snapshots.Errors != 0 {
		t.Fatalf("snapshots = %+v", stats.Snapshots)
	}
	if stats.Snapshots.LSN == 0 {
		t.Fatal("snapshot LSN not recorded in /stats")
	}
	if stats.WAL == nil || stats.WAL.Appends != 50 || stats.WAL.Policy != "always" {
		t.Fatalf("wal stats = %+v", stats.WAL)
	}

	// Phase 2 (replay-only): a batch, auto-ID inserts, more deletes.
	batch := make([]map[string]any, 15)
	for i := range batch {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		id := fmt.Sprintf("post-%02d", i)
		batch[i] = map[string]any{"id": id, "rect": rectSlice(r)}
		oracle[id] = r
	}
	postJSON(t, ts.URL+"/insert", map[string]any{"items": batch}, nil)
	var lastAuto string
	for i := 0; i < 10; i++ {
		lastAuto = insert("")
	}
	if lastAuto != "obj-10" {
		t.Fatalf("last auto ID = %s, want obj-10", lastAuto)
	}
	del("pre-20")
	del("post-03")

	// Crash: stop the listener, abandon Server and WAL un-closed.
	ts.Close()

	// Recover into a fresh index.
	w2, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	idx2, _, lsn := loadSingle(t, snap)
	if lsn == 0 {
		t.Fatal("snapshot carries no LSN")
	}
	res, err := Recover(w2, lsn, idx2, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAutoID != 10 {
		t.Fatalf("MaxAutoID = %d, want 10", res.MaxAutoID)
	}
	if got, want := indexIDs(t, idx2), oracleIDs(oracle); !equalStrings(got, want) {
		t.Fatalf("recovered %d IDs, oracle %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if err := idx2.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}

	// A restarted server seeded from the recovery must not recycle IDs.
	_, ts2 := newWALTestServer(t, w2, snap, res.MaxAutoID)
	var resp struct {
		IDs []string `json:"ids"`
	}
	postJSON(t, ts2.URL+"/insert", map[string]any{"rect": rectSlice(geom.Square(0.5, 0.5, 0.01))}, &resp)
	if len(resp.IDs) != 1 || resp.IDs[0] != "obj-11" {
		t.Fatalf("post-recovery auto ID = %v, want [obj-11]", resp.IDs)
	}
}

// TestServerWALSnapshotRetiresSegments forces rotations with a tiny
// segment size, snapshots, and checks that fully-covered segments are
// gone — the log stays bounded by snapshot cadence, not total writes.
func TestServerWALSnapshotRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 512, Sync: wal.SyncNone, Epoch: 1}
	w, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, ts := newWALTestServer(t, w, filepath.Join(dir, "tree.gob"), 0)

	for i := 0; i < 200; i++ {
		postJSON(t, ts.URL+"/insert", map[string]any{
			"id":   fmt.Sprintf("r-%03d", i),
			"rect": rectSlice(geom.Square(float64(i)/200, 0.5, 0.01)),
		}, nil)
	}
	before := w.Metrics()
	if before.Segments < 3 {
		t.Fatalf("only %d segments before snapshot; rotation not exercised", before.Segments)
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	after := w.Metrics()
	if after.RetiredSegments == 0 {
		t.Fatalf("snapshot retired nothing (still %d segments)", after.Segments)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d -> %d, want a decrease", before.Segments, after.Segments)
	}
	// Everything the snapshot covers is gone from disk, yet restore +
	// replay still reproduces the full state.
	idx2, _, lsn := loadSingle(t, filepath.Join(dir, "tree.gob"))
	if _, err := Recover(w, lsn, idx2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if idx2.Len() != 200 {
		t.Fatalf("recovered %d objects, want 200", idx2.Len())
	}
}

// TestSnapshotErrorsCounter: a failing snapshot attempt must surface in
// the snapshot_errors counter (the satellite for silent background
// failures), and a later successful one must not reset it.
func TestSnapshotErrorsCounter(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, filepath.Join(dir, "missing-subdir", "tree.gob"))
	if err := s.SaveSnapshot(); err == nil {
		t.Fatal("snapshot into a nonexistent directory succeeded")
	}
	var stats struct {
		Snapshots struct {
			Written int64 `json:"written"`
			Errors  int64 `json:"errors"`
		} `json:"snapshots"`
		WAL any `json:"wal"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Snapshots.Errors != 1 || stats.Snapshots.Written != 0 {
		t.Fatalf("snapshots = %+v, want 1 error, 0 written", stats.Snapshots)
	}
	if stats.WAL != nil {
		t.Fatal("/stats grew a wal section on a WAL-less server")
	}
}

// TestServerWALShardedRecovery writes through a 4-shard server (epoch
// 4) with interval fsync and concurrent clients, crashes it, and
// replays the log into a SINGLE tree: records route dynamically, so the
// shard-aware format recovers across topology changes, with the epoch
// mismatch reported but harmless.
func TestServerWALShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 8192, Sync: wal.SyncInterval, Epoch: 4}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.New(shard.Options{Shards: 4, Tree: rtree.Options{MaxEntries: 16, MinEntries: 6}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Index: st, WAL: w1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// 4 concurrent clients × 50 inserts: exercises group commit and the
	// shared walMu under -race.
	var (
		mu     sync.Mutex
		oracle = make(map[string]geom.Rect)
		wg     sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("c%d-%02d", c, i)
				r := geom.Square(rng.Float64(), rng.Float64(), 0.005)
				postJSON(t, ts.URL+"/insert", map[string]any{"id": id, "rect": rectSlice(r)}, nil)
				mu.Lock()
				oracle[id] = r
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Crash, then recover into a single tree under epoch 1.
	ts.Close()
	reopened := walOpts
	reopened.Epoch = 1
	w2, err := wal.Open(reopened)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	tree, err := rtree.NewChecked(rtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	idx2 := rtree.NewConcurrent(tree)
	var logged []string
	res, err := Recover(w2, 0, idx2, nil, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 200 {
		t.Fatalf("replayed %d records, want 200", res.Stats.Records)
	}
	if got, want := indexIDs(t, idx2), oracleIDs(oracle); !equalStrings(got, want) {
		t.Fatalf("recovered %d IDs, want %d", len(got), len(want))
	}
	epochNoted := false
	for _, line := range logged {
		if strings.Contains(line, "epoch") {
			epochNoted = true
		}
	}
	if !epochNoted {
		t.Fatal("epoch mismatch not reported during replay")
	}
}

// TestConcurrentSnapshotsAndWrites hammers SaveSnapshot from several
// goroutines (the POST /snapshot + background-loop + Close shape) while
// writers move keyed objects, with and without a log. Every snapshot
// must describe one instant: restored, its key map and its index agree
// (collection.Validate) — without the capture lock a SET mid-move is
// captured with its key map entry at one position and its index object
// at another. With a log, tiny segments make snapshots retire segments
// throughout; SaveSnapshot is single-flighted, and without that a save
// carrying an older LSN could land over a newer one whose segments were
// already retired, so the recovery below would either hit the replay
// gap check or come up short of the acknowledged writes.
func TestConcurrentSnapshotsAndWrites(t *testing.T) {
	for _, withWAL := range []bool{true, false} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			dir := t.TempDir()
			walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 512, Sync: wal.SyncNone, Epoch: 1}
			var w1 *wal.WAL
			if withWAL {
				var err error
				if w1, err = wal.Open(walOpts); err != nil {
					t.Fatal(err)
				}
			}
			snap := filepath.Join(dir, "tree.gob")
			s, _ := newWALTestServer(t, w1, snap, 0)

			// Each writer owns its keys — placed up front, then moved round and
			// round until the snapshotters are done — so the last acknowledged
			// position of every key is well defined.
			const writers, keysEach, snappers, snapsEach = 2, 1500, 3, 6
			oracle := make(map[string]geom.Rect)
			var mu sync.Mutex
			set := func(rng *rand.Rand, c, k int) error {
				key := fmt.Sprintf("w%d-%04d", c, k)
				r := geom.Square(rng.Float64(), rng.Float64(), 0.005)
				if _, err := s.appendSet(key, r); err != nil {
					return fmt.Errorf("set %s: %v", key, err)
				}
				mu.Lock()
				oracle[key] = r
				mu.Unlock()
				return nil
			}
			var (
				moving, snapping sync.WaitGroup
				stop             = make(chan struct{})
			)
			for c := 0; c < writers; c++ {
				rng := rand.New(rand.NewSource(int64(c)))
				for k := 0; k < keysEach; k++ {
					if err := set(rng, c, k); err != nil {
						t.Fatal(err)
					}
				}
				moving.Add(1)
				go func(c int) {
					defer moving.Done()
					for k := 0; ; k = (k + 1) % keysEach {
						select {
						case <-stop:
							return
						default:
						}
						if err := set(rng, c, k); err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			opts := shard.Options{Tree: rtree.Options{MaxEntries: 16, MinEntries: 6}}
			for c := 0; c < snappers; c++ {
				snapping.Add(1)
				go func() {
					defer snapping.Done()
					for i := 0; i < snapsEach; i++ {
						if err := s.SaveSnapshot(); err != nil {
							t.Errorf("snapshot: %v", err)
							return
						}
						idx, pairs, _, err := LoadSnapshot(snap, opts)
						if err != nil {
							t.Errorf("load: %v", err)
							return
						}
						if err := collection.Restore(idx, pairs).Validate(); err != nil {
							t.Errorf("snapshot taken under concurrent SETs is torn: %v", err)
							return
						}
					}
				}()
			}
			snapping.Wait()
			close(stop)
			moving.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// With a log: crash (abandon everything un-closed) and recover —
			// the snapshot's LSN and the surviving segments must still join
			// up. Without: a final snapshot is the whole state.
			if !withWAL {
				if err := s.SaveSnapshot(); err != nil {
					t.Fatal(err)
				}
			}
			idx2, pairs, lsn := loadSingle(t, snap)
			coll2 := collection.Restore(idx2, pairs)
			if withWAL {
				w2, err := wal.Open(walOpts)
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				if _, err := Recover(w2, lsn, idx2, coll2, t.Logf); err != nil {
					t.Fatalf("recovery after concurrent snapshots: %v", err)
				}
			}
			diffStates(t, collState(coll2), oracle)
			if err := coll2.Validate(); err != nil {
				t.Fatalf("recovered collection invalid: %v", err)
			}
		})
	}
}

// TestWALSameIDRaceReplayConsistent races inserts and deletes of a tiny
// hot-ID set across goroutines, then crash-replays the log into a fresh
// index. The per-ID stripe locks make WAL order equal apply order per
// key, so whatever interleaving actually happened, replay must
// reproduce the live index's exact contents — without the stripes, an
// insert acknowledged after a racing delete could replay in the
// opposite order and vanish.
func TestWALSameIDRaceReplayConsistent(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 4096, Sync: wal.SyncNone, Epoch: 1}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newWALTestServer(t, w1, filepath.Join(dir, "tree.gob"), 0)

	// A fixed rect per hot ID so racing delete/insert pairs target the
	// same (rect, id) entry.
	const hotIDs = 4
	rectFor := func(k int) geom.Rect { return geom.Square(float64(k)/10+0.05, 0.5, 0.01) }

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < 40; i++ {
				k := rng.Intn(hotIDs)
				id := fmt.Sprintf("hot-%d", k)
				switch rng.Intn(3) {
				case 0: // single insert
					if err := s.appendInsert([]geom.Rect{rectFor(k)}, []any{id}, []string{id}, true); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				case 1: // batch touching two hot IDs
					k2 := (k + 1) % hotIDs
					id2 := fmt.Sprintf("hot-%d", k2)
					rects := []geom.Rect{rectFor(k), rectFor(k2)}
					if err := s.appendInsert(rects, []any{id, id2}, []string{id, id2}, false); err != nil {
						t.Errorf("batch insert: %v", err)
						return
					}
				default: // delete (misses are fine — they replay as no-ops)
					if _, err := s.appendDelete(rectFor(k), id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	live := indexIDs(t, s.index)

	// Crash and replay the whole log (no snapshot taken) into a fresh
	// tree: the multiset of surviving entries must match the live index.
	w2, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	tree2, err := rtree.NewChecked(rtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	idx2 := rtree.NewConcurrent(tree2)
	if _, err := Recover(w2, 0, idx2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := indexIDs(t, idx2); !equalStrings(got, live) {
		t.Fatalf("replay diverged from acknowledged state:\n live %v\nreplay %v", live, got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
