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

func newWALTestServer(t *testing.T, w *wal.WAL, snapPath string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Index:        newIndex(t, rtree.Options{MaxEntries: 16, MinEntries: 6}),
		SnapshotPath: snapPath,
		WAL:          w,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestServerWALCrashRecovery is the headline path: sets, moves and dels
// over HTTP, a snapshot mid-stream, more writes, then an abandoned
// server. Recovery = restore snapshot, replay the log past its LSN;
// the rebuilt collection must hold exactly the acknowledged state, and
// a server restarted over it keeps appending.
func TestServerWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "index.snap")
	walOpts := wal.Options{Dir: walDir, SegmentBytes: 4096, Sync: wal.SyncAlways, Epoch: 1}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newWALTestServer(t, w1, snap)

	rng := rand.New(rand.NewSource(42))
	oracle := make(map[string]geom.Rect)
	set := func(key string) {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		setKey(t, ts.URL, key, r)
		oracle[key] = r
	}
	del := func(key string) {
		if !delKey(t, ts.URL, key).Deleted {
			t.Fatalf("del %s missed", key)
		}
		delete(oracle, key)
	}

	// Phase 1 (covered by the snapshot): 40 keys, 10 deleted.
	for i := 0; i < 40; i++ {
		set(fmt.Sprintf("pre-%02d", i))
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

	// Phase 2 (replay-only): fresh keys, moves of snapshotted keys, dels.
	for i := 0; i < 15; i++ {
		set(fmt.Sprintf("post-%02d", i))
	}
	for i := 30; i < 40; i++ {
		set(fmt.Sprintf("pre-%02d", i))
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
	idx2, coll2, lsn := restoreSnapshot(t, snap)
	if lsn == 0 {
		t.Fatal("snapshot carries no LSN")
	}
	if _, err := Recover(w2, lsn, coll2, t.Logf); err != nil {
		t.Fatal(err)
	}
	diffStates(t, collState(coll2), oracle)
	if got, want := indexIDs(t, idx2), oracleIDs(oracle); !equalStrings(got, want) {
		t.Fatalf("recovered %d keys in the index, oracle %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if err := idx2.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}

	// A server restarted over the recovered state continues the log.
	last := w2.LastLSN()
	s2, err := New(Config{Index: idx2, Collection: coll2, WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if res := setKey(t, ts2.URL, "post-recovery", geom.Square(0.5, 0.5, 0.01)); res.Size != len(oracle)+1 {
		t.Fatalf("post-recovery set: %+v, want size %d", res, len(oracle)+1)
	}
	if got := w2.LastLSN(); got != last+1 {
		t.Fatalf("post-recovery LSN = %d, want %d", got, last+1)
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
	s, ts := newWALTestServer(t, w, filepath.Join(dir, "index.snap"))

	for i := 0; i < 200; i++ {
		setKey(t, ts.URL, fmt.Sprintf("r-%03d", i), geom.Square(float64(i)/200, 0.5, 0.01))
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
	idx2, coll2, lsn := restoreSnapshot(t, filepath.Join(dir, "index.snap"))
	if _, err := Recover(w, lsn, coll2, nil); err != nil {
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
	s, ts := newTestServer(t, filepath.Join(dir, "missing-subdir", "index.snap"))
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

	// 4 concurrent clients × 50 sets: exercises group commit and the
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
				postJSON(t, ts.URL+"/set", map[string]any{"key": id, "rect": rectSlice(r)}, nil)
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
	idx2 := newIndex(t, rtree.Options{MaxEntries: 16, MinEntries: 6})
	var logged []string
	stats, err := Recover(w2, 0, collection.New(idx2), func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 200 {
		t.Fatalf("replayed %d records, want 200", stats.Records)
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
			snap := filepath.Join(dir, "index.snap")
			s, _ := newWALTestServer(t, w1, snap)

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
			opts := rtree.Options{MaxEntries: 16, MinEntries: 6}
			for c := 0; c < snappers; c++ {
				snapping.Add(1)
				go func() {
					defer snapping.Done()
					for i := 0; i < snapsEach; i++ {
						if err := s.SaveSnapshot(); err != nil {
							t.Errorf("snapshot: %v", err)
							return
						}
						idx, _, err := LoadSnapshot(snap, opts)
						if err != nil {
							t.Errorf("load: %v", err)
							return
						}
						coll, err := collection.Restore(idx)
						if err == nil {
							err = coll.Validate()
						}
						if err != nil {
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
			_, coll2, lsn := restoreSnapshot(t, snap)
			if withWAL {
				w2, err := wal.Open(walOpts)
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				if _, err := Recover(w2, lsn, coll2, t.Logf); err != nil {
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

// TestWALSameIDRaceReplayConsistent races SETs and DELs of one key at a
// time across goroutines, then crash-replays the log into a fresh
// collection. The per-key idMu stripes make WAL order equal apply
// order per key, so whatever interleaving actually happened, replay must
// reproduce the live collection's exact contents — without the stripes,
// a SET acknowledged after a racing DEL could replay in the opposite
// order and vanish.
func TestWALSameIDRaceReplayConsistent(t *testing.T) {
	dir := t.TempDir()
	// Group commit parks each SET and DEL between its append and its
	// apply, which is the window the stripes must close.
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 4096, Sync: wal.SyncInterval, Epoch: 1}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newWALTestServer(t, w1, filepath.Join(dir, "index.snap"))

	// Rounds of eight goroutines hitting one key at once: every round
	// ends the key's history with a burst of concurrent ops, so an
	// append order that differs from the apply order shows in the final
	// state instead of being overwritten by a later, serial op.
	const rounds, racers = 40, 8
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("hot-%02d", r)
		var wg sync.WaitGroup
		for c := 0; c < racers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if (r+c)%3 == 0 {
					// DEL (misses are fine — they replay as no-ops)
					if _, err := s.appendDelKey(key); err != nil {
						t.Errorf("del: %v", err)
					}
				} else if _, err := s.appendSet(key, geom.Square(float64(c)/10+0.05, float64(r)/50, 0.01)); err != nil {
					t.Errorf("set: %v", err)
				}
			}(c)
		}
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}
	live := collState(s.coll)

	// Crash and replay the whole log (no snapshot taken) into a fresh
	// collection: it must match the live one key for key.
	w2, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	idx2 := newIndex(t, rtree.Options{MaxEntries: 16, MinEntries: 6})
	coll2 := collection.New(idx2)
	if _, err := Recover(w2, 0, coll2, nil); err != nil {
		t.Fatal(err)
	}
	diffStates(t, collState(coll2), live)
	if got, want := indexIDs(t, idx2), indexIDs(t, s.index); !equalStrings(got, want) {
		t.Fatalf("replay diverged from acknowledged index:\n live %v\nreplay %v", want, got)
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
