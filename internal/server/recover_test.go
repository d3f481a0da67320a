package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// recoverSequential is the record-at-a-time replay Recover batches: one
// Set or Del per record, in LSN order. It is the oracle batched
// recovery must reproduce exactly.
func recoverSequential(w *wal.WAL, afterLSN uint64, coll *collection.Collection) (wal.ReplayStats, error) {
	return w.Replay(afterLSN, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecSet:
			coll.Set(rec.Key, rec.Rect)
		case wal.RecDelKey:
			coll.Del(rec.Key)
		}
		return nil
	})
}

// writeRecoveryLog writes a keyed churn log over several segments:
// initial SETs, small moves, cross-shard jumps, re-SETs at the same
// rect, DELs, re-SETs after a DEL and DELs of absent keys. It then
// cuts the last 10 bytes off the final record, as a crash mid-append
// would.
func writeRecoveryLog(t *testing.T, dir string) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, SegmentBytes: 64 << 10, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const keys = 3000
	pos := make(map[string]geom.Rect, keys)
	set := func(key string, r geom.Rect) {
		if _, err := w.AppendSet(r, key); err != nil {
			t.Fatal(err)
		}
		pos[key] = r
	}
	del := func(key string) {
		if _, err := w.AppendDelKey(pos[key], key); err != nil {
			t.Fatal(err)
		}
		delete(pos, key)
	}
	randRect := func() geom.Rect { return geom.Square(rng.Float64(), rng.Float64(), 0.01*rng.Float64()) }
	for i := 0; i < keys; i++ {
		set(fmt.Sprintf("k%04d", i), randRect())
	}
	for i := 0; i < 9000; i++ {
		key := fmt.Sprintf("k%04d", rng.Intn(keys))
		r, live := pos[key]
		switch x := rng.Intn(100); {
		case !live && x < 60:
			set(key, randRect()) // re-SET after a DEL
		case !live:
			del(key) // DEL of an absent key: logged, replays as a no-op
		case x < 70:
			c := r.Center()
			set(key, geom.Square(c.X+0.02*(rng.Float64()-0.5), c.Y+0.02*(rng.Float64()-0.5), r.Width()))
		case x < 82:
			set(key, randRect()) // a jump, usually to another shard
		case x < 86:
			set(key, r) // SET to the same rect
		default:
			del(key)
		}
	}
	if _, err := w.AppendDelKey(geom.Rect{}, "never-set"); err != nil {
		t.Fatal(err)
	}
	set("torn", randRect())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want a log of several segments, got %d (%v)", len(segs), err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverBatchedMatchesSequential recovers one log twice — batched
// through Recover and record at a time through recoverSequential — from
// an empty index and from a snapshot whose LSN falls inside a batch,
// into one shard and into four. Every shard's tree must encode
// byte-identically, the key maps and counters must be equal, the torn
// record must be gone, the batched collection must validate (each
// object inside its cell and shard bounds, counts exact) and its pruned
// answers must equal an exhaustive scan of the key map.
func TestRecoverBatchedMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	writeRecoveryLog(t, dir)
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Metrics().TornTruncations != 1 {
		t.Fatalf("torn truncations = %d, want 1", w.Metrics().TornTruncations)
	}
	opts := rtree.Options{MaxEntries: 16, MinEntries: 6}

	for _, shards := range []int{1, 4} {
		for _, afterLSN := range []uint64{0, 4567} {
			t.Run(fmt.Sprintf("shards=%d/after=%d", shards, afterLSN), func(t *testing.T) {
				// The snapshot: the log up to afterLSN, replayed record at
				// a time and encoded.
				base, err := shard.New(shard.Options{Shards: shards, Tree: opts})
				if err != nil {
					t.Fatal(err)
				}
				baseColl := collection.New(base)
				if _, err := w.Replay(0, func(rec wal.Record) error {
					if rec.LSN > afterLSN {
						return nil
					}
					if rec.Type == wal.RecSet {
						baseColl.Set(rec.Key, rec.Rect)
					} else {
						baseColl.Del(rec.Key)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				var snap bytes.Buffer
				if err := base.EncodeSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				restore := func() (*shard.ShardedTree, *collection.Collection) {
					ix, err := shard.Decode(bytes.NewReader(snap.Bytes()), shard.Options{Tree: opts})
					if err != nil {
						t.Fatal(err)
					}
					coll, err := collection.Restore(ix)
					if err != nil {
						t.Fatal(err)
					}
					return ix, coll
				}

				gotIx, got := restore()
				gotStats, err := Recover(w, afterLSN, got, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantIx, want := restore()
				wantStats, err := recoverSequential(w, afterLSN, want)
				if err != nil {
					t.Fatal(err)
				}
				assertRecoveredAlike(t, gotStats, wantStats, gotIx, got, wantIx, want)
				if _, ok := keyMap(got)["torn"]; ok {
					t.Fatal("the torn record was replayed")
				}
			})
		}
	}
}

// assertRecoveredAlike checks a batched recovery against the sequential
// one of the same log: equal record counts, a measured duration,
// byte-identical shard trees, equal key maps and counters, a collection
// that validates (each object inside its cell and shard bounds, counts
// exact) and pruned answers equal to an exhaustive scan of the key map.
func assertRecoveredAlike(t *testing.T, gotStats, wantStats wal.ReplayStats, gotIx *shard.ShardedTree, got *collection.Collection, wantIx *shard.ShardedTree, want *collection.Collection) {
	t.Helper()
	if gotStats.Applied != wantStats.Applied || gotStats.Applied == 0 {
		t.Fatalf("batched replay applied %d records, sequential %d", gotStats.Applied, wantStats.Applied)
	}
	if gotStats.Duration <= 0 {
		t.Fatalf("replay duration %v", gotStats.Duration)
	}
	for i := 0; i < gotIx.NumShards(); i++ {
		g, wt := shardBytes(t, gotIx.Shard(i)), shardBytes(t, wantIx.Shard(i))
		if !bytes.Equal(g, wt) {
			t.Fatalf("shard %d: batched tree differs from sequential (%d vs %d bytes)", i, len(g), len(wt))
		}
	}
	gotKeys, wantKeys := keyMap(got), keyMap(want)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("batched key map holds %d keys, sequential %d", len(gotKeys), len(wantKeys))
	}
	for k, r := range wantKeys {
		if gotKeys[k] != r {
			t.Fatalf("key %q: batched %v, sequential %v", k, gotKeys[k], r)
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("counters: batched %+v, sequential %+v", got.Stats(), want.Stats())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	assertPrunedMatchesScan(t, gotIx, gotKeys)
}

// applyCounter is a sharded index that counts index batches, one per
// Recover flush.
type applyCounter struct {
	*shard.ShardedTree
	applies int
}

func (a *applyCounter) Apply(ops []rtree.Op) int {
	a.applies++
	return a.ShardedTree.Apply(ops)
}

// TestRecoverShrinkingLiveSet recovers a log that sets 2000 keys,
// deletes all but 10 of them and then moves those 10 3000 times. The
// trees' arenas keep their 2000-object size after the deletes, so the
// batches must keep their size too: a batch bound that followed the
// live count down to 10 would flush 300 times, each flush copying the
// full arenas, where sequential replay pays O(log n) per record. The
// result must still equal sequential replay exactly.
func TestRecoverShrinkingLiveSet(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(5))
	randRect := func() geom.Rect { return geom.Square(rng.Float64(), rng.Float64(), 0.01*rng.Float64()) }
	const keys, kept, moves = 2000, 10, 3000
	for i := 0; i < keys; i++ {
		if _, err := w.AppendSet(randRect(), fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := kept; i < keys; i++ {
		if _, err := w.AppendDelKey(geom.Rect{}, fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < moves; i++ {
		if _, err := w.AppendSet(randRect(), fmt.Sprintf("k%04d", rng.Intn(kept))); err != nil {
			t.Fatal(err)
		}
	}

	opts := shard.Options{Shards: 4, Tree: rtree.Options{MaxEntries: 16, MinEntries: 6}}
	gotIx, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	counter := &applyCounter{ShardedTree: gotIx}
	got := collection.New(counter)
	gotStats, err := Recover(w, 0, got, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIx, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := collection.New(wantIx)
	wantStats, err := recoverSequential(w, 0, want)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredAlike(t, gotStats, wantStats, gotIx, got, wantIx, want)
	if got.Len() != kept {
		t.Fatalf("recovered %d keys, want %d", got.Len(), kept)
	}
	// Doubling up to 2000 live keys takes 12 flushes; the remaining
	// 4990 records fit in 3 batches of 2000.
	if counter.applies > 16 {
		t.Fatalf("recovery flushed %d batches for %d records; want at most 16", counter.applies, gotStats.Applied)
	}
}

func shardBytes(t *testing.T, ct *rtree.ConcurrentTree) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	ct.View(func(tr *rtree.Tree) { err = tr.Encode(&buf) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func keyMap(c *collection.Collection) map[string]geom.Rect {
	m := make(map[string]geom.Rect, c.Len())
	c.Each(func(k string, r geom.Rect) bool { m[k] = r; return true })
	return m
}

// assertPrunedMatchesScan checks the index's pruned range and KNN
// answers against an exhaustive scan of the key map.
func assertPrunedMatchesScan(t *testing.T, ix *shard.ShardedTree, live map[string]geom.Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		side := []float64{0.001, 0.02, 0.2}[i%3]
		q := geom.Square(rng.Float64(), rng.Float64(), side)
		res, _ := ix.SearchAppend(q, nil)
		got := make([]string, len(res))
		for j, d := range res {
			got[j] = d.(string)
		}
		var want []string
		for k, r := range live {
			if r.Intersects(q) {
				want = append(want, k)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("range %v: pruned %d hits, scan %d", q, len(got), len(want))
		}

		p := geom.Pt(rng.Float64(), rng.Float64())
		const k = 25
		nbrs, _ := ix.KNNAppend(p, k, nil)
		dists := make([]float64, 0, len(live))
		for _, r := range live {
			dists = append(dists, r.MinDistSq(p))
		}
		sort.Float64s(dists)
		if len(nbrs) != min(k, len(dists)) {
			t.Fatalf("knn %v: %d neighbors, want %d", p, len(nbrs), min(k, len(dists)))
		}
		for j, n := range nbrs {
			if n.DistSq != dists[j] || live[n.Data.(string)] != n.Rect {
				t.Fatalf("knn %v: neighbor %d = %v at %v, scan has distance %v", p, j, n.Data, n.DistSq, dists[j])
			}
		}
	}
}

// recoverBench is the moving_durable-shaped recovery input, built once
// per process: a production-shaped table policy distilled from random
// weights and a log of 20 000 GAU keys followed by 52 000 random-walk
// moves of about 1 % of the unit square each.
var recoverBench struct {
	once    sync.Once
	opts    rtree.Options
	records []wal.Record
	err     error
}

func recoverBenchInput() (rtree.Options, []wal.Record, error) {
	rb := &recoverBench
	rb.once.Do(func() {
		const k, maxEntries, minEntries = 2, 50, 20
		pol := &core.Policy{
			ChooseNet:  mlp.New(rand.New(rand.NewSource(1)), mlp.SELU, 4*k, 64, k),
			K:          k,
			MaxEntries: maxEntries,
			MinEntries: minEntries,
		}
		bundle, _, err := core.Distill(pol, core.DistillConfig{Samples: 5000, Seed: 1})
		if err != nil {
			rb.err = err
			return
		}
		hot, err := core.NewHotPolicy(bundle, "table")
		if err != nil {
			rb.err = err
			return
		}
		rb.opts = rtree.Options{MaxEntries: maxEntries, MinEntries: minEntries, Chooser: hot.Chooser(), Splitter: hot.Splitter()}

		const keys, moves = 20000, 52000
		pos, err := dataset.Generate(dataset.GAU, keys, 1)
		if err != nil {
			rb.err = err
			return
		}
		rng := rand.New(rand.NewSource(2))
		step := func(v, side float64) float64 {
			v += (rng.Float64() - 0.5) * 0.02
			return min(max(v, 0), 1-side)
		}
		for i, r := range pos {
			rb.records = append(rb.records, wal.Record{Type: wal.RecSet, Key: fmt.Sprintf("obj-%07d", i), Rect: r})
		}
		for j := 0; j < moves; j++ {
			i := rng.Intn(keys)
			r := pos[i]
			w, h := r.Width(), r.Height()
			x, y := step(r.MinX, w), step(r.MinY, h)
			pos[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			rb.records = append(rb.records, wal.Record{Type: wal.RecSet, Key: fmt.Sprintf("obj-%07d", i), Rect: pos[i]})
		}
	})
	return rb.opts, rb.records, rb.err
}

// BenchmarkRecover times a restart's log work on the moving_durable
// shape: wal.Open (segment scan and torn-tail check) plus Recover into
// an empty four-shard index behind the table policy. records/s counts
// replayed records.
func BenchmarkRecover(b *testing.B) {
	opts, records, err := recoverBenchInput()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, Epoch: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range records {
		if _, err := w.AppendSet(rec.Rect, rec.Key); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := shard.New(shard.Options{Shards: 4, Tree: opts})
		if err != nil {
			b.Fatal(err)
		}
		coll := collection.New(ix)
		b.StartTimer()
		start := time.Now()
		w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, Epoch: 4})
		if err != nil {
			b.Fatal(err)
		}
		st, err := Recover(w, 0, coll, nil)
		elapsed += time.Since(start)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if st.Applied != len(records) || coll.Len() != 20000 {
			b.Fatalf("replayed %d records into %d keys", st.Applied, coll.Len())
		}
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(records)*b.N)/elapsed.Seconds(), "records/s")
}
