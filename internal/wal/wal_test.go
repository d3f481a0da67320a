package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// keyedTree applies WAL records to a plain tree by key, the rule the
// serving layer's recovery applies through the collection: SET moves
// the key (its old rect out, the new one in), DEL removes it.
type keyedTree struct {
	tr  *rtree.Tree
	pos map[string]geom.Rect
}

func newKeyedTree() *keyedTree {
	return &keyedTree{tr: rtree.New(rtree.Options{}), pos: map[string]geom.Rect{}}
}

func (k *keyedTree) apply(rec Record) {
	if old, ok := k.pos[rec.Key]; ok {
		k.tr.Delete(old, rec.Key)
		delete(k.pos, rec.Key)
	}
	if rec.Type == RecSet {
		k.tr.Insert(rec.Rect, rec.Key)
		k.pos[rec.Key] = rec.Rect
	}
}

// appendRecord appends rec through the public API for its type.
func appendRecord(w *WAL, rec Record) (uint64, error) {
	if rec.Type == RecDelKey {
		return w.AppendDelKey(rec.Rect, rec.Key)
	}
	return w.AppendSet(rec.Rect, rec.Key)
}

// encodeBytes returns the tree's canonical v2 snapshot encoding; two
// trees built by the same operation sequence encode byte-identically.
func encodeBytes(t *testing.T, tr *rtree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, opts Options) *WAL {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return w
}

func randRect(rng *rand.Rand) geom.Rect {
	cx, cy := rng.Float64(), rng.Float64()
	return geom.Square(cx, cy, 0.01+0.02*rng.Float64())
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Epoch: 7})
	rng := rand.New(rand.NewSource(1))

	oracle := rtree.New(rtree.Options{})
	var wantLSN uint64
	appendOp := func(lsn uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		wantLSN++
		if lsn != wantLSN {
			t.Fatalf("lsn = %d, want %d", lsn, wantLSN)
		}
	}

	pos := make([]geom.Rect, 40)
	key := func(i int) string { return fmt.Sprintf("one-%d", i) }
	for i := range pos {
		pos[i] = randRect(rng)
		appendOp(w.AppendSet(pos[i], key(i)))
		oracle.Insert(pos[i], key(i))
	}
	for i := 20; i < 35; i++ { // moves
		r := randRect(rng)
		appendOp(w.AppendSet(r, key(i)))
		oracle.Delete(pos[i], key(i))
		oracle.Insert(r, key(i))
		pos[i] = r
	}
	for i := 0; i < 10; i++ {
		appendOp(w.AppendDelKey(pos[i], key(i)))
		oracle.Delete(pos[i], key(i))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen (crash-restart shape) and replay everything.
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if got := w2.LastLSN(); got != wantLSN {
		t.Fatalf("LastLSN after reopen = %d, want %d", got, wantLSN)
	}
	recovered := newKeyedTree()
	var epochs []uint32
	stats, err := w2.Replay(0, func(rec Record) error {
		epochs = append(epochs, rec.Epoch)
		recovered.apply(rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Applied != int(wantLSN) || stats.Skipped != 0 || wantLSN != 40+15+10 {
		t.Fatalf("replay stats = %+v, want %d applied", stats, wantLSN)
	}
	for _, e := range epochs {
		if e != 7 {
			t.Fatalf("record epoch = %d, want 7", e)
		}
	}
	if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, oracle)) {
		t.Fatal("recovered tree differs from oracle")
	}
	if recovered.tr.Len() != 40-10 {
		t.Fatalf("recovered len = %d", recovered.tr.Len())
	}
}

func TestReplayFromSnapshotLSN(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	defer w.Close()
	rng := rand.New(rand.NewSource(2))

	full := rtree.New(rtree.Options{})
	tail := rtree.New(rtree.Options{})
	var snapLSN uint64
	for i := 0; i < 30; i++ {
		r := randRect(rng)
		id := fmt.Sprintf("o%d", i)
		lsn, err := w.AppendSet(r, id)
		if err != nil {
			t.Fatal(err)
		}
		full.Insert(r, id)
		if i < 12 {
			snapLSN = lsn
		} else {
			tail.Insert(r, id)
		}
	}

	recovered := newKeyedTree()
	stats, err := w.Replay(snapLSN, func(rec Record) error {
		recovered.apply(rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 18 || stats.Skipped != 12 {
		t.Fatalf("stats = %+v, want 18 applied / 12 skipped", stats)
	}
	if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, tail)) {
		t.Fatal("replay-from-LSN applied the wrong record suffix")
	}
}

func TestRetire(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rotates.
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	rng := rand.New(rand.NewSource(3))
	var lastLSN uint64
	for i := 0; i < 50; i++ {
		lsn, err := w.AppendSet(randRect(rng), fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	m := w.Metrics()
	if m.Segments < 4 {
		t.Fatalf("expected several segments, got %d", m.Segments)
	}

	// Retiring below the first segment's range removes nothing.
	if n, err := w.Retire(0); err != nil || n != 0 {
		t.Fatalf("Retire(0) = %d, %v", n, err)
	}
	// Retiring at the last LSN keeps only the active segment.
	n, err := w.Retire(lastLSN)
	if err != nil {
		t.Fatal(err)
	}
	if n != m.Segments-1 {
		t.Fatalf("retired %d segments, want %d", n, m.Segments-1)
	}
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("%d segments on disk after retire, want 1", len(left))
	}

	// The log still appends and replays past the retirement point.
	if _, err := w.AppendSet(randRect(rng), "after-retire"); err != nil {
		t.Fatal(err)
	}
	var applied int
	if _, err := w.Replay(lastLSN, func(Record) error { applied++; return nil }); err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("replay after retire applied %d records, want 1", applied)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopen of the retired log continues the LSN sequence.
	w2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer w2.Close()
	if got := w2.LastLSN(); got != lastLSN+1 {
		t.Fatalf("LastLSN after retire+reopen = %d, want %d", got, lastLSN+1)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, Options{Dir: dir, Sync: pol})
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 20; i++ {
				if _, err := w.AppendSet(randRect(rng), fmt.Sprintf("p%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			m := w.Metrics()
			if pol == SyncAlways && m.Fsyncs < 20 {
				t.Fatalf("always: %d fsyncs for 20 appends", m.Fsyncs)
			}
			if pol == SyncNone && m.Fsyncs > 2 { // header syncs only
				t.Fatalf("none: unexpected %d fsyncs", m.Fsyncs)
			}
			if m.Appends != 20 || m.AppendedBytes == 0 {
				t.Fatalf("metrics = %+v", m)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := mustOpen(t, Options{Dir: dir})
			defer w2.Close()
			var n int
			if _, err := w2.Replay(0, func(Record) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			if n != 20 {
				t.Fatalf("%d records survived, want 20", n)
			}
		})
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncInterval, SyncInterval: DefaultSyncInterval, SegmentBytes: 4096})
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perWorker; i++ {
				if _, err := w.AppendSet(randRect(rng), fmt.Sprintf("w%d-%d", g, i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := w.LastLSN(); got != workers*perWorker {
		t.Fatalf("LastLSN = %d, want %d", got, workers*perWorker)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// LSNs on disk are gap-free and every acked append survived.
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	var want uint64
	if _, err := w2.Replay(0, func(rec Record) error {
		want++
		if rec.LSN != want {
			return fmt.Errorf("lsn %d, want %d", rec.LSN, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != workers*perWorker {
		t.Fatalf("%d records survived, want %d", want, workers*perWorker)
	}
}

func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	if got := w.LastLSN(); got != 0 {
		t.Fatalf("LastLSN = %d", got)
	}
	stats, err := w.Replay(0, func(Record) error { t.Fatal("unexpected record"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir()})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSet(geom.NewRect(0, 0, 1, 1), "x"); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, lsn := range []uint64{1, 42, 1 << 40} {
		name := segmentName(lsn)
		got, ok := parseSegmentName(name)
		if !ok || got != lsn {
			t.Fatalf("parseSegmentName(%q) = %d, %v", name, got, ok)
		}
	}
	for _, bad := range []string{"wal-zz.seg", "wal-0001.seg", "snapshot.gob", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parseSegmentName accepted %q", bad)
		}
	}
}

// TestReplayGapDetected: when the oldest surviving segment starts past
// the snapshot's LSN — segments retired against a snapshot that was
// later lost, or deleted by hand — Replay must fail recovery instead of
// silently skipping the hole.
func TestReplayGapDetected(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		if _, err := w.AppendSet(randRect(rng), fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation not exercised", len(segs))
	}
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	gapEnd := segs[1].firstLSN - 1 // records 1..gapEnd are gone

	w2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer w2.Close()
	// A snapshot that does not cover the hole must fail recovery...
	if _, err := w2.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay over a missing segment succeeded")
	}
	if _, err := w2.Replay(gapEnd-1, func(Record) error { return nil }); err == nil {
		t.Fatalf("Replay(afterLSN=%d) over a gap ending at %d succeeded", gapEnd-1, gapEnd)
	}
	// ...while one that covers it replays the surviving suffix cleanly.
	var applied int
	if _, err := w2.Replay(gapEnd, func(Record) error { applied++; return nil }); err != nil {
		t.Fatal(err)
	}
	if applied != 30-int(gapEnd) {
		t.Fatalf("replayed %d records past the gap, want %d", applied, 30-int(gapEnd))
	}
}

// TestRecordValidation: a key over MaxKeyBytes is rejected by both keyed
// appends without consuming an LSN or poisoning the log, while a key of
// exactly MaxKeyBytes — the largest payload a scan accepts — round-trips
// through Open and Replay.
func TestRecordValidation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	r := geom.NewRect(0, 0, 1, 1)
	long := strings.Repeat("k", MaxKeyBytes+1)
	if _, err := w.AppendSet(r, long); err == nil {
		t.Fatal("SET with an over-long key accepted")
	}
	if _, err := w.AppendDelKey(r, long); err == nil {
		t.Fatal("DEL with an over-long key accepted")
	}
	largest := long[:MaxKeyBytes]
	lsn, err := w.AppendSet(r, largest)
	if err != nil || lsn != 1 {
		t.Fatalf("append after rejected keys: lsn=%d err=%v", lsn, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	var got []Record
	if _, err := w2.Replay(0, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != largest || got[0].Rect != r {
		t.Fatalf("replayed %d records; want the one %d-byte key", len(got), MaxKeyBytes)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// appendWithin runs an append with a deadline so a group-commit
// regression (appender parked on a dead ticker) fails the test instead
// of hanging it for the hour-long interval the tests configure.
func appendWithin(t *testing.T, w *WAL, r geom.Rect, id string) uint64 {
	t.Helper()
	type res struct {
		lsn uint64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		lsn, err := w.AppendSet(r, id)
		ch <- res{lsn, err}
	}()
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatal(out.err)
		}
		return out.lsn
	case <-time.After(5 * time.Second):
		t.Fatal("append did not commit; the group-commit committer is broken")
		return 0
	}
}

// TestIntervalAppendSelfCommits pins signal-driven group commit: an
// append nudges the committer goroutine directly, so with the periodic
// ticker an hour out the append still returns promptly — and only after
// an fsync covered its record.
func TestIntervalAppendSelfCommits(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Hour})
	defer w.Close()

	if lsn := appendWithin(t, w, geom.Square(0.5, 0.5, 0.01), "a"); lsn != 1 {
		t.Fatalf("lsn = %d, want 1", lsn)
	}
	if m := w.Metrics(); m.Fsyncs == 0 {
		t.Fatal("append returned with no fsync covering it")
	}
}

// TestIntervalRotationSelfCommits runs signal-driven commits across
// segment rotations: with SegmentBytes=1 every append seals the
// previous segment, and each must return durable without ticker help.
func TestIntervalRotationSelfCommits(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Hour, SegmentBytes: 1})
	defer w.Close()

	const n = 5
	for i := 0; i < n; i++ {
		want := uint64(i + 1)
		if lsn := appendWithin(t, w, geom.Square(0.1*float64(i+1), 0.1, 0.01), fmt.Sprintf("r-%d", i)); lsn != want {
			t.Fatalf("lsn = %d, want %d", lsn, want)
		}
	}
	m := w.Metrics()
	if m.LastLSN != n {
		t.Fatalf("LastLSN = %d, want %d", m.LastLSN, n)
	}
	if m.Fsyncs == 0 {
		t.Fatal("appends returned with no fsync")
	}
	if m.Rotations < n-1 {
		t.Fatalf("rotations = %d, want >= %d", m.Rotations, n-1)
	}
}

// TestIntervalConcurrentAppendsDurable hammers the committer: many
// concurrent appenders, hour-out ticker — every append must return,
// every record must be covered by some group fsync.
func TestIntervalConcurrentAppendsDurable(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Hour})
	defer w.Close()

	const appends = 64
	errs := make(chan error, appends)
	for i := 0; i < appends; i++ {
		go func(i int) {
			_, err := w.AppendSet(geom.Square(0.01*float64(i%50), 0.2, 0.005), fmt.Sprintf("c-%d", i))
			errs <- err
		}(i)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < appends; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("only %d of %d appends committed", i, appends)
		}
	}
	m := w.Metrics()
	if m.LastLSN != appends {
		t.Fatalf("LastLSN = %d, want %d", m.LastLSN, appends)
	}
	if m.Fsyncs == 0 || m.Fsyncs > appends {
		t.Fatalf("fsyncs = %d, want in [1, %d]", m.Fsyncs, appends)
	}
}

// TestCloseReleasesCoveredWaiters: Close's final fsync makes the parked
// appends' bytes durable, so they must return success, not the
// wal-closed error — acknowledged-and-durable beats shutting-down.
func TestCloseReleasesCoveredWaiters(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Hour})

	appended := make(chan error, 1)
	go func() {
		_, err := w.AppendSet(geom.Square(0.3, 0.3, 0.01), "a")
		appended <- err
	}()
	waitUntil(t, "append to reach the segment", func() bool { return w.LastLSN() == 1 })

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("append covered by Close's final fsync failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the group-commit waiter")
	}
}

// rawFrame encodes a checksum-valid frame with an arbitrary version and
// type byte around a one-key body — the shape of a record some other
// writer produced.
func rawFrame(version byte, typ RecordType, lsn uint64, key string) []byte {
	p := []byte{version, byte(typ)}
	p = binary.LittleEndian.AppendUint64(p, lsn)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = append(p, make([]byte, rectBytes)...)
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(p, castagnoli))
	return append(f, p...)
}

// TestUndecodableRecordRefused: a frame that passes its checksum but is
// not a record this build can apply — a retired type, a newer version,
// an out-of-sequence LSN — holds an acknowledged write. Open, Replay and
// Inspect must fail naming its LSN and type byte, and leave the log
// byte-identical instead of truncating it as a torn tail.
func TestUndecodableRecordRefused(t *testing.T) {
	for _, c := range []struct {
		name    string
		version byte
		typ     RecordType
		lsn     uint64
	}{
		{"retired-insert-type", recordVersion, 1, 2},
		{"newer-version", recordVersion + 1, RecSet, 2},
		{"lsn-out-of-sequence", recordVersion, RecSet, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, Options{Dir: dir})
			if _, err := w.AppendSet(geom.NewRect(0, 0, 1, 1), "k0"); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segmentName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rawFrame(c.version, c.typ, c.lsn, "k1")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			wantMsg := fmt.Sprintf("LSN %d type byte %d", c.lsn, uint8(c.typ))
			check := func(op string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), wantMsg) {
					t.Fatalf("%s: err = %v, want one naming %q", op, err, wantMsg)
				}
			}

			_, err = w.Replay(0, func(Record) error { return nil })
			check("Replay", err)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = Open(Options{Dir: dir})
			check("Open", err)
			_, err = Inspect(dir, nil)
			check("Inspect", err)
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("log changed from %d to %d bytes", len(before), len(after))
			}
		})
	}
}

// TestCorruptLengthBoundedAlloc: a torn frame header whose length field
// claims 200 MiB must be truncated without allocating for the claim —
// the payload bound derives from MaxKeyBytes, not from the largest
// request body.
func TestCorruptLengthBoundedAlloc(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	if _, err := w.AppendSet(geom.NewRect(0, 0, 1, 1), "k0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tail := binary.LittleEndian.AppendUint32(nil, 200<<20)
	tail = append(tail, 0, 0, 0, 0, 1, 4, 0, 0) // CRC, then a short payload
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := w2.Replay(0, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	w2.Close()
	if n != 1 {
		t.Fatalf("replayed %d records, want the 1 before the torn tail", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Open+Replay allocated %d bytes for a torn 12-byte tail", grew)
	}
}
