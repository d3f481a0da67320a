package wal

// Crash-simulation property tests: the correctness harness of the WAL.
// A random workload is appended while per-record fault points are
// tracked; then, for many fault injections — truncated tails, torn
// (partially persisted) writes, bit flips, and a FailingWriter that
// cuts the byte stream mid-append — recovery (Open + Replay) must yield
// a tree byte-identical to an in-memory oracle that applied exactly the
// records the fault provably left durable. This is the same
// differential-vs-oracle pattern as the shard-vs-single suite of
// internal/shard.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// walOp is one workload operation == one WAL record.
type walOp struct {
	rec Record // without LSN/Epoch
	// seg/end locate the byte just past the record's frame in the
	// on-disk log, for computing which faults destroy it.
	seg int
	end int64
}

// genWorkload returns n deterministic keyed records: SETs of fresh keys,
// SETs that move a live key, and DELs of a live key.
func genWorkload(rng *rand.Rand, n int) []Record {
	var recs []Record
	var live []string
	for i := 0; i < n; i++ {
		var rec Record
		switch p := rng.Float64(); {
		case p < 0.65 || len(live) == 0:
			rec = Record{Type: RecSet, Rect: randRect(rng), Key: fmt.Sprintf("k%d", i)}
			live = append(live, rec.Key)
		case p < 0.85:
			j := rng.Intn(len(live))
			rec = Record{Type: RecDelKey, Rect: randRect(rng), Key: live[j]}
			live = append(live[:j], live[j+1:]...)
		default:
			rec = Record{Type: RecSet, Rect: randRect(rng), Key: live[rng.Intn(len(live))]}
		}
		recs = append(recs, rec)
	}
	return recs
}

// buildWorkload appends a mixed random workload to a fresh WAL in dir
// and returns the ops with their on-disk boundaries. Small segments
// force several rotations.
func buildWorkload(t *testing.T, dir string, n int, seed int64) []walOp {
	t.Helper()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 512, Sync: SyncNone})
	var ops []walOp
	for _, rec := range genWorkload(rand.New(rand.NewSource(seed)), n) {
		if _, err := appendRecord(w, rec); err != nil {
			t.Fatal(err)
		}
		seg, end := w.segBoundary()
		ops = append(ops, walOp{rec: rec, seg: seg, end: end})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// oracleTree applies ops[:n] to a fresh tree.
func oracleTree(ops []walOp, n int) *rtree.Tree {
	k := newKeyedTree()
	for _, op := range ops[:n] {
		k.apply(op.rec)
	}
	return k.tr
}

// survivors returns how many leading ops survive a fault that makes
// every byte of segment seg from offset off onward (and every later
// segment) unrecoverable.
func survivors(ops []walOp, seg int, off int64) int {
	n := 0
	for _, op := range ops {
		if op.seg < seg || (op.seg == seg && op.end <= off) {
			n++
			continue
		}
		break
	}
	return n
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverAndCompare opens the (possibly corrupted) log in dir, replays
// it into a fresh tree and requires byte-identity with ops[:want]. It
// then appends one more record and re-replays, proving the recovered
// log is append-able.
func recoverAndCompare(t *testing.T, dir string, ops []walOp, want int, label string) {
	t.Helper()
	w, err := Open(Options{Dir: dir, SegmentBytes: 512, Sync: SyncNone})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	recovered := newKeyedTree()
	stats, err := w.Replay(0, func(rec Record) error { recovered.apply(rec); return nil })
	if err != nil {
		t.Fatalf("%s: Replay: %v", label, err)
	}
	if stats.Applied != want {
		t.Fatalf("%s: replayed %d records, oracle says %d survive", label, stats.Applied, want)
	}
	oracle := oracleTree(ops, want)
	if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, oracle)) {
		t.Fatalf("%s: recovered tree differs from oracle (%d records)", label, want)
	}
	if err := recovered.tr.Validate(); err != nil {
		t.Fatalf("%s: recovered tree invalid: %v", label, err)
	}

	// The truncated log must accept and persist new appends.
	r := geom.NewRect(0.1, 0.1, 0.2, 0.2)
	lsn, err := w.AppendSet(r, "post-recovery")
	if err != nil {
		t.Fatalf("%s: append after recovery: %v", label, err)
	}
	if lsn != uint64(want)+1 {
		t.Fatalf("%s: post-recovery lsn = %d, want %d", label, lsn, want+1)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer w2.Close()
	count := 0
	if _, err := w2.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != want+1 {
		t.Fatalf("%s: %d records after post-recovery append, want %d", label, count, want+1)
	}
}

// segPaths returns the workload's segment files in LSN order.
func segPaths(t *testing.T, dir string) []segmentRef {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("workload produced %d segments, want >= 3", len(segs))
	}
	return segs
}

func TestCrashRecoveryTruncatedTail(t *testing.T) {
	src := t.TempDir()
	ops := buildWorkload(t, src, 120, 21)
	segs := segPaths(t, src)
	rng := rand.New(rand.NewSource(22))

	for trial := 0; trial < 12; trial++ {
		seg := rng.Intn(len(segs))
		fi, err := os.Stat(segs[seg].path)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Int63n(fi.Size()) // may hit 0, the header, or a record boundary
		dst := t.TempDir()
		copyDir(t, src, dst)
		target := filepath.Join(dst, filepath.Base(segs[seg].path))
		if err := os.Truncate(target, cut); err != nil {
			t.Fatal(err)
		}
		want := survivors(ops, seg, cut)
		recoverAndCompare(t, dst, ops, want, fmt.Sprintf("truncate seg %d at %d", seg, cut))
	}
}

func TestCrashRecoveryBitFlip(t *testing.T) {
	src := t.TempDir()
	ops := buildWorkload(t, src, 120, 31)
	segs := segPaths(t, src)
	rng := rand.New(rand.NewSource(32))

	for trial := 0; trial < 12; trial++ {
		seg := rng.Intn(len(segs))
		data, err := os.ReadFile(segs[seg].path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		pos := rng.Intn(len(data))
		bit := byte(1 << rng.Intn(8))
		dst := t.TempDir()
		copyDir(t, src, dst)
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= bit
		target := filepath.Join(dst, filepath.Base(segs[seg].path))
		if err := os.WriteFile(target, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every record whose frame ends at or before the flipped byte is
		// intact; the record containing it — and everything after — dies.
		want := survivors(ops, seg, int64(pos))
		recoverAndCompare(t, dst, ops, want, fmt.Sprintf("bitflip seg %d byte %d", seg, pos))
	}
}

func TestCrashRecoveryTornWrite(t *testing.T) {
	// A torn write persists some sectors of the final record but not
	// all: zero a byte range that ends at EOF but starts mid-record.
	src := t.TempDir()
	ops := buildWorkload(t, src, 120, 41)
	segs := segPaths(t, src)
	rng := rand.New(rand.NewSource(42))

	last := len(segs) - 1
	data, err := os.ReadFile(segs[last].path)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		if len(data) <= int(segHeaderSize) {
			break
		}
		from := int(segHeaderSize) + rng.Intn(len(data)-int(segHeaderSize))
		to := from + 1 + rng.Intn(len(data)-from)
		dst := t.TempDir()
		copyDir(t, src, dst)
		torn := append([]byte(nil), data...)
		for i := from; i < to; i++ {
			torn[i] = 0
		}
		if bytes.Equal(torn, data) {
			// The range was already all zeros — no corruption happened.
			torn[from] ^= 0xFF
		}
		target := filepath.Join(dst, filepath.Base(segs[last].path))
		if err := os.WriteFile(target, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		want := survivors(ops, last, int64(from))
		recoverAndCompare(t, dst, ops, want, fmt.Sprintf("torn write [%d,%d)", from, to))
	}
}

// failingFile wraps an *os.File and fails once a shared byte budget is
// exhausted, leaving a strict prefix of the attempted write on disk —
// the on-disk shape of a crash mid-append.
type failingFile struct {
	f      *os.File
	budget *int64
}

func (ff *failingFile) Write(p []byte) (int, error) {
	if *ff.budget <= 0 {
		return 0, fmt.Errorf("failingwriter: budget exhausted")
	}
	if int64(len(p)) > *ff.budget {
		n, _ := ff.f.Write(p[:*ff.budget])
		*ff.budget = 0
		return n, fmt.Errorf("failingwriter: write cut after %d bytes", n)
	}
	*ff.budget -= int64(len(p))
	return ff.f.Write(p)
}

func (ff *failingFile) Sync() error  { return ff.f.Sync() }
func (ff *failingFile) Close() error { return ff.f.Close() }

// TestCrashRecoveryFailingWriter drives the workload through a writer
// that dies after N bytes, for a sweep of N: every append the WAL
// acknowledged must survive recovery, and nothing else.
func TestCrashRecoveryFailingWriter(t *testing.T) {
	// First pass on a healthy log to learn the total byte volume.
	probe := t.TempDir()
	buildWorkload(t, probe, 80, 51)
	var total int64
	segs, err := listSegments(probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}

	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		budget := rng.Int63n(total + 1)
		dir := t.TempDir()
		remaining := budget
		opts := Options{
			Dir: dir, SegmentBytes: 512, Sync: SyncNone,
			openAppend: func(path string, offset int64) (segmentFile, error) {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
				if err != nil {
					return nil, err
				}
				if _, err := f.Seek(offset, io.SeekStart); err != nil {
					f.Close()
					return nil, err
				}
				return &failingFile{f: f, budget: &remaining}, nil
			},
		}
		w, err := Open(opts)
		if err != nil {
			// The budget died during Open (segment header write):
			// nothing was acknowledged, recovery must find 0 records.
			recoverAndCompare(t, dir, nil, 0, fmt.Sprintf("budget %d (open)", budget))
			continue
		}

		// Replay the same deterministic workload, stopping at the fault.
		var ops []walOp
		acked := 0
		for _, rec := range genWorkload(rand.New(rand.NewSource(51)), 80) {
			if _, err := appendRecord(w, rec); err != nil {
				break // crash point: this and later ops were never acked
			}
			ops = append(ops, walOp{rec: rec})
			acked++
		}
		w.Close() // simulated crash: sticky-failed log, just drop it

		recoverAndCompare(t, dir, ops, acked, fmt.Sprintf("budget %d (acked %d)", budget, acked))
	}
}
