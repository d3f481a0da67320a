package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// TestTearAtScanBufferEdge tears the frame that straddles scanSegment's
// read-buffer boundary at each of its bytes, by truncating the segment
// there and, separately, by flipping that byte. Either way Open must cut
// the segment back to exactly the frame's first byte and Replay must
// yield exactly the records before it — the offsets an unbuffered scan
// reports.
func TestTearAtScanBufferEdge(t *testing.T) {
	src := t.TempDir()
	w := mustOpen(t, Options{Dir: src, Sync: SyncNone})
	var starts []int64
	off := segHeaderSize
	for i := 0; off <= scanBufSize+512; i++ {
		rec := Record{Type: RecSet, Rect: geom.Square(0.5, 0.5, 0.01), Key: fmt.Sprintf("key-%d-%0*d", i, i%37, 0)}
		if _, err := w.AppendSet(rec.Rect, rec.Key); err != nil {
			t.Fatal(err)
		}
		starts = append(starts, off)
		off += frameSize(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, segmentName(1))
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(orig)) != off {
		t.Fatalf("segment holds %d bytes, frames account for %d", len(orig), off)
	}
	edge := -1
	for i, s := range starts {
		end := off
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if s < scanBufSize && end > scanBufSize {
			edge = i
		}
	}
	if edge < 0 {
		t.Fatal("no frame straddles the scan buffer boundary")
	}
	start, end := starts[edge], starts[edge+1]

	check := func(label string, data []byte) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: dir, Sync: SyncNone})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer w.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() != start {
			t.Fatalf("%s: segment cut to %d bytes, want %d (%v)", label, fi.Size(), start, err)
		}
		var lsns []uint64
		if _, err := w.Replay(0, func(rec Record) error { lsns = append(lsns, rec.LSN); return nil }); err != nil {
			t.Fatalf("%s: replay: %v", label, err)
		}
		if len(lsns) != edge || (edge > 0 && lsns[edge-1] != uint64(edge)) {
			t.Fatalf("%s: replayed %d records, want LSNs 1..%d", label, len(lsns), edge)
		}
	}
	for b := start; b < end; b++ {
		check(fmt.Sprintf("truncated at %d", b), orig[:b])
		flipped := append([]byte(nil), orig[:end]...)
		flipped[b] ^= 0x5a
		check(fmt.Sprintf("byte %d flipped", b), flipped)
	}
}

// TestReplayBufferedTimesTheFlush: a consumer that buffers records
// applies the last batch in flush, after the scan; the returned
// Duration and the replay metrics must include it.
func TestReplayBufferedTimesTheFlush(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncNone})
	for i := 0; i < 10; i++ {
		if _, err := w.AppendSet(geom.Square(0.5, 0.5, 0.01), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	const pause = 30 * time.Millisecond
	held, flushed := 0, 0
	st, err := w.ReplayBuffered(0, func(Record) error { held++; return nil }, func() error {
		time.Sleep(pause)
		flushed = held
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushed != 10 || st.Applied != 10 {
		t.Fatalf("flush saw %d records, applied %d, want 10", flushed, st.Applied)
	}
	if st.Duration < pause {
		t.Fatalf("replay duration %v leaves out the %v flush", st.Duration, pause)
	}
	if m := w.Metrics(); m.ReplayDuration < pause || m.ReplayRecords != 10 {
		t.Fatalf("replay metrics %v / %d records leave out the flush", m.ReplayDuration, m.ReplayRecords)
	}
	w.Close()
}
