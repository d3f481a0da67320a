package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// segBoundary returns the active segment index and its current size —
// the record-boundary bookkeeping the crash tests build fault points on.
func (w *WAL) segBoundary() (seg int, off int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments) - 1, w.size
}

// TestRotationNeverSplitsRecords drives appends through a tiny segment
// limit and checks the straddling invariant: a record whose frame would
// cross the size limit goes wholly into the next segment, so every
// segment scans clean in isolation.
func TestRotationNeverSplitsRecords(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 256
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes})
	rng := rand.New(rand.NewSource(10))

	oracle := rtree.New(rtree.Options{})
	prevSeg, prevOff := w.segBoundary()
	for i := 0; i < 60; i++ {
		r := randRect(rng)
		id := fmt.Sprintf("rot-%d", i)
		if _, err := w.AppendSet(r, id); err != nil {
			t.Fatal(err)
		}
		oracle.Insert(r, id)
		seg, off := w.segBoundary()
		if seg == prevSeg {
			if off <= prevOff {
				t.Fatalf("append %d: size went %d -> %d without rotation", i, prevOff, off)
			}
		} else {
			// Rotated: the whole frame must be in the new segment, and
			// the rotation must have been forced (the frame would have
			// overflowed the old segment).
			frame := off - segHeaderSize
			if frame <= 0 {
				t.Fatalf("append %d: rotated but new segment holds %d frame bytes", i, frame)
			}
			if prevOff+frame <= segBytes {
				t.Fatalf("append %d: rotated although %d+%d fits in %d", i, prevOff, frame, segBytes)
			}
		}
		prevSeg, prevOff = seg, off
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Every segment is individually clean and their LSN ranges abut.
	next := uint64(1)
	for _, seg := range segs {
		if seg.firstLSN != next {
			t.Fatalf("segment %s starts at LSN %d, want %d", seg.path, seg.firstLSN, next)
		}
		res, err := scanSegment(seg.path, seg.firstLSN, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.clean() {
			t.Fatalf("segment %s not clean: %s", seg.path, res.torn)
		}
		next = res.lastLSN + 1
	}

	// Replay across all segments rebuilds the oracle byte-identically.
	w2 := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes})
	defer w2.Close()
	recovered := newKeyedTree()
	stats, err := w2.Replay(0, func(rec Record) error { recovered.apply(rec); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsScanned != len(segs) {
		t.Fatalf("replay scanned %d segments, want %d", stats.SegmentsScanned, len(segs))
	}
	if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, oracle)) {
		t.Fatal("multi-segment replay differs from oracle")
	}
}

// TestEmptyFinalSegment simulates a crash between creating a fresh
// segment and appending its first record: recovery must keep the empty
// segment usable and the LSN sequence intact. Both the header-only and
// the zero-byte shapes (crash before the header write) are covered.
func TestEmptyFinalSegment(t *testing.T) {
	for _, shape := range []string{"header-only", "zero-byte"} {
		t.Run(shape, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, Options{Dir: dir})
			rng := rand.New(rand.NewSource(11))
			oracle := rtree.New(rtree.Options{})
			for i := 0; i < 10; i++ {
				r := randRect(rng)
				id := fmt.Sprintf("pre-%d", i)
				if _, err := w.AppendSet(r, id); err != nil {
					t.Fatal(err)
				}
				oracle.Insert(r, id)
			}
			last := w.LastLSN()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			next := filepath.Join(dir, segmentName(last+1))
			var content []byte
			if shape == "header-only" {
				content = segMagic[:]
			}
			if err := os.WriteFile(next, content, 0o644); err != nil {
				t.Fatal(err)
			}

			w2 := mustOpen(t, Options{Dir: dir})
			if got := w2.LastLSN(); got != last {
				t.Fatalf("LastLSN = %d, want %d", got, last)
			}
			// New appends land in the recovered empty segment.
			r := randRect(rng)
			lsn, err := w2.AppendSet(r, "post")
			if err != nil {
				t.Fatal(err)
			}
			if lsn != last+1 {
				t.Fatalf("append lsn = %d, want %d", lsn, last+1)
			}
			oracle.Insert(r, "post")
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}

			w3 := mustOpen(t, Options{Dir: dir})
			defer w3.Close()
			recovered := newKeyedTree()
			if _, err := w3.Replay(0, func(rec Record) error { recovered.apply(rec); return nil }); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, oracle)) {
				t.Fatal("recovery through empty final segment diverged")
			}
		})
	}
}

// TestOversizedRecordGetsOwnSegment checks that one record larger than
// SegmentBytes is still written (in a segment of its own) and replays.
func TestOversizedRecordGetsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	rng := rand.New(rand.NewSource(12))
	oracle := rtree.New(rtree.Options{})
	r := randRect(rng)
	if _, err := w.AppendSet(r, "small"); err != nil {
		t.Fatal(err)
	}
	oracle.Insert(r, "small")

	// A 600-byte key is far past 128 bytes: the record must rotate into
	// a fresh segment and occupy it alone-but-whole.
	big := strings.Repeat("big-", 150)
	r = randRect(rng)
	if _, err := w.AppendSet(r, big); err != nil {
		t.Fatal(err)
	}
	oracle.Insert(r, big)
	r = randRect(rng)
	if _, err := w.AppendSet(r, "after"); err != nil {
		t.Fatal(err)
	}
	oracle.Insert(r, "after")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	recovered := newKeyedTree()
	stats, err := w2.Replay(0, func(rec Record) error { recovered.apply(rec); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.SegmentsScanned != 3 {
		t.Fatalf("stats = %+v, want 3 records in 3 segments", stats)
	}
	if !bytes.Equal(encodeBytes(t, recovered.tr), encodeBytes(t, oracle)) {
		t.Fatal("oversized-record replay diverged")
	}
}
