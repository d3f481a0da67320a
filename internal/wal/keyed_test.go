package wal

import (
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// TestKeyedRecordRoundTrip pins the wire format of the keyed record
// types: AppendSet/AppendDelKey survive close + reopen + replay with
// type, rect and key intact.
func TestKeyedRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	r1 := geom.NewRect(0.1, 0.2, 0.3, 0.4)
	r2 := geom.NewRect(0.5, 0.5, 0.6, 0.7)
	if _, err := w.AppendSet(r1, "truck-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSet(r2, "truck-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendDelKey(r2, "truck-1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got []Record
	if _, err := w2.Replay(0, func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		typ  RecordType
		rect geom.Rect
		id   string
	}{
		{RecSet, r1, "truck-1"},
		{RecSet, r2, "truck-1"},
		{RecDelKey, r2, "truck-1"},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Type != want[i].typ || rec.Rect != want[i].rect || rec.Key != want[i].id {
			t.Fatalf("record %d = {%v %v %q}, want {%v %v %q}",
				i, rec.Type, rec.Rect, rec.Key, want[i].typ, want[i].rect, want[i].id)
		}
	}

	// Inspect tallies the keyed types in their own counters.
	infos, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sets, delKeys int
	for _, info := range infos {
		sets += info.Sets
		delKeys += info.DelKeys
	}
	if sets != 2 || delKeys != 1 {
		t.Fatalf("inspect counted sets=%d delKeys=%d, want 2/1", sets, delKeys)
	}
}
