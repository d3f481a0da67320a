package collection

import (
	"fmt"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

func newTestIndex() Spatial {
	return rtree.NewConcurrent(rtree.New(rtree.Options{MaxEntries: 16, MinEntries: 6}))
}

func TestSetGetDel(t *testing.T) {
	c := New(newTestIndex())
	r1 := geom.NewRect(1, 1, 2, 2)
	r2 := geom.NewRect(5, 5, 6, 6)

	if res := c.Set("a", r1); res.Replaced {
		t.Fatalf("first Set reported Replaced")
	}
	if got, ok := c.Get("a"); !ok || got != r1 {
		t.Fatalf("Get(a) = %v %v, want %v true", got, ok, r1)
	}
	res := c.Set("a", r2)
	if !res.Replaced || res.Prev != r1 {
		t.Fatalf("second Set = %+v, want Replaced with Prev %v", res, r1)
	}
	if got, _ := c.Get("a"); got != r2 {
		t.Fatalf("Get after move = %v, want %v", got, r2)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	prev, ok := c.Del("a")
	if !ok || prev != r2 {
		t.Fatalf("Del = %v %v, want %v true", prev, ok, r2)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatalf("Get after Del still finds the key")
	}
	if _, ok := c.Del("a"); ok {
		t.Fatalf("second Del reported existing")
	}
	st := c.Stats()
	if st.Objects != 0 || st.Sets != 2 || st.UpdatesInPlace != 1 || st.Dels != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestManyKeysValidate forces distinct keys into the same stripe by
// volume: 5000 keys through a 64-stripe lock set guarantees
// stripe sharing, and Validate proves per-key isolation regardless.
func TestManyKeysValidate(t *testing.T) {
	c := New(newTestIndex())
	const n = 5000
	for i := 0; i < n; i++ {
		x := float64(i % 97)
		y := float64(i % 89)
		c.Set(fmt.Sprintf("key-%04d", i), geom.NewRect(x, y, x+0.5, y+0.5))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	// Move a third of them, delete a tenth.
	for i := 0; i < n; i += 3 {
		c.Set(fmt.Sprintf("key-%04d", i), geom.NewRect(float64(i%50), 0, float64(i%50)+1, 1))
	}
	for i := 0; i < n; i += 10 {
		c.Del(fmt.Sprintf("key-%04d", i))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreFromIndexRoundTrip proves a clone of the index is all
// Restore needs: the key map rebuilt from the clone's leaves validates
// against it and answers every Get like the original. The clone is a
// capture — a later Set does not leak into it.
func TestRestoreFromIndexRoundTrip(t *testing.T) {
	ix := newTestIndex().(*rtree.ConcurrentTree)
	c := New(ix)
	for i := 0; i < 500; i++ {
		x := float64(i)
		c.Set(fmt.Sprintf("obj-%03d", i), geom.NewRect(x, x, x+1, x+1))
	}
	c.Del("obj-007")
	c.Set("obj-011", geom.NewRect(0.5, 0.5, 0.75, 0.75))
	clone := ix.Snapshot()
	c.Set("after", geom.NewRect(2, 2, 3, 3))
	c2, err := Restore(rtree.NewConcurrent(clone))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 499 {
		t.Fatalf("restored Len = %d, want 499", c2.Len())
	}
	if err := c2.Validate(); err != nil {
		t.Fatalf("restored collection invalid: %v", err)
	}
	c2.Each(func(key string, got geom.Rect) bool {
		if want, ok := c.Get(key); !ok || got != want {
			t.Fatalf("restored %s at %v, original %v %v", key, got, want, ok)
		}
		return true
	})
	if _, ok := c2.Get("after"); ok {
		t.Fatal("a Set after the capture leaked into the restored collection")
	}
}

// TestRestoreRejectsForeignIndex: an index whose leaves are not one
// string key per object cannot be a collection's — Restore refuses it
// instead of building a key map that disagrees with the index.
func TestRestoreRejectsForeignIndex(t *testing.T) {
	for name, fill := range map[string]func(ix Spatial){
		"int payload": func(ix Spatial) {
			ix.Insert(geom.NewRect(0, 0, 1, 1), "a")
			ix.Insert(geom.NewRect(2, 2, 3, 3), 7)
		},
		"key at two rects": func(ix Spatial) {
			ix.Insert(geom.NewRect(0, 0, 1, 1), "a")
			ix.Insert(geom.NewRect(2, 2, 3, 3), "a")
		},
	} {
		ix := newTestIndex()
		fill(ix)
		if c, err := Restore(ix); err == nil || c != nil {
			t.Errorf("%s: Restore = %v, %v; want an error", name, c, err)
		}
	}
}
