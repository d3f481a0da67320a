package shard

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// TestShardedConcurrentHammer mixes inserters, a deleter, range and KNN
// readers, a stats poller and a snapshot encoder across shards — the
// whole public surface at once. Run under -race (CI does): the test's
// assertions are weak sanity checks; the payload is the race detector
// proving the per-shard locking composes.
func TestShardedConcurrentHammer(t *testing.T) {
	s := newTestSharded(t, 4)
	const (
		writers   = 3
		perWriter = 1200
	)
	data := dataset.MustGenerate(dataset.UNI, writers*perWriter, 5)

	var deleted atomic.Int64
	var wg sync.WaitGroup

	// Inserters: one batched, the rest object-at-a-time, disjoint ID ranges.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := w * perWriter
			if w == 0 {
				for lo := 0; lo < perWriter; lo += 100 {
					rects := make([]geom.Rect, 100)
					payload := make([]any, 100)
					for j := range rects {
						rects[j] = data[base+lo+j]
						payload[j] = base + lo + j
					}
					s.InsertBatch(rects, payload)
				}
				return
			}
			for i := 0; i < perWriter; i++ {
				s.Insert(data[base+i], base+i)
			}
		}()
	}

	// Deleter: chases writer 1's inserts; a miss (not yet inserted) is fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < perWriter/2; i++ {
			id := perWriter + rng.Intn(perWriter)
			if s.Delete(data[id], id) {
				deleted.Add(1)
			}
		}
	}()

	// Readers: range, KNN, point.
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var dst []any
			var knn []rtree.Neighbor
			for i := 0; i < 400; i++ {
				q := geom.Square(rng.Float64(), rng.Float64(), 0.05)
				dst = dst[:0]
				dst, _ = s.SearchAppend(q, dst)
				knn = knn[:0]
				knn, _ = s.KNNAppend(geom.Pt(rng.Float64(), rng.Float64()), 10, knn)
				for j := 1; j < len(knn); j++ {
					if knn[j].DistSq < knn[j-1].DistSq {
						t.Errorf("KNN out of order at %d", j)
						return
					}
				}
				s.ContainsPoint(geom.Pt(rng.Float64(), rng.Float64()))
			}
		}()
	}

	// Stats poller and snapshot encoder.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st := s.Stats()
			if st.Size < 0 {
				t.Error("negative size")
				return
			}
			s.ShardStats()
			s.Len()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := s.EncodeSnapshot(&buf); err != nil {
				t.Errorf("snapshot during writes: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	want := writers*perWriter - int(deleted.Load())
	if got := s.Len(); got != want {
		t.Fatalf("after hammer: Len %d, want %d", got, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
