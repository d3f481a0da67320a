package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

// TestShardsValidAfterDeleteHeavyWorkload is the regression net for MBR
// maintenance under deletion (CondenseTree shrink paths): randomized
// delete-heavy workloads — churn far past the original population, with
// waves that empty shards almost completely — after which every shard
// must pass the full rtree invariant checker plus the routing invariant.
func TestShardsValidAfterDeleteHeavyWorkload(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.UNI, dataset.SKE, dataset.CHI} {
		for _, shards := range []int{1, 3, 8} {
			kind, shards := kind, shards
			t.Run(fmt.Sprintf("%s-%dshards", kind, shards), func(t *testing.T) {
				const n = 2000
				data := dataset.MustGenerate(kind, n, int64(shards)*31)
				s := newTestSharded(t, shards)
				rng := rand.New(rand.NewSource(int64(shards) * 17))

				type obj struct {
					rect geom.Rect
					id   int
				}
				var live []obj
				nextID := 0
				insert := func() {
					r := data[nextID%n]
					s.Insert(r, nextID)
					live = append(live, obj{r, nextID})
					nextID++
				}
				deleteRandom := func() {
					i := rng.Intn(len(live))
					o := live[i]
					if !s.Delete(o.rect, o.id) {
						t.Fatalf("live object %d undeletable", o.id)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}

				for i := 0; i < n; i++ {
					insert()
				}
				// Three waves: delete ~90%, refill halfway, repeat. Each
				// wave exercises condense, root shrink, and re-splits.
				for wave := 0; wave < 3; wave++ {
					for len(live) > n/10 {
						deleteRandom()
						// Interleave occasional inserts mid-wave so
						// condense and split paths alternate.
						if rng.Float64() < 0.1 {
							insert()
						}
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("wave %d after deletes: %v", wave, err)
					}
					for len(live) < n/2 {
						insert()
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("wave %d after refill: %v", wave, err)
					}
				}
				// Drain to empty: the end state of the shrink path.
				for len(live) > 0 {
					deleteRandom()
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("after drain: %v", err)
				}
				if s.Len() != 0 {
					t.Fatalf("drained tree reports Len %d", s.Len())
				}
				// Empty-shard pruning: the drained bounds summaries must
				// have shed all coverage, so a fan-out query probes zero
				// shards (single-shard trees bypass pruning by design).
				for i := 0; i < shards; i++ {
					if b := s.bounds.shard(i); b.count != 0 {
						t.Fatalf("drained shard %d aggregate still counts %d", i, b.count)
					}
				}
				if shards > 1 {
					before := s.FanoutStats()
					s.SearchCount(geom.NewRect(-1, -1, 2, 2))
					after := s.FanoutStats()
					if probed := after.ShardsProbed - before.ShardsProbed; probed != 0 {
						t.Fatalf("drained tree probed %d shards, want 0", probed)
					}
				}
			})
		}
	}
}
