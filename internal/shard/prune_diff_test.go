package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// This file pins the PR-8 contract: the pruned fan-out paths must be
// observationally identical to probing every shard — not just the same
// result sets, but the same Results stats and, for SearchAppend, the
// same element order. The oracle is the package's own fan-out-all
// implementation (searchAppendAll & co.), which the PR-4 differential
// suite in diff_test.go already proved equivalent to a single tree; the
// tests here prove pruning changes nothing but the work done.

// assertPrunedEqualsExhaustive runs a query battery through both the
// public pruned paths and the fan-out-all oracles and requires
// byte-identical answers. It also audits the pruning decisions
// themselves: every shard the bounds summaries would skip must in fact
// hold zero matches for the query.
func assertPrunedEqualsExhaustive(t *testing.T, s *ShardedTree, live []geom.Rect, seed int64) {
	t.Helper()
	world := geom.NewRect(0, 0, 1, 1)
	queries := []geom.Rect{
		geom.NewRect(-1, -1, 2, 2), // covers everything: nothing prunable
		geom.NewRect(5, 5, 6, 6),   // covers nothing: everything prunable
	}
	for qi, frac := range []float64{0.0001, 0.001, 0.02} {
		queries = append(queries, dataset.RangeQueries(8, frac, world, seed+int64(qi))...)
	}
	for qi, q := range queries {
		gotRes, gotStats := s.SearchAppend(q, nil)
		wantRes, wantStats := s.searchAppendAll(q, nil)
		if len(gotRes) != len(wantRes) {
			t.Fatalf("query %d (%v): pruned returned %d results, exhaustive %d", qi, q, len(gotRes), len(wantRes))
		}
		for i := range wantRes {
			if gotRes[i] != wantRes[i] {
				t.Fatalf("query %d (%v): result %d is %v, exhaustive has %v (order must match too)",
					qi, q, i, gotRes[i], wantRes[i])
			}
		}
		if gotStats.Results != wantStats.Results {
			t.Fatalf("query %d: pruned Results %d, exhaustive %d", qi, gotStats.Results, wantStats.Results)
		}
		if gotStats.NodesAccessed > wantStats.NodesAccessed {
			t.Fatalf("query %d: pruning accessed MORE nodes (%d) than exhaustive (%d)",
				qi, gotStats.NodesAccessed, wantStats.NodesAccessed)
		}
		if cs, ca := s.SearchCount(q), s.searchCountAll(q); cs.Results != ca.Results {
			t.Fatalf("query %d: pruned count %d, exhaustive %d", qi, cs.Results, ca.Results)
		}
		auditPrunedShards(t, s, q)
	}

	rng := rand.New(rand.NewSource(seed * 7))
	points := make([]geom.Point, 0, 20)
	for i := 0; i < 10; i++ {
		points = append(points, geom.Pt(rng.Float64(), rng.Float64()))
	}
	for i := 0; i < 10 && len(live) > 0; i++ {
		points = append(points, live[rng.Intn(len(live))].Center()) // guaranteed hits
	}
	for pi, p := range points {
		got, gotStats := s.ContainsPoint(p)
		want, wantStats := s.containsPointAll(p)
		if got != want {
			t.Fatalf("point %d (%v): pruned ContainsPoint %v, exhaustive %v", pi, p, got, want)
		}
		if gotStats.NodesAccessed > wantStats.NodesAccessed {
			t.Fatalf("point %d: pruning accessed more nodes (%d > %d)", pi, gotStats.NodesAccessed, wantStats.NodesAccessed)
		}
	}

	for i := 0; i < 8; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		for _, k := range []int{1, 10, 100, s.Len() + 5} {
			got, gotStats := s.KNNAppend(p, k, nil)
			want, wantStats := s.knnAppendAll(p, k, nil)
			if len(got) != len(want) {
				t.Fatalf("KNN(%v, %d): pruned %d neighbors, exhaustive %d", p, k, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("KNN(%v, %d): neighbor %d = %+v, exhaustive %+v (must be byte-identical)",
						p, k, j, got[j], want[j])
				}
			}
			if gotStats.Results != wantStats.Results {
				t.Fatalf("KNN(%v, %d): pruned Results %d, exhaustive %d", p, k, gotStats.Results, wantStats.Results)
			}
			if gotStats.NodesAccessed > wantStats.NodesAccessed {
				t.Fatalf("KNN(%v, %d): pruning accessed more nodes (%d > %d)",
					p, k, gotStats.NodesAccessed, wantStats.NodesAccessed)
			}
		}
	}
}

// auditPrunedShards checks the soundness of each pruning decision
// directly: a shard failing the survivor predicate must hold zero
// matches for q, otherwise pruning would have dropped results.
func auditPrunedShards(t *testing.T, s *ShardedTree, q geom.Rect) {
	t.Helper()
	for i := range s.shards {
		b := s.bounds.shard(i)
		if b.count != 0 && b.rect.Intersects(q) {
			continue // survivor, gets probed
		}
		if st := s.shards[i].SearchCount(q); st.Results != 0 {
			t.Fatalf("shard %d would be pruned for %v (bounds count=%d rect=%v) but holds %d matches",
				i, q, b.count, b.rect, st.Results)
		}
	}
}

// TestPrunedMatchesExhaustive is the main differential: four data
// distributions × shard counts, runs of inserts with interleaved
// deletes, checkpointed thrice against the fan-out-all oracle.
func TestPrunedMatchesExhaustive(t *testing.T) {
	cases := []struct {
		kind   dataset.Kind
		shards int
	}{
		{dataset.UNI, 4}, {dataset.SKE, 2}, {dataset.CHI, 7}, {dataset.GAU, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%dshards", c.kind, c.shards), func(t *testing.T) {
			const n = 2200
			data := dataset.MustGenerate(c.kind, n, int64(c.shards)*101)
			s := newTestSharded(t, c.shards)
			rng := rand.New(rand.NewSource(int64(c.shards) * 13))

			live := map[int]geom.Rect{}
			var ids []int
			next := 0
			insert := func() {
				s.Insert(data[next], next)
				live[next] = data[next]
				ids = append(ids, next)
				next++
			}
			deleteRandom := func() {
				i := rng.Intn(len(ids))
				id := ids[i]
				if !s.Delete(live[id], id) {
					t.Fatalf("live object %d undeletable", id)
				}
				delete(live, id)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			checkpoint := func(seed int64) {
				rects := make([]geom.Rect, 0, len(ids))
				for _, id := range ids {
					rects = append(rects, live[id])
				}
				assertPrunedEqualsExhaustive(t, s, rects, seed)
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
			}

			thresholds := []int{n / 3, 2 * n / 3, n}
			for next < n {
				run := 1 + rng.Intn(8)
				for j := 0; j < run && next < n; j++ {
					insert()
				}
				for rng.Float64() < 0.35 && len(ids) > 50 {
					deleteRandom()
				}
				for len(thresholds) > 0 && next >= thresholds[0] {
					checkpoint(int64(thresholds[0]))
					thresholds = thresholds[1:]
				}
			}
		})
	}
}

// TestPrunedExactUnderConcurrentChurn pins the conservative-cover
// invariant under concurrency: a writer inserts and deletes objects that
// lie outside every query window and beyond every query point's kth
// neighbor, in every shard, so the cell and shard bounds grow and shrink
// under the readers — the last shard holds nothing else, so its
// aggregate flips between empty and non-empty — while the answers cannot
// change. Pruned queries must keep returning the *precomputed* answers;
// a bounds update published out of order would hide a live object.
func TestPrunedExactUnderConcurrentChurn(t *testing.T) {
	const (
		n        = 3000
		shards   = 4
		k        = 20
		readers  = 2
		iters    = 120
		perBurst = 16
	)
	s := newTestSharded(t, shards)
	router := s.Router()
	base := 0
	for i, r := range dataset.MustGenerate(dataset.SKE, n, 77) {
		if router.Shard(r) == shards-1 {
			continue // the last shard is left to the churn writer
		}
		s.Insert(r, i)
		base++
	}

	world := geom.NewRect(0, 0, 1, 1)
	queries := dataset.RangeQueries(24, 0.001, world, 9)
	expected := make([][]int, len(queries))
	for i, q := range queries {
		res, _ := s.searchAppendAll(q, nil)
		expected[i] = sortedIDs(t, res)
	}
	points := dataset.KNNQueryPoints(8, world, 10)
	expDists := make([][]float64, len(points))
	for i, p := range points {
		nb, _ := s.knnAppendAll(p, k, nil)
		for _, x := range nb {
			expDists[i] = append(expDists[i], x.DistSq)
		}
	}

	// Churn objects: small squares that miss every window and lie
	// strictly beyond every query point's kth neighbor, an equal number
	// routed to each shard.
	harmless := func(r geom.Rect) bool {
		for _, q := range queries {
			if r.Intersects(q) {
				return false
			}
		}
		for i, p := range points {
			if r.MinDistSq(p) <= expDists[i][k-1] {
				return false
			}
		}
		return true
	}
	perShard := make([][]geom.Rect, shards)
	rng := rand.New(rand.NewSource(5))
	for filled := 0; filled < shards; {
		r := geom.Square(rng.Float64(), rng.Float64(), 0.01)
		si := router.Shard(r)
		if len(perShard[si]) == perBurst || !harmless(r) {
			continue
		}
		if perShard[si] = append(perShard[si], r); len(perShard[si]) == perBurst {
			filled++
		}
	}

	stop := make(chan struct{})
	var churnWG, readWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			rects := perShard[round%shards]
			ids := make([]any, len(rects))
			for j := range rects {
				ids[j] = n + j
			}
			if (round/shards)%2 == 0 {
				s.InsertBatch(rects, ids)
			} else {
				for j, r := range rects {
					s.Insert(r, ids[j])
				}
			}
			for j, r := range rects {
				if !s.Delete(r, ids[j]) {
					t.Errorf("round %d: churn object %d undeletable", round, j)
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		r := r
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			var dst []any
			var nb []rtree.Neighbor
			for iter := 0; iter < iters; iter++ {
				for i, q := range queries {
					dst, _ = s.SearchAppend(q, dst[:0])
					if got := sortedIDs(t, dst); !equalInts(got, expected[i]) {
						t.Errorf("reader %d iter %d query %d: pruned result drifted under concurrent churn (%d ids, want %d)",
							r, iter, i, len(got), len(expected[i]))
						return
					}
				}
				for i, p := range points {
					nb, _ = s.KNNAppend(p, k, nb[:0])
					if len(nb) != len(expDists[i]) {
						t.Errorf("reader %d iter %d: KNN %d returned %d neighbors, want %d",
							r, iter, i, len(nb), len(expDists[i]))
						return
					}
					for j := range nb {
						if nb[j].DistSq != expDists[i][j] {
							t.Errorf("reader %d iter %d: KNN %d neighbor %d at dist %g, want %g",
								r, iter, i, j, nb[j].DistSq, expDists[i][j])
							return
						}
					}
				}
			}
		}()
	}
	readWG.Wait()
	close(stop)
	churnWG.Wait()

	if got := s.Len(); got != base {
		t.Fatalf("churn changed Len to %d, want %d", got, base)
	}
	if b := s.bounds.shard(shards - 1); b.count != 0 || b.rect != (geom.Rect{}) {
		t.Fatalf("churn-only shard bounds %+v after churn, want empty", *b)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFanoutMerge forces the parallel probe path (wide queries,
// many survivors, GOMAXPROCS raised above 1 for the duration) and
// requires the goroutine merge to reproduce the sequential fan-out-all
// answer exactly — element order included, since the merge is defined
// to be in shard-index order.
func TestParallelFanoutMerge(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 6000
	data := dataset.MustGenerate(dataset.UNI, n, 42)
	s := newTestSharded(t, 8)
	payload := make([]any, n)
	for i := range payload {
		payload[i] = i
	}
	s.InsertBatch(data, payload)

	world := geom.NewRect(0, 0, 1, 1)
	queries := []geom.Rect{
		world,
		geom.NewRect(0, 0, 1, 0.5),
		geom.NewRect(0.5, 0, 1, 1),
		geom.NewRect(0.25, 0.25, 0.75, 0.75),
	}
	queries = append(queries, dataset.RangeQueries(6, 0.05, world, 3)...)

	for qi, q := range queries {
		sentinel := []any{"keep0", "keep1"}
		before := s.FanoutStats()
		got, gotStats := s.SearchAppend(q, sentinel)
		after := s.FanoutStats()
		want, wantStats := s.searchAppendAll(q, []any{"keep0", "keep1"})
		if len(got) != len(want) {
			t.Fatalf("query %d: parallel merge returned %d entries, exhaustive %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: merged entry %d = %v, exhaustive %v", qi, i, got[i], want[i])
			}
		}
		if gotStats.Results != wantStats.Results || gotStats.NodesAccessed > wantStats.NodesAccessed {
			t.Fatalf("query %d: stats %+v vs exhaustive %+v", qi, gotStats, wantStats)
		}
		if cnt := s.SearchCount(q); cnt.Results != wantStats.Results {
			t.Fatalf("query %d: parallel count %d, exhaustive %d", qi, cnt.Results, wantStats.Results)
		}
		if qi == 0 { // the whole-world query must survive pruning everywhere
			if probed := after.ShardsProbed - before.ShardsProbed; probed != 8 {
				t.Fatalf("whole-world query probed %d shards, want all 8", probed)
			}
		}
	}
}

// TestFanoutCounters pins the counter arithmetic: probed + pruned ==
// shards × queries always, an empty tree prunes everything, and a
// selective query on spread data probes a strict subset.
func TestFanoutCounters(t *testing.T) {
	s := newTestSharded(t, 4)
	q := geom.Square(0.1, 0.1, 0.01)

	s.SearchCount(q)
	st := s.FanoutStats()
	if st.Queries != 1 || st.ShardsProbed != 0 || st.ShardsPruned != 4 {
		t.Fatalf("empty tree: %+v, want 1 query / 0 probed / 4 pruned", st)
	}

	data := dataset.MustGenerate(dataset.UNI, 4000, 6)
	for i, r := range data {
		s.Insert(r, i)
	}
	before := s.FanoutStats()
	for _, qq := range dataset.RangeQueries(64, 0.0001, geom.NewRect(0, 0, 1, 1), 7) {
		s.SearchCount(qq)
	}
	after := s.FanoutStats()
	dq := after.Queries - before.Queries
	probed := after.ShardsProbed - before.ShardsProbed
	pruned := after.ShardsPruned - before.ShardsPruned
	if dq != 64 {
		t.Fatalf("counted %d queries, want 64", dq)
	}
	if probed+pruned != 4*dq {
		t.Fatalf("probed %d + pruned %d != shards×queries %d", probed, pruned, 4*dq)
	}
	if probed >= 4*dq {
		t.Fatalf("selective queries probed all shards (%d of %d): pruning inert", probed, 4*dq)
	}
}
