package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/rlr-tree/rlrtree"
	"github.com/rlr-tree/rlrtree/internal/experiment"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

// tableTreeOptions returns tree options that decide through the
// bundle's distilled table engines — what `rlr-serve -policy B
// -policy-kind table` builds its shards with.
func tableTreeOptions(bundle *rlrtree.PolicyBundle) (rlrtree.Options, *rlrtree.HotPolicy, error) {
	hot, err := rlrtree.NewHotPolicy(bundle, "table")
	if err != nil {
		return rlrtree.Options{}, nil, err
	}
	return rlrtree.Options{
		MaxEntries: bundle.MaxEntries, MinEntries: bundle.MinEntries,
		Chooser: hot.Chooser(), Splitter: hot.Splitter(),
	}, hot, nil
}

// runBuild is the build_policy workload — the paper's experiment, in
// the library, on one goroutine: stream the objects into the reference
// R-Trees (the in-run control) and into the table-backend RLR-Tree, then
// put the same query battery to all. No server, log, shard or collection
// is involved.
func runBuild(e *env, seed int64, sz sizes, bundlePath string) (*runResult, error) {
	res := newResult(wlBuildPolicy, seed)
	work := filepath.Join(e.out, "run-"+wlBuildPolicy)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up is short here (load the bundle, draw the inputs), so it is
	// done three times and the median reported.
	var (
		rects   []geom.Rect
		battery []op
		opts    rlrtree.Options
		setups  []float64
	)
	for i := 0; i < 3; i++ {
		start := time.Now()
		bundle, err := rlrtree.LoadBundle(bundlePath)
		if err != nil {
			return nil, err
		}
		if opts, _, err = tableTreeOptions(bundle); err != nil {
			return nil, err
		}
		if rects, err = genObjects(sz.objects, seed); err != nil {
			return nil, err
		}
		battery = genQueries(sz.battery, seed+2)
		setups = append(setups, time.Since(start).Seconds())
	}
	res.E2E.set("setup_s", median(setups), "s")
	before, err := calibrate(work, "")
	if err != nil {
		return nil, err
	}

	// Inserts, every one timed, the trees taking turns slice by slice so a
	// slow spell of the host lands on all of them.
	var all tally
	ct, tbl := newControl(rects, seed), rlrtree.New(opts)
	tblNs := make(lats, 0, len(rects))
	var sliceRates []float64
	for s := 0; s < segments; s++ {
		lo, hi := s*len(rects)/segments, (s+1)*len(rects)/segments
		ct.load(lo, hi)
		for i := lo; i < hi; i++ {
			start := time.Now()
			tbl.Insert(rects[i], i)
			tblNs.add(time.Since(start))
		}
		sliceRates = append(sliceRates, float64(hi-lo)/(float64(tblNs[lo:hi].sum())/1e9))
	}
	all.attempted += (1 + controlTrees) * len(rects)
	// Throughput is the median slice's; the ratio is taken over all the
	// time both sides spent, which the alternation makes the same spells
	// of the host.
	res.E2E.set("sets_per_s", median(sliceRates), "1/s")
	res.E2E.set("insert_cost_ratio", float64(tblNs.sum())/1e9/(ct.totalWriteSeconds()/controlTrees), "ratio")
	res.E2E.set("set_p50_ms", tblNs.ms(0.50), "ms")
	res.Layer.set("set_p99_ms", tblNs.ms(0.99), "ms")
	res.Samples["set_p50_ms"], res.Samples["set_p99_ms"] = len(tblNs), len(tblNs)
	ref := ct.trees[0]
	for _, t := range append([]*rlrtree.Tree{tbl}, ct.trees...) {
		if err := t.Validate(); err != nil {
			all.fail("tree invalid after build: %v", err)
		} else if t.Len() != len(rects) {
			all.fail("tree holds %d objects, streamed %d", t.Len(), len(rects))
		}
	}

	// The battery: RNA as the experiments measure it, against each control
	// tree, averaged.
	var windows []geom.Rect
	var points []geom.Point
	for _, q := range battery {
		if q.kind == opKNN {
			points = append(points, q.pt)
		} else {
			windows = append(windows, q.rect)
		}
	}
	var rnaRange, rnaKNN float64
	for _, ref := range ct.trees {
		rnaRange += experiment.MeasureRNA(tbl, ref, windows) / controlTrees
		rnaKNN += experiment.MeasureRNAKNN(tbl, ref, points, knnK) / controlTrees
	}
	res.E2E.set("rna_range", rnaRange, "ratio")
	res.E2E.set("rna_knn", rnaKNN, "ratio")
	// Then five timed passes over the table tree, the median pass reported.
	// On the first, 1% of its answers and of the stream-order reference
	// tree's are checked against a scan of the input.
	const passes = 5
	var (
		first                    [numOpKinds]lats
		rates, searchP50, knnP50 []float64
		nodes                    int
		hits                     []any
		nbrs                     []rlrtree.Neighbor
		st                       rlrtree.QueryStats
		m                        = &model{rects: rects}
	)
	for pass := 0; pass < passes; pass++ {
		var byKind [numOpKinds]lats
		for i, q := range battery {
			start := time.Now()
			if q.kind == opKNN {
				nbrs, st = tbl.KNNAppend(q.pt, knnK, nbrs[:0])
			} else {
				hits, st = tbl.SearchAppend(q.rect, hits[:0])
			}
			byKind[q.kind].add(time.Since(start))
			if pass > 0 {
				continue
			}
			nodes += st.NodesAccessed
			all.attempted++
			if i%100 != 0 {
				continue
			}
			checkTrees(&all, m, ref, q, hits, nbrs)
		}
		if pass == 0 {
			first = byKind
		}
		search, knn := concat(byKind[opSmall], byKind[opLarge]), byKind[opKNN]
		// Throughput over the time spent inside queries: the scans of the
		// oracle run between them and are not the library's time.
		rates = append(rates, float64(len(battery))/(float64(search.sum()+knn.sum())/1e9))
		searchP50, knnP50 = append(searchP50, search.ms(0.50)), append(knnP50, knn.ms(0.50))
	}
	search := concat(first[opSmall], first[opLarge])
	res.E2E.set("queries_per_s", median(rates), "1/s")
	res.E2E.set("search_p50_ms", median(searchP50), "ms")
	res.Layer.set("search_p99_ms", search.ms(0.99), "ms")
	res.E2E.set("knn_p50_ms", median(knnP50), "ms")
	res.E2E.set("nodes_per_query", float64(nodes)/float64(len(battery)), "count")
	res.Samples["search_p50_ms"], res.Samples["search_p99_ms"], res.Samples["knn_p50_ms"] = len(search), len(search), len(first[opKNN])

	// Recovery, library style: persist the built index, load it back,
	// and check it is the same index.
	snap := filepath.Join(work, "tree.bin")
	f, err := os.Create(snap)
	if err != nil {
		return nil, err
	}
	if err := tbl.Encode(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("encode table tree: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// Decoding is short and allocates, so a collection cycle of this
	// process's large heap landing in it doubles it: collect first, decode
	// five times, report the median.
	var recovers []float64
	var restored *rlrtree.Tree
	for i := 0; i < 5; i++ {
		runtime.GC()
		recoverStart := time.Now()
		f, err := os.Open(snap)
		if err != nil {
			return nil, err
		}
		restored, err = rlrtree.DecodeTree(f, opts)
		f.Close()
		all.attempted++
		if err != nil {
			return nil, fmt.Errorf("decode table tree: %w", err)
		}
		if restored.Len() != len(rects) {
			all.fail("restored tree holds %d objects, built %d", restored.Len(), len(rects))
		}
		recovers = append(recovers, time.Since(recoverStart).Seconds())
	}
	res.E2E.set("recover_s", median(recovers), "s")
	for _, w := range windows[:min(len(windows), 200)] {
		if restored.SearchCount(w) != tbl.SearchCount(w) {
			all.fail("restored tree answers %v differently", w)
			break
		}
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.E2E.set("rss_mb", rss, "MiB")
	after, err := calibrate(work, "")
	if err != nil {
		return nil, err
	}
	res.finish(all, before, after)
	res.ladderIn = &ladderInput{rects: rects, battery: battery, library: true}
	res.ladderIn.e2eP50Us = [numLadderKinds]float64{
		lkInsert: tblNs.us(0.5), lkSmall: first[opSmall].us(0.5), lkLarge: first[opLarge].us(0.5), lkKNN: first[opKNN].us(0.5),
	}
	return res, nil
}

// checkTrees compares the table tree's answer to q (hits or nbrs) and
// the reference tree's with a scan of the input.
func checkTrees(t *tally, m *model, ref *rlrtree.Tree, q op, hits []any, nbrs []rlrtree.Neighbor) {
	if q.kind != opKNN {
		want := m.search(q.rect)
		refHits, _ := ref.Search(q.rect)
		if !sameInts(hits, want) || !sameInts(refHits, want) {
			t.fail("search %v: the trees return %d and %d objects, the scan %d", q.rect, len(hits), len(refHits), len(want))
		}
		return
	}
	refNbrs, _ := ref.KNN(q.pt, knnK)
	for j, i := range m.nearest(q.pt, knnK) {
		// Ties at equal distance may come back in any order; compare distances.
		d := m.rects[i].MinDistSq(q.pt)
		if j >= len(nbrs) || j >= len(refNbrs) || nbrs[j].DistSq != d || refNbrs[j].DistSq != d {
			t.fail("knn at %v: neighbour %d disagrees with the scan", q.pt, j)
			return
		}
	}
}

// sameInts reports whether the payloads are exactly the indexes in want
// (ascending), in any order.
func sameInts(got []any, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make([]int, len(got))
	for i, g := range got {
		ids[i], _ = g.(int)
	}
	sort.Ints(ids)
	for i := range ids {
		if ids[i] != want[i] {
			return false
		}
	}
	return true
}
