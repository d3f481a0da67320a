package rlrtree_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	rlrtree "github.com/rlr-tree/rlrtree"
)

func trainData(n int) []rlrtree.Rect {
	rng := rand.New(rand.NewSource(42))
	data := make([]rlrtree.Rect, n)
	for i := range data {
		x := 0.5 + rng.NormFloat64()*0.2
		y := 0.5 + rng.NormFloat64()*0.2
		data[i] = rlrtree.Square(clamp01(x), clamp01(y), 0.001)
	}
	return data
}

func clamp01(v float64) float64 {
	if v < 0.001 {
		return 0.001
	}
	if v > 0.999 {
		return 0.999
	}
	return v
}

func tinyCfg() rlrtree.TrainConfig {
	return rlrtree.TrainConfig{
		K: 2, P: 4,
		ChooseEpochs: 1, SplitEpochs: 1, Parts: 3,
		MaxEntries: 16, MinEntries: 6,
		TrainingQueryFrac: 0.001,
		Seed:              5,
	}
}

func TestPublicGeometryHelpers(t *testing.T) {
	r := rlrtree.NewRect(0.5, 0.5, 0.1, 0.1)
	if r.MinX != 0.1 || r.MaxX != 0.5 {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
	p := rlrtree.Pt(0.3, 0.4)
	if !rlrtree.PointRect(p).ContainsPoint(p) {
		t.Fatalf("PointRect broken")
	}
	if rlrtree.Square(0.5, 0.5, 0.2).Area() < 0.039 {
		t.Fatalf("Square broken")
	}
}

func TestPublicHeuristicTree(t *testing.T) {
	tree := rlrtree.New(rlrtree.Options{
		MaxEntries: 16, MinEntries: 6,
		Chooser: rlrtree.RStarChooser{}, Splitter: rlrtree.RStarSplit{},
	})
	data := trainData(2000)
	for i, r := range data {
		tree.Insert(r, i)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	q := rlrtree.NewRect(0.45, 0.45, 0.55, 0.55)
	got, stats := tree.Search(q)
	want := 0
	for _, r := range data {
		if q.Intersects(r) {
			want++
		}
	}
	if len(got) != want || stats.NodesAccessed == 0 {
		t.Fatalf("search: %d results (want %d), stats %+v", len(got), want, stats)
	}
	if _, err := rlrtree.NewChecked(rlrtree.Options{MaxEntries: 3}); err == nil {
		t.Fatalf("NewChecked accepted bad options")
	}
}

func TestPublicTrainAndUse(t *testing.T) {
	data := trainData(3000)
	pol, report, err := rlrtree.TrainCombined(data[:1000], tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if report.ChooseUpdates == 0 || report.SplitUpdates == 0 {
		t.Fatalf("training did no updates: %+v", report)
	}
	tree := rlrtree.NewRLRTree(pol)
	for i, r := range data {
		tree.Insert(r, i)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	nn, _ := tree.KNN(rlrtree.Pt(0.5, 0.5), 5)
	if len(nn) != 5 {
		t.Fatalf("KNN returned %d", len(nn))
	}
	// Policies persist and reload through the public API.
	path := filepath.Join(t.TempDir(), "p.json")
	if err := pol.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := rlrtree.LoadPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != pol.K {
		t.Fatalf("reloaded policy differs")
	}
}

func TestPublicDistillAndHotPolicy(t *testing.T) {
	data := trainData(1500)
	pol, _, err := rlrtree.TrainChoosePolicy(data[:800], tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	bundle, report, err := rlrtree.Distill(pol, rlrtree.DistillConfig{Samples: 1500, Data: data[:800], Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bundle.Distilled() || report.ChooseAgreement == 0 {
		t.Fatalf("distill produced nothing: %+v", report)
	}
	// Bundles persist as v2 files and reload with artifacts intact.
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := bundle.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := rlrtree.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ChooseTable == nil {
		t.Fatalf("reloaded bundle lost artifacts")
	}
	// The hot policy drives a tree and swaps backends mid-stream.
	hot, err := rlrtree.NewHotPolicy(back, "table")
	if err != nil {
		t.Fatal(err)
	}
	tree := rlrtree.New(rlrtree.Options{
		MaxEntries: back.MaxEntries, MinEntries: back.MinEntries,
		Chooser: hot.Chooser(), Splitter: hot.Splitter(),
	})
	for i, r := range data[:700] {
		tree.Insert(r, i)
	}
	if err := hot.Swap(nil, "mlp"); err != nil {
		t.Fatal(err)
	}
	for i, r := range data[700:] {
		tree.Insert(r, 700+i)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(data) {
		t.Fatalf("tree holds %d objects, want %d", tree.Len(), len(data))
	}
	if got := len(rlrtree.PolicyKinds()); got != 3 {
		t.Fatalf("PolicyKinds has %d entries", got)
	}
}

func TestPublicSingleOperationTraining(t *testing.T) {
	data := trainData(1000)
	if pol, _, err := rlrtree.TrainChoosePolicy(data, tinyCfg()); err != nil || pol.ChooseNet == nil {
		t.Fatalf("choose training: %v", err)
	}
	if pol, _, err := rlrtree.TrainSplitPolicy(data, tinyCfg()); err != nil || pol.SplitNet == nil {
		t.Fatalf("split training: %v", err)
	}
}

func ExampleNew() {
	tree := rlrtree.New(rlrtree.Options{MaxEntries: 8, MinEntries: 3})
	tree.Insert(rlrtree.Square(0.2, 0.2, 0.1), "cafe")
	tree.Insert(rlrtree.Square(0.8, 0.8, 0.1), "museum")
	results, _ := tree.Search(rlrtree.NewRect(0, 0, 0.5, 0.5))
	fmt.Println(results[0])
	// Output: cafe
}

func TestPublicBulkLoadAndSerialization(t *testing.T) {
	gob.Register(int(0))
	data := trainData(3000)
	items := make([]rlrtree.Item, len(data))
	for i, r := range data {
		items[i] = rlrtree.Item{Rect: r, Data: i}
	}
	tree, err := rlrtree.BulkLoadSTR(rlrtree.Options{MaxEntries: 16, MinEntries: 6}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tree.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rlrtree.DecodeTree(&buf, rlrtree.Options{MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tree.Len() {
		t.Fatalf("round trip lost objects: %d vs %d", back.Len(), tree.Len())
	}
	// Best-first KNN agrees with the default DFS KNN through the facade.
	p := rlrtree.Pt(0.5, 0.5)
	a, _ := back.KNN(p, 9)
	b, _ := back.KNNBestFirst(p, 9)
	for i := range a {
		if a[i].DistSq != b[i].DistSq {
			t.Fatalf("KNN variants disagree at %d", i)
		}
	}
}

func TestPublicConcurrentTree(t *testing.T) {
	ct := rlrtree.NewConcurrentTree(rlrtree.New(rlrtree.Options{MaxEntries: 16, MinEntries: 6}))
	data := trainData(500)
	rects := make([]rlrtree.Rect, len(data))
	payloads := make([]any, len(data))
	for i, r := range data {
		rects[i], payloads[i] = r, i
	}
	ct.InsertBatch(rects, payloads)
	if ct.Len() != len(data) {
		t.Fatalf("len %d", ct.Len())
	}
	res, stats := ct.Search(rlrtree.NewRect(0, 0, 1, 1))
	if len(res) != len(data) || stats.NodesAccessed == 0 {
		t.Fatalf("search: %d results, %+v", len(res), stats)
	}
	var ts rlrtree.TreeStats
	ct.View(func(tr *rlrtree.Tree) { ts = tr.Stats() })
	if ts.Size != len(data) || ts.Nodes == 0 {
		t.Fatalf("stats: %+v", ts)
	}
}

func TestPublicIteratorJoinAndPager(t *testing.T) {
	data := trainData(2000)
	tree := rlrtree.New(rlrtree.Options{MaxEntries: 16, MinEntries: 6})
	other := rlrtree.New(rlrtree.Options{MaxEntries: 16, MinEntries: 6})
	for i, r := range data {
		tree.Insert(r, i)
		if i%2 == 0 {
			other.Insert(r, i)
		}
	}

	// Incremental nearest neighbors.
	it := tree.NewNearestIter(rlrtree.Pt(0.5, 0.5))
	prev := -1.0
	for i := 0; i < 10; i++ {
		nb, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended at %d", i)
		}
		if nb.DistSq < prev {
			t.Fatalf("distances decreased")
		}
		prev = nb.DistSq
	}

	// Spatial join: every object of `other` intersects itself in `tree`.
	selfPairs := 0
	rlrtree.JoinIntersects(tree, other, func(p rlrtree.JoinPair) {
		if p.DataA == p.DataB {
			selfPairs++
		}
	})
	if selfPairs != other.Len() {
		t.Fatalf("join found %d self pairs, want %d", selfPairs, other.Len())
	}

	// Pager replay.
	pool := rlrtree.NewBufferPool(8)
	rlrtree.WarmPool(tree, pool)
	io := rlrtree.ReplayRange(tree, pool, []rlrtree.Rect{rlrtree.NewRect(0.4, 0.4, 0.6, 0.6)})
	if io.Accesses == 0 || io.Faults > io.Accesses {
		t.Fatalf("bad IO stats %+v", io)
	}

	// SVG rendering through the facade.
	var buf bytes.Buffer
	if err := tree.WriteSVG(&buf, rlrtree.SVGOptions{Width: 200}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty SVG")
	}
}

func ExampleTree_KNN() {
	tree := rlrtree.New(rlrtree.Options{MaxEntries: 8, MinEntries: 3})
	tree.Insert(rlrtree.PointRect(rlrtree.Pt(0.1, 0.1)), "near")
	tree.Insert(rlrtree.PointRect(rlrtree.Pt(0.9, 0.9)), "far")
	nn, _ := tree.KNN(rlrtree.Pt(0, 0), 1)
	fmt.Println(nn[0].Data)
	// Output: near
}

func ExampleBulkLoadSTR() {
	items := []rlrtree.Item{
		{Rect: rlrtree.Square(0.25, 0.25, 0.1), Data: "a"},
		{Rect: rlrtree.Square(0.75, 0.75, 0.1), Data: "b"},
	}
	tree, err := rlrtree.BulkLoadSTR(rlrtree.Options{MaxEntries: 8, MinEntries: 3}, items)
	if err != nil {
		panic(err)
	}
	fmt.Println(tree.Len())
	// Output: 2
}

func ExampleJoinIntersects() {
	a := rlrtree.New(rlrtree.Options{MaxEntries: 8, MinEntries: 3})
	b := rlrtree.New(rlrtree.Options{MaxEntries: 8, MinEntries: 3})
	a.Insert(rlrtree.NewRect(0, 0, 1, 1), "zone")
	b.Insert(rlrtree.PointRect(rlrtree.Pt(0.5, 0.5)), "sensor")
	b.Insert(rlrtree.PointRect(rlrtree.Pt(5, 5)), "outside")
	rlrtree.JoinIntersects(a, b, func(p rlrtree.JoinPair) {
		fmt.Println(p.DataA, "contains", p.DataB)
	})
	// Output: zone contains sensor
}
