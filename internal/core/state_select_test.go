package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// chooseStateSorted is chooseStateInto as it was before the shortlist
// became a partial selection: every child is featurized and the
// children are ordered by sort.SliceStable. It is the reference the
// selection must reproduce bit for bit.
func chooseStateSorted(sc *chooseScratch, n *rtree.Node, r geom.Rect, k, maxEntries int, padded bool) chooseCandidates {
	entries := n.Entries()
	cc := chooseCandidates{Contained: -1}

	// Containment shortcut (the paper's remark): if children fully contain
	// the new object, no MBR grows — descend into the smallest such child
	// (Guttman's zero-enlargement tie-break) without consulting the model.
	bestArea := 0.0
	feats := sc.feats[:0]
	for i := range entries {
		er := entries[i].Rect
		if er.Contains(r) {
			if a := er.Area(); cc.Contained < 0 || a < bestArea {
				cc.Contained, bestArea = i, a
			}
			continue
		}
		if cc.Contained >= 0 {
			continue // shortcut will fire; skip featurizing
		}
		feats = append(feats, childFeature{
			idx:       i,
			dArea:     er.Enlargement(r),
			dPeri:     er.PerimeterIncrease(r),
			occupancy: float64(n.ChildAt(i).NumEntries()) / float64(maxEntries),
		})
	}
	sc.feats = feats // retain grown capacity for the next call
	if cc.Contained >= 0 {
		return cc
	}

	// Sort by ΔArea ascending, breaking ties by the child's current MBR
	// area — Guttman's tie-break. Ties are frequent with small objects
	// (many children need zero or equal enlargement), and without the
	// secondary key the shortlist order, and therefore action 0, would be
	// arbitrary among tied children.
	areas := growFloats(sc.areas, len(entries))
	sc.areas = areas
	for i := range entries {
		areas[i] = entries[i].Rect.Area()
	}
	sort.SliceStable(feats, func(a, b int) bool {
		if feats[a].dArea != feats[b].dArea {
			return feats[a].dArea < feats[b].dArea
		}
		return areas[feats[a].idx] < areas[feats[b].idx]
	})

	keep := k
	if padded {
		keep = len(feats)
	}
	if keep > len(feats) {
		keep = len(feats)
	}
	feats = feats[:keep]

	// Overlap increase is O(M) per candidate, so it is computed only for
	// the shortlisted children.
	for i := range feats {
		grown := entries[feats[i].idx].Rect.Union(r)
		var d float64
		for j := range entries {
			if j == feats[i].idx {
				continue
			}
			d += grown.OverlapArea(entries[j].Rect) - entries[feats[i].idx].Rect.OverlapArea(entries[j].Rect)
		}
		feats[i].dOvlp = d
	}

	// Normalize by the maxima over the shortlist so every dimension is in
	// [0, 1] and states are comparable across nodes.
	var maxA, maxP, maxO float64
	for _, f := range feats {
		maxA = maxf(maxA, f.dArea)
		maxP = maxf(maxP, f.dPeri)
		maxO = maxf(maxO, f.dOvlp)
	}

	dim := 4 * k
	if padded {
		dim = 4 * maxEntries
	}
	cc.State = growFloats(sc.state, dim)
	sc.state = cc.State
	for i := range cc.State {
		cc.State[i] = 0 // a reused buffer must present clean zero padding
	}
	cc.Children = growInts(sc.children, len(feats))
	sc.children = cc.Children
	for i, f := range feats {
		cc.Children[i] = f.idx
		cc.State[4*i+0] = norm(f.dArea, maxA)
		cc.State[4*i+1] = norm(f.dPeri, maxP)
		cc.State[4*i+2] = norm(f.dOvlp, maxO)
		cc.State[4*i+3] = f.occupancy
	}
	return cc
}

// gridRect returns a rect whose corners lie on a 1/cells grid, so equal
// enlargements and equal areas — the tie cases of the shortlist order —
// are common.
func gridRect(rng *rand.Rand, cells int) geom.Rect {
	g := func() float64 { return float64(rng.Intn(cells+1)) / float64(cells) }
	x, y := g(), g()
	w, h := float64(rng.Intn(3))/float64(cells), float64(rng.Intn(3))/float64(cells)
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// TestSelectFeaturesMatchesStableSort checks the partial selection
// against sort.SliceStable on feature lists of every length 1…M with
// heavily tied keys, including the full selection the padded ablation
// makes.
func TestSelectFeaturesMatchesStableSort(t *testing.T) {
	const maxEntries = 50
	rng := rand.New(rand.NewSource(1))
	areas := make([]float64, maxEntries)
	for n := 1; n <= maxEntries; n++ {
		for trial := 0; trial < 20; trial++ {
			feats := make([]childFeature, n)
			for i := range feats {
				areas[i] = float64(rng.Intn(3)) / 4
				feats[i] = childFeature{idx: i, dArea: float64(rng.Intn(4)) / 8}
			}
			want := append([]childFeature(nil), feats...)
			sort.SliceStable(want, func(a, b int) bool { return featureLess(&want[a], &want[b], areas) })
			// k = n is the padded ablation, which keeps every child.
			for _, k := range []int{1, 2, 3, 5, n} {
				keep := min(k, n)
				got := append([]childFeature(nil), feats...)
				selectFeatures(got, areas, keep)
				for i := 0; i < keep; i++ {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d: slot %d holds child %d, stable sort has child %d", n, k, i, got[i].idx, want[i].idx)
					}
				}
			}
		}
	}
}

// internalNodes returns every internal node of tr.
func internalNodes(tr *rtree.Tree) []*rtree.Node {
	var out []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		if n.IsLeaf() {
			return
		}
		out = append(out, n)
		for i := range n.Entries() {
			walk(n.ChildAt(i))
		}
	}
	walk(tr.Root())
	return out
}

// TestChooseStateMatchesSortedReference runs the selection-based
// chooseStateInto and the sort-based reference on the internal nodes of
// grid-quantized trees of several node sizes, for k ∈ {1, 2, 3, 5} and
// the padded ablation. State must be bit-identical, Children and
// Contained equal.
func TestChooseStateMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := map[int]bool{}
	compared := 0
	for _, m := range []int{4, 8, 16, 50} {
		tr := rtree.New(rtree.Options{MaxEntries: m, MinEntries: 2})
		var live []geom.Rect
		for i := 0; i < 150*m; i++ {
			r := gridRect(rng, 16)
			tr.Insert(r, i)
			live = append(live, r)
			if i%3 == 2 { // churn shrinks nodes below full
				j := rng.Intn(len(live))
				tr.Delete(live[j], j)
			}
		}
		sc := new(chooseScratch)
		for _, n := range internalNodes(tr) {
			sizes[n.NumEntries()] = true
			for q := 0; q < 30; q++ {
				r := gridRect(rng, 16)
				for _, k := range []int{1, 2, 3, 5} {
					for _, padded := range []bool{false, true} {
						want := chooseStateSorted(new(chooseScratch), n, r, k, m, padded)
						got := chooseStateInto(sc, n, r, k, m, padded)
						if got.Contained != want.Contained || len(got.Children) != len(want.Children) || len(got.State) != len(want.State) {
							t.Fatalf("m=%d k=%d padded=%v: got %+v, want %+v", m, k, padded, got, want)
						}
						for i := range want.Children {
							if got.Children[i] != want.Children[i] {
								t.Fatalf("m=%d k=%d padded=%v: children %v, want %v", m, k, padded, got.Children, want.Children)
							}
						}
						for i := range want.State {
							if math.Float64bits(got.State[i]) != math.Float64bits(want.State[i]) {
								t.Fatalf("m=%d k=%d padded=%v: state[%d] = %v, want %v", m, k, padded, i, got.State[i], want.State[i])
							}
						}
						if want.Contained < 0 {
							compared++
						}
					}
				}
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d featurized decisions compared", compared)
	}
	t.Logf("%d featurized decisions on nodes of %d distinct sizes", compared, len(sizes))
	if len(sizes) < 15 {
		t.Fatalf("nodes of only %d distinct sizes compared", len(sizes))
	}
}

// chooseBench is a production-shaped decision: an internal node of a
// 20 000-object GAU tree with M = 50, and objects to place there.
func chooseBench(tb testing.TB) (*rtree.Node, []geom.Rect) {
	tb.Helper()
	data, err := dataset.Generate(dataset.GAU, 20000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tr := rtree.New(rtree.Options{MaxEntries: 50, MinEntries: 20})
	for i, r := range data {
		tr.Insert(r, i)
	}
	nodes := internalNodes(tr)
	n := nodes[len(nodes)/2]
	for _, c := range nodes {
		if c.NumEntries() > n.NumEntries() {
			n = c
		}
	}
	rng := rand.New(rand.NewSource(3))
	objs := make([]geom.Rect, 256)
	for i := range objs {
		objs[i] = geom.Square(rng.Float64(), rng.Float64(), 0.001)
	}
	return n, objs
}

func TestChooseStateWarmScratchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n, objs := chooseBench(t)
	sc := new(chooseScratch)
	for _, r := range objs {
		chooseStateInto(sc, n, r, 2, 50, false)
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		chooseStateInto(sc, n, objs[i%len(objs)], 2, 50, false)
		i++
	}); a != 0 {
		t.Fatalf("chooseStateInto allocates %v times per decision on a warm scratch", a)
	}
}

// BenchmarkChooseState times one ChooseSubtree featurization (k = 2) on a
// full-size node with a warm scratch. CI gates it at 0 allocs/op.
func BenchmarkChooseState(b *testing.B) {
	n, objs := chooseBench(b)
	sc := new(chooseScratch)
	for _, r := range objs {
		chooseStateInto(sc, n, r, 2, 50, false) // grow the scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chooseStateInto(sc, n, objs[i%len(objs)], 2, 50, false)
	}
}
