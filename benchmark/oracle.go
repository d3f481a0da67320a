package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// model is the client's own picture of the keyed collection: object i
// has key keys[i] and was last acknowledged at rects[i]. It answers the
// same queries by brute-force scan, sharing no code with the index.
type model struct {
	keys  []string
	rects []geom.Rect
}

// pageResp is the wire form of one paged keyed query response.
type pageResp struct {
	Keys   []string     `json:"keys"`
	Rects  [][4]float64 `json:"rects"`
	Dists  []float64    `json:"dists"`
	Cursor string       `json:"cursor"`
	Count  int          `json:"count"`
	Nodes  int          `json:"nodes_accessed"`
}

func wireRect(r geom.Rect) [4]float64 { return [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} }

// search returns the indexes of the objects intersecting q, ascending —
// which is key order, the order the paged API promises.
func (m *model) search(q geom.Rect) []int {
	var hit []int
	for i, r := range m.rects {
		if r.Intersects(q) {
			hit = append(hit, i)
		}
	}
	return hit
}

// nearest returns the k objects nearest to p in (distance, key) order.
func (m *model) nearest(p geom.Point, k int) []int {
	type cand struct {
		d float64
		i int
	}
	best := make([]cand, 0, k+1)
	for i, r := range m.rects {
		d := r.MinDistSq(p)
		if len(best) == k && d >= best[k-1].d {
			continue // ties keep the smaller index, which is already in
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].d > d })
		best = append(best, cand{})
		copy(best[at+1:], best[at:])
		best[at] = cand{d, i}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for j, c := range best {
		out[j] = c.i
	}
	return out
}

// check verifies a query response against the brute-force answer: the
// same keys in the same order at the same rects, the true row count on
// this page, and a cursor exactly when rows remain.
func (m *model) check(o op, limit int, body []byte) error {
	var got pageResp
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	var want []int
	if o.kind == opKNN {
		want = m.nearest(o.pt, knnK)
	} else {
		want = m.search(o.rect)
	}
	more := len(want) > limit
	if more {
		want = want[:limit]
	}
	if len(got.Keys) != len(want) || len(got.Rects) != len(want) || got.Count != len(want) {
		return fmt.Errorf("%s: %d keys, %d rects, count %d; the model has %d", opKindNames[o.kind], len(got.Keys), len(got.Rects), got.Count, len(want))
	}
	if (got.Cursor != "") != more {
		return fmt.Errorf("%s: cursor %q but more rows remain = %v", opKindNames[o.kind], got.Cursor, more)
	}
	for j, i := range want {
		if got.Keys[j] != m.keys[i] || got.Rects[j] != wireRect(m.rects[i]) {
			return fmt.Errorf("%s: row %d is %s@%v; the model has %s@%v", opKindNames[o.kind], j, got.Keys[j], got.Rects[j], m.keys[i], wireRect(m.rects[i]))
		}
	}
	if o.kind == opKNN {
		return checkDists(o.pt, got)
	}
	return nil
}

// checkDists verifies that a KNN page's distances are those of its own
// rects and never decrease.
func checkDists(p geom.Point, got pageResp) error {
	if len(got.Dists) != len(got.Rects) {
		return fmt.Errorf("knn: %d dists for %d rects", len(got.Dists), len(got.Rects))
	}
	for j, w := range got.Rects {
		d := geom.Rect{MinX: w[0], MinY: w[1], MaxX: w[2], MaxY: w[3]}.MinDistSq(p)
		if math.Abs(got.Dists[j]-d) > 1e-12*math.Max(d, 1) {
			return fmt.Errorf("knn: row %d reports distsq %g, its rect is at %g", j, got.Dists[j], d)
		}
		if j > 0 && got.Dists[j] < got.Dists[j-1] {
			return fmt.Errorf("knn: distances decrease at row %d", j)
		}
	}
	return nil
}

// checkShape is the self-consistency check for a response read while
// another connection moves objects, when no single model state is the
// right answer: every row must satisfy the query it answers, in the
// promised order, within the page limit.
func checkShape(o op, limit int, body []byte) error {
	var got pageResp
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	max := limit
	if o.kind == opKNN && knnK < max {
		max = knnK
	}
	if len(got.Keys) != len(got.Rects) || got.Count != len(got.Keys) || len(got.Keys) > max {
		return fmt.Errorf("%s: %d keys, %d rects, count %d, limit %d", opKindNames[o.kind], len(got.Keys), len(got.Rects), got.Count, max)
	}
	if o.kind == opKNN {
		return checkDists(o.pt, got)
	}
	for j, w := range got.Rects {
		if !(geom.Rect{MinX: w[0], MinY: w[1], MaxX: w[2], MaxY: w[3]}).Intersects(o.rect) {
			return fmt.Errorf("%s: row %d (%s) does not intersect the window", opKindNames[o.kind], j, got.Keys[j])
		}
		if j > 0 && got.Keys[j] <= got.Keys[j-1] {
			return fmt.Errorf("%s: keys out of order at row %d", opKindNames[o.kind], j)
		}
	}
	return nil
}
