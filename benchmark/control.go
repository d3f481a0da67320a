package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rlr-tree/rlrtree"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

// controlTrees is how many reference trees make up the control. One
// reference R-Tree's query cost depends heavily on the order its first
// few hundred objects arrived in — the same 100 K objects cost 20 to 27
// node accesses per window across insertion orders, while the policy
// tree stays within 2 % — so a single one would make every ratio taken
// to it mostly a measurement of that accident.
const controlTrees = 8

// control is the in-run reference: the paper's reference R-Tree
// (Guttman insertion, quadratic split, capacity 50/20), held in the
// benchmark process and fed the same objects, eight times over — tree 0
// in stream order, the others in seeded shuffles of it. Node accesses
// relative to it are rna_*, write time relative to it is
// insert_cost_ratio, so both are ratios to something measured on the
// same host in the same run.
type control struct {
	trees   []*rlrtree.Tree
	orders  [][]int // orders[t] is tree t's insertion order; orders[0] is stream order
	pos     []geom.Rect
	writeNs [controlTrees]int64 // time inside each tree's writes counted below
	writes  int                 // writes per tree
}

func newControl(rects []geom.Rect, seed int64) *control {
	ct := &control{pos: append([]geom.Rect(nil), rects...)}
	for t := 0; t < controlTrees; t++ {
		order := make([]int, len(rects))
		for i := range order {
			order[i] = i
		}
		if t > 0 {
			rand.New(rand.NewSource(seed*controlTrees+int64(t))).Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		ct.trees, ct.orders = append(ct.trees, rlrtree.New(rlrtree.Options{})), append(ct.orders, order)
	}
	return ct
}

// load inserts positions lo..hi of every tree's insertion order.
func (ct *control) load(lo, hi int) {
	for t, tree := range ct.trees {
		for _, i := range ct.orders[t][lo:hi] {
			start := time.Now()
			tree.Insert(ct.pos[i], i)
			ct.writeNs[t] += int64(time.Since(start))
		}
	}
	ct.writes += hi - lo
}

// move replays acknowledged SETs as delete + reinsert on every tree,
// restarting the write clock: the ratio compares moves with moves.
func (ct *control) move(moves ...[]op) error {
	ct.writeNs, ct.writes = [controlTrees]int64{}, 0
	for t, tree := range ct.trees {
		pos := append([]geom.Rect(nil), ct.pos...)
		start := time.Now()
		for _, ms := range moves {
			for _, o := range ms {
				if !tree.Delete(pos[o.key], o.key) {
					return fmt.Errorf("control tree lost object %d", o.key)
				}
				tree.Insert(o.rect, o.key)
				pos[o.key] = o.rect
			}
		}
		ct.writeNs[t] = int64(time.Since(start))
		if t == controlTrees-1 {
			ct.pos = pos
		}
	}
	for _, ms := range moves {
		ct.writes += len(ms)
	}
	return nil
}

// secondsPerWrite is the median tree's time per write: a stall of the
// host during one tree's turn does not move it.
func (ct *control) secondsPerWrite() float64 {
	per := make([]float64, controlTrees)
	for t, ns := range ct.writeNs {
		per[t] = float64(ns) / 1e9 / float64(ct.writes)
	}
	return median(per)
}

// totalWriteSeconds is the time inside all trees' writes together.
func (ct *control) totalWriteSeconds() (s float64) {
	for _, ns := range ct.writeNs {
		s += float64(ns) / 1e9
	}
	return s
}

// ratio is one query's relative node accesses: nodes, what the index
// under test visited, over what each control tree visits, averaged.
func (ct *control) ratio(o op, nodes int) float64 {
	sum := 0.0
	for _, tree := range ct.trees {
		var st rlrtree.QueryStats
		if o.kind == opKNN {
			_, st = tree.KNN(o.pt, knnK)
		} else {
			st = tree.SearchCount(o.rect)
		}
		sum += float64(nodes) / float64(st.NodesAccessed)
	}
	return sum / controlTrees
}
