package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

// Workload names are stable: later issues cite them.
const (
	wlQueryServe    = "query_serve"
	wlMovingDurable = "moving_durable"
	wlMixedRW       = "mixed_rw"
	wlBuildPolicy   = "build_policy"
)

var workloadNames = []string{wlQueryServe, wlMovingDurable, wlMixedRW, wlBuildPolicy}

// Fixed settings of every serving workload (see README): closed loop,
// two client connections, paged keyed queries with one page of pageLimit
// rows, K nearest neighbours, and the query mix below.
const (
	knnK       = 10
	pageLimit  = 100
	smallFrac  = 0.0001 // 0.01% of the unit square
	largeFrac  = 0.01   // 1%
	smallShare = 0.6
	largeShare = 0.2 // the rest is KNN
	writeDepth = 8   // pipelined SETs per connection write in a measured phase
	loadDepth  = 32  // pipeline depth of the single preload connection
)

// sizes fixes how much work one run of a workload does. Op counts are
// fixed, never time-boxed, so node accesses and WAL bytes repeat exactly
// for a seed wherever one connection writes; the full scale multiplies
// the per-second rates below by -seconds so a measured phase lasts about
// that long on the reference 2-core box.
type sizes struct {
	objects int // keyed objects preloaded; build_policy: objects streamed into both trees
	queries int // measured queries across the reader connections
	sets    int // measured SETs across the writer connections; 0 = churn until the readers finish
	battery int // quiescent quality-battery queries, in the usual mix
	verify  int // stride of the post-recovery GET verification (1 = every key)
	ladder  int // ops per op kind replayed up the traced ladder
}

// policySizes fixes the shared policy bundle's training run.
type policySizes struct {
	trainN, chooseEpochs, splitEpochs, parts int
}

const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

func policySizesFor(scale string) policySizes {
	if scale == scaleSmoke {
		return policySizes{trainN: 1500, chooseEpochs: 1, splitEpochs: 1, parts: 2}
	}
	return policySizes{trainN: 20_000, chooseEpochs: 3, splitEpochs: 2, parts: 15}
}

func sizesFor(workload, scale string, seconds int) (sizes, error) {
	if scale == scaleSmoke {
		switch workload {
		case wlQueryServe:
			return sizes{objects: 1000, queries: 600, battery: 200, verify: 1, ladder: 300}, nil
		case wlMovingDurable:
			return sizes{objects: 1000, sets: 800, battery: 200, verify: 1, ladder: 300}, nil
		case wlMixedRW:
			return sizes{objects: 1000, queries: 600, battery: 200, verify: 1, ladder: 300}, nil
		case wlBuildPolicy:
			return sizes{objects: 3000, battery: 400, ladder: 300}, nil
		}
	}
	s := seconds
	switch workload {
	case wlQueryServe:
		return sizes{objects: 100_000, queries: 8000 * s, battery: 5000, verify: 10, ladder: 10_000}, nil
	case wlMovingDurable:
		return sizes{objects: 20_000, sets: 5200 * s, battery: 5000, verify: 1, ladder: 10_000}, nil
	case wlMixedRW:
		return sizes{objects: 20_000, queries: 14_000 * s, battery: 5000, verify: 1, ladder: 10_000}, nil
	case wlBuildPolicy:
		return sizes{objects: 20_000 * s, battery: 25_000, ladder: 10_000}, nil
	}
	return sizes{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

type opKind uint8

const (
	opSet opKind = iota
	opSmall
	opLarge
	opKNN
	numOpKinds
)

var opKindNames = [numOpKinds]string{"set", "search_small", "search_large", "knn"}

// op is one request of a workload's stream: a keyed SET of object key to
// rect, a window query over rect, or a K-nearest query at pt.
type op struct {
	kind opKind
	key  int
	rect geom.Rect
	pt   geom.Point
}

// genObjects draws the n GAU objects every workload indexes.
func genObjects(n int, seed int64) ([]geom.Rect, error) {
	return dataset.Generate(dataset.GAU, n, seed)
}

// genQueries draws n queries in the fixed 60/20/20 mix with centers
// uniform over the unit square — the paper's test-query distribution.
func genQueries(n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	small, large := math.Sqrt(smallFrac), math.Sqrt(largeFrac)
	out := make([]op, n)
	for i := range out {
		u, x, y := rng.Float64(), rng.Float64(), rng.Float64()
		switch {
		case u < smallShare:
			out[i] = op{kind: opSmall, rect: geom.Square(x, y, small)}
		case u < smallShare+largeShare:
			out[i] = op{kind: opLarge, rect: geom.Square(x, y, large)}
		default:
			out[i] = op{kind: opKNN, pt: geom.Pt(x, y)}
		}
	}
	return out
}

// walker random-walks the objects of one writer connection. Connection
// w of nw owns keys w, w+nw, …, so no two connections move the same
// object and each one's view of its objects' positions is exact.
type walker struct {
	rng    *rand.Rand
	pos    []geom.Rect // shared; only owned indexes are touched
	w, nw  int
	owned  int
	staged []op
}

func newWalker(pos []geom.Rect, w, nw int, seed int64) *walker {
	return &walker{
		rng: rand.New(rand.NewSource(seed + int64(w)*7919)),
		pos: pos, w: w, nw: nw,
		owned: (len(pos) - w + nw - 1) / nw,
	}
}

// next stages the next move — about 1% of the unit square per step,
// reflecting off the world edges — without committing it.
func (wk *walker) next() op {
	i := wk.w + wk.rng.Intn(wk.owned)*wk.nw
	r := wk.pos[i]
	for _, s := range wk.staged { // a key moved twice in one batch walks from its staged position
		if s.key == i {
			r = s.rect
		}
	}
	w, h := r.Width(), r.Height()
	x := reflect(r.MinX+(wk.rng.Float64()-0.5)*0.02, 1-w)
	y := reflect(r.MinY+(wk.rng.Float64()-0.5)*0.02, 1-h)
	o := op{kind: opSet, key: i, rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}}
	wk.staged = append(wk.staged, o)
	return o
}

// commit records the staged moves as acknowledged.
func (wk *walker) commit() {
	for _, s := range wk.staged {
		wk.pos[s.key] = s.rect
	}
	wk.staged = wk.staged[:0]
}

// reflect keeps a walk coordinate inside [0, max].
func reflect(v, max float64) float64 {
	if v < 0 {
		v = -v
	}
	if v > max {
		v = max - (v - max)
	}
	return math.Min(math.Max(v, 0), max)
}

// keyNames renders object indexes as fixed-width keys, so key order is
// index order and every WAL record has the same length.
func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	return keys
}
