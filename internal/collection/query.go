package collection

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Page is one page of a keyed query. Keys and Rects are parallel;
// Dists is parallel too but only populated by Nearby (squared distance
// from the query point to the object MBR). Cursor is non-empty exactly
// when more results remain: feed it back to the same query to resume.
type Page struct {
	Keys   []string    `json:"keys"`
	Rects  []geom.Rect `json:"rects"`
	Dists  []float64   `json:"dists,omitempty"`
	Cursor string      `json:"cursor,omitempty"`
}

// item is one candidate row before pagination.
type item struct {
	key  string
	rect geom.Rect
	dist float64
}

// pageScratch is the reusable per-query state of the keyed queries: the
// range selection heap and Nearby's neighbor and row buffers. Pooled
// like the index's own query scratch, it makes a page allocate only the
// page it returns, however many objects the query window holds.
type pageScratch struct {
	rows keyHeap
	nbrs []rtree.Neighbor
}

var pagePool = sync.Pool{New: func() any { return new(pageScratch) }}

// release drops the key strings parked in the buffers, so an idle pool
// entry does not keep deleted keys alive, and returns s to the pool.
// It clears the lengths, not the capacities, so the cost tracks this
// query rather than the largest one ever pooled; the rare slot past the
// length (a shard merge's truncated tail) holds a key only until the
// next query overwrites it.
func (s *pageScratch) release() {
	clear(s.rows)
	clear(s.nbrs)
	s.rows = s.rows[:0]
	s.nbrs = s.nbrs[:0]
	pagePool.Put(s)
}

// Within returns the keyed objects wholly contained in q, ordered by
// key, resuming strictly after cur and returning at most limit rows
// (limit <= 0 means unlimited). A non-empty Cursor in the returned page
// means more rows matched.
func (c *Collection) Within(q geom.Rect, cur string, limit int) (Page, rtree.QueryStats, error) {
	return c.rangeQuery(q, cur, limit, true)
}

// Intersects returns the keyed objects overlapping q (boundaries
// included), ordered by key, with the same cursor/limit contract as
// Within.
func (c *Collection) Intersects(q geom.Rect, cur string, limit int) (Page, rtree.QueryStats, error) {
	return c.rangeQuery(q, cur, limit, false)
}

// rangeQuery selects a page in O(hits · log limit): every page re-runs
// the query live — that, not a saved iterator, is what makes cursors
// survive churn (see cursor.go) — and keeps only the limit+1 smallest
// keys strictly after the cursor in a bounded max-heap. The first limit
// of them, sorted, are the page; row limit+1 exists exactly when more
// rows remain. A non-positive limit is a heap that never fills.
func (c *Collection) rangeQuery(q geom.Rect, cur string, limit int, contained bool) (Page, rtree.QueryStats, error) {
	pos, err := parseCursor(cur)
	if err != nil {
		return Page{}, rtree.QueryStats{}, err
	}
	if pos.nearby {
		return Page{}, rtree.QueryStats{}, fmt.Errorf("collection: nearby cursor %q fed to a range query", cur)
	}
	keep := math.MaxInt
	if limit > 0 && limit < math.MaxInt {
		keep = limit + 1
	}
	s := pagePool.Get().(*pageScratch)
	defer s.release()
	stats := c.ix.SearchEach(q, func(r geom.Rect, d any) {
		key, ok := d.(string)
		if !ok {
			return // not a keyed object; unreachable through the server
		}
		if contained && !q.Contains(r) {
			return
		}
		if !pos.afterRange(key) {
			return
		}
		if len(s.rows) < keep {
			s.rows.push(item{key: key, rect: r})
		} else if key < s.rows[0].key {
			s.rows[0] = item{key: key, rect: r}
			s.rows.fixRoot()
		}
	})
	slices.SortFunc(s.rows, func(a, b item) int { return strings.Compare(a.key, b.key) })
	return paginate(s.rows, cursor{}, limit, false), stats, nil
}

// Nearby returns the k keyed objects nearest to p in ascending
// (distance, key) order, resuming strictly after cur and returning at
// most limit of them per page. The cursor pages through the k-set; a
// returned empty Cursor means the k nearest have all been delivered.
//
// Determinism at the k-th distance: when several objects tie exactly at
// the k-th distance, which the index returns is arbitrary, so the fetch
// widens (doubling) until every object at that distance is in hand,
// then sorts by (distance, key) and truncates to k — the same objects
// the map oracle picks, byte for byte.
func (c *Collection) Nearby(p geom.Point, k int, cur string, limit int) (Page, rtree.QueryStats, error) {
	pos, err := parseCursor(cur)
	if err != nil {
		return Page{}, rtree.QueryStats{}, err
	}
	if pos.started && !pos.nearby {
		return Page{}, rtree.QueryStats{}, fmt.Errorf("collection: range cursor %q fed to a nearby query", cur)
	}
	var stats rtree.QueryStats
	if k <= 0 {
		return Page{}, stats, nil
	}
	s := pagePool.Get().(*pageScratch)
	defer s.release()
	kk := k
	for {
		s.nbrs, stats = c.ix.KNNAppend(p, kk, s.nbrs[:0])
		// Widen while the fetch is full and the boundary might still be
		// tied: the (kk)-th result at the same distance as the k-th means
		// objects tied at the k-th distance may have been cut off.
		if len(s.nbrs) < kk || s.nbrs[len(s.nbrs)-1].DistSq > s.nbrs[k-1].DistSq {
			break
		}
		kk *= 2
	}
	for _, nb := range s.nbrs {
		key, ok := nb.Data.(string)
		if !ok {
			continue // not a keyed object; unreachable through the server
		}
		s.rows = append(s.rows, item{key: key, rect: nb.Rect, dist: nb.DistSq})
	}
	slices.SortFunc(s.rows, func(a, b item) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), strings.Compare(a.key, b.key))
	})
	rows := s.rows
	if len(rows) > k {
		rows = rows[:k]
	}
	return paginate(rows, pos, limit, true), stats, nil
}

// paginate drops the rows at or before pos, applies limit, and stamps
// the resume cursor when rows remain. items must already be sorted in
// the query's total order. The page copies what it keeps, so items may
// be pooled scratch.
func paginate(items []item, pos cursor, limit int, nearby bool) Page {
	if pos.started {
		// Binary search for the first row strictly after the cursor.
		i := sort.Search(len(items), func(i int) bool {
			if nearby {
				return pos.afterNearby(items[i].dist, items[i].key)
			}
			return pos.afterRange(items[i].key)
		})
		items = items[i:]
	}
	more := false
	if limit > 0 && len(items) > limit {
		items = items[:limit]
		more = true
	}
	p := Page{
		Keys:  make([]string, len(items)),
		Rects: make([]geom.Rect, len(items)),
	}
	if nearby {
		p.Dists = make([]float64, len(items))
	}
	for i, it := range items {
		p.Keys[i] = it.key
		p.Rects[i] = it.rect
		if nearby {
			p.Dists[i] = it.dist
		}
	}
	if more {
		last := items[len(items)-1]
		if nearby {
			p.Cursor = encodeNearbyCursor(last.dist, last.key)
		} else {
			p.Cursor = encodeRangeCursor(last.key)
		}
	}
	return p
}

// keyHeap is a max-heap of rows by key (root = the largest key kept),
// operated with the same hand-written sift loops as the index's KNN
// result heap (rtree/scratch.go), so nothing is boxed into an `any`.
type keyHeap []item

// push appends it and sifts it up.
func (h *keyHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[j].key <= s[i].key {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// fixRoot sifts a replaced root down to its place.
func (h keyHeap) fixRoot() {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].key > h[j].key {
			j = r
		}
		if h[i].key >= h[j].key {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
