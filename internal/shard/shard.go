package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Options configures a ShardedTree.
type Options struct {
	// Shards is the number of independent shards (default 1). Each shard
	// is a ConcurrentTree with its own writer mutex and lock-free epoch
	// read path.
	Shards int
	// GridBits is the router grid resolution in bits per dimension
	// (default DefaultGridBits). Must be in [1, 8]: the cell bounds
	// summaries are a dense 2^(2·GridBits) table.
	GridBits int
	// World is the router frame (default the unit square). Objects whose
	// centers fall outside clamp into the boundary cells; they are stored
	// and queried correctly, only their shard placement degrades.
	World geom.Rect
	// Tree configures each shard's underlying R-Tree (capacities and
	// insertion strategies). Every shard uses the same options.
	Tree rtree.Options
}

// parallelFanoutMin is the smallest number of surviving shards for which
// a range query fans probes out to goroutines instead of probing
// sequentially. Below it the spawn cost exceeds the probe cost.
const parallelFanoutMin = 2

// FanoutStats are the cumulative query fan-out counters of a
// ShardedTree, exposed through /stats and expvar by the server. The
// pruning headline is ShardsProbed/Queries — the average number of
// shards a query actually descended into; ShardsPruned counts the
// shard probes the bounds summaries skipped.
type FanoutStats struct {
	Queries      uint64 `json:"queries"`
	ShardsProbed uint64 `json:"shards_probed"`
	ShardsPruned uint64 `json:"shards_pruned"`
}

// ShardedTree is a space-partitioned index over N ConcurrentTree shards.
// Mutations route to one shard by the Z-order cell of the object's
// center, so writers to different shards proceed in parallel. Queries
// consult per-shard bounds summaries (see boundsIndex) and probe only
// the shards whose bounds intersect the query — for selective queries
// over the router's contiguous Z-runs that is typically one or
// two shards, not all N — and KNN probes shards best-first by bound
// mindist, stopping when the next shard cannot beat the current kth
// neighbor. All methods are safe for concurrent use.
//
// Consistency: each individual operation is atomic within its shard, but
// a fan-out query pins each shard's published epoch one at a time, so it
// observes each shard at a slightly different instant. A query
// concurrent with a write may or may not see that write — the same
// guarantee a single ConcurrentTree gives — but never a torn shard.
// Reads never block behind writers (see rtree.ConcurrentTree), and the
// router is an immutable function, so queries take no lock at all and a
// routed write takes only its shard's writer mutex and the bounds locks.
type ShardedTree struct {
	shards []*rtree.ConcurrentTree
	router Router
	opts   Options
	bounds *boundsIndex

	scratch sync.Pool // *fanoutScratch

	cQueries      atomic.Uint64
	cShardsProbed atomic.Uint64
	cShardsPruned atomic.Uint64
}

// New returns an empty sharded tree, or an error if the options are
// invalid (the per-shard tree options are validated by rtree).
func New(opts Options) (*ShardedTree, error) {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", opts.Shards)
	}
	if opts.GridBits == 0 {
		opts.GridBits = DefaultGridBits
	}
	if opts.GridBits < 1 || opts.GridBits > maxGridBits {
		return nil, fmt.Errorf("shard: GridBits must be in [1, %d], got %d", maxGridBits, opts.GridBits)
	}
	if opts.World == (geom.Rect{}) {
		opts.World = geom.NewRect(0, 0, 1, 1)
	}
	if !opts.World.Valid() || opts.World.Area() == 0 {
		return nil, fmt.Errorf("shard: World must be a valid non-degenerate rect, got %v", opts.World)
	}
	shards := make([]*rtree.ConcurrentTree, opts.Shards)
	for i := range shards {
		t, err := rtree.NewChecked(opts.Tree)
		if err != nil {
			return nil, err
		}
		shards[i] = rtree.NewConcurrent(t)
	}
	router := NewRouter(opts.World, opts.GridBits, opts.Shards)
	return &ShardedTree{
		shards: shards,
		router: router,
		opts:   opts,
		bounds: newBoundsIndex(router.Cells(), opts.Shards),
	}, nil
}

// NumShards returns the shard count.
func (s *ShardedTree) NumShards() int { return len(s.shards) }

// Router returns the routing function, for inspection and tests.
func (s *ShardedTree) Router() Router { return s.router }

// Shard returns shard i's ConcurrentTree for direct read-side use
// (per-shard validation, stats). Mutating it directly is safe but
// bypasses routing and bounds maintenance — objects inserted that way
// will still be found by non-pruned per-shard reads, yet ShardedTree
// queries may prune the shard before seeing them and Delete through the
// ShardedTree will miss them.
func (s *ShardedTree) Shard(i int) *rtree.ConcurrentTree { return s.shards[i] }

// FanoutStats returns the cumulative fan-out counters.
func (s *ShardedTree) FanoutStats() FanoutStats {
	return FanoutStats{
		Queries:      s.cQueries.Load(),
		ShardsProbed: s.cShardsProbed.Load(),
		ShardsPruned: s.cShardsPruned.Load(),
	}
}

// countFanout records one query that probed `probed` of the shards.
func (s *ShardedTree) countFanout(probed int) {
	s.cQueries.Add(1)
	s.cShardsProbed.Add(uint64(probed))
	s.cShardsPruned.Add(uint64(len(s.shards) - probed))
}

// Insert routes the object to its shard and inserts it under that
// shard's writer mutex; shard queries keep reading the previous epoch
// until the insert publishes. The cell and shard bounds grow before the
// insert publishes, so pruning never hides a visible object.
func (s *ShardedTree) Insert(r geom.Rect, data any) {
	c := s.router.Cell(r)
	si := s.router.CellShard(c)
	s.bounds.growCell(c, r)
	s.bounds.growShard(si, r, 1)
	s.shards[si].Insert(r, data)
}

// InsertBatch inserts data[i] at rects[i] as one Apply. rects and data
// must have equal length.
func (s *ShardedTree) InsertBatch(rects []geom.Rect, data []any) {
	s.Apply(rtree.InsertOps(rects, data))
}

// Apply routes each op by its center and applies each shard's ops, in
// batch order, as one rtree Apply of that shard (a single epoch
// publication), the shards in parallel. Ops on different shards
// commute, so every shard's tree ends exactly as the same Insert and
// Delete calls made one at a time would leave it. Every Delete op must
// name a stored object, or one an earlier op of the batch inserts: the
// bounds count each delete as a removal, and Apply panics when a shard
// removed fewer objects than it was sent deletes.
//
// Bounds stay conservative: the cell and shard bounds grow for every
// insert before any shard publishes and shrink for the deletes after
// every shard has published. A cell that empties and refills within the
// batch therefore keeps its grown rect where one-at-a-time calls would
// have reset it — the bounds may be looser than sequential calls leave
// them, never tighter.
func (s *ShardedTree) Apply(ops []rtree.Op) int {
	if len(ops) == 0 {
		return 0
	}
	n := len(s.shards)
	dels := make([]int, n)
	adds := make([]int64, n)
	grown := make([]geom.Rect, n)
	cells := make([]int32, len(ops))
	for i, op := range ops {
		c := s.router.Cell(op.Rect)
		si := s.router.CellShard(c)
		cells[i] = int32(c)
		if op.Delete {
			dels[si]++
			continue
		}
		s.bounds.growCell(c, op.Rect)
		if adds[si] == 0 {
			grown[si] = op.Rect
		} else {
			grown[si] = grown[si].Union(op.Rect)
		}
		adds[si]++
	}

	// Partition into per-shard runs of one backing array, keeping each
	// shard's ops in batch order.
	groups := make([][]rtree.Op, n)
	buf := make([]rtree.Op, len(ops))
	for si := range groups {
		size := dels[si] + int(adds[si])
		groups[si], buf = buf[:0:size], buf[size:]
	}
	for i, op := range ops {
		si := s.router.CellShard(int(cells[i]))
		groups[si] = append(groups[si], op)
	}

	removed := make([]int, n)
	var wg sync.WaitGroup
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		if adds[si] > 0 {
			s.bounds.growShard(si, grown[si], adds[si])
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			removed[si] = s.shards[si].Apply(groups[si])
		}(si)
	}
	wg.Wait()

	total := 0
	for si := range removed {
		if removed[si] != dels[si] {
			panic(fmt.Sprintf("shard: Apply sent shard %d %d deletes but it removed %d objects: a Delete op named an absent object", si, dels[si], removed[si]))
		}
		total += removed[si]
	}
	for i, op := range ops {
		if op.Delete {
			s.bounds.shrinkCell(int(cells[i]))
		}
	}
	for si, d := range dels {
		if d > 0 {
			s.bounds.shrinkShard(si, int64(d))
		}
	}
	return total
}

// Delete routes by the rectangle's center — the same function Insert
// used, so an object is always deleted from the shard that stores it —
// and removes it under that shard's writer mutex. The cell and shard
// bounds shrink only after the delete publishes (and only counts
// shrink until a cell or shard empties — see boundsIndex), so pruning
// stays conservative.
func (s *ShardedTree) Delete(r geom.Rect, data any) bool {
	c := s.router.Cell(r)
	si := s.router.CellShard(c)
	ok := s.shards[si].Delete(r, data)
	if ok {
		s.bounds.shrinkCell(c)
		s.bounds.shrinkShard(si, 1)
	}
	return ok
}

// fanoutScratch is the pooled per-query state of the fan-out paths:
// survivor lists, per-slot result buffers for the parallel range probe,
// and the best-first KNN probe order. Reusing it keeps the steady-state
// pruned fan-out at zero allocations per query.
type fanoutScratch struct {
	survivors []int
	bufs      [][]any            // parallel range probe, indexed by survivor slot
	stats     []rtree.QueryStats // indexed by survivor slot
	order     []knnProbe         // KNN probe order, ascending (mindist, shard)
	nbufs     [][]rtree.Neighbor // KNN per-shard results, indexed by shard
	probed    []bool             // KNN: which shards were probed
	dists     []float64          // KNN collected distances, for the kth bound
	wg        sync.WaitGroup
}

type knnProbe struct {
	dist  float64
	shard int
}

func (s *ShardedTree) getScratch() *fanoutScratch {
	fs, _ := s.scratch.Get().(*fanoutScratch)
	if fs == nil {
		n := len(s.shards)
		fs = &fanoutScratch{
			survivors: make([]int, 0, n),
			bufs:      make([][]any, n),
			stats:     make([]rtree.QueryStats, n),
			order:     make([]knnProbe, 0, n),
			nbufs:     make([][]rtree.Neighbor, n),
			probed:    make([]bool, n),
			dists:     make([]float64, 0, 64),
		}
	}
	return fs
}

// putScratch resets and pools the scratch. Result buffers are cleared so
// pooled scratch does not pin deleted payloads against the GC.
func (s *ShardedTree) putScratch(fs *fanoutScratch) {
	fs.survivors = fs.survivors[:0]
	fs.order = fs.order[:0]
	fs.dists = fs.dists[:0]
	for i := range fs.bufs {
		clear(fs.bufs[i])
		fs.bufs[i] = fs.bufs[i][:0]
	}
	for i := range fs.nbufs {
		clear(fs.nbufs[i])
		fs.nbufs[i] = fs.nbufs[i][:0]
	}
	clear(fs.probed)
	s.scratch.Put(fs)
}

func addStats(dst *rtree.QueryStats, st rtree.QueryStats) {
	dst.NodesAccessed += st.NodesAccessed
	dst.LeavesAccessed += st.LeavesAccessed
	dst.Results += st.Results
}

// searchWorker probes one surviving shard into its private slot buffer.
// A plain method (not a closure) so the parallel fan-out spawns without
// allocating a closure environment per probe.
func (s *ShardedTree) searchWorker(fs *fanoutScratch, q geom.Rect, slot int) {
	fs.bufs[slot], fs.stats[slot] = s.shards[fs.survivors[slot]].SearchAppend(q, fs.bufs[slot][:0])
	fs.wg.Done()
}

// countWorker is searchWorker's SearchCount twin.
func (s *ShardedTree) countWorker(fs *fanoutScratch, q geom.Rect, slot int) {
	fs.stats[slot] = s.shards[fs.survivors[slot]].SearchCount(q)
	fs.wg.Done()
}

// collectSurvivors fills fs.survivors with the shards whose bounds
// intersect q, in ascending shard index, and records the fan-out
// counters.
func (s *ShardedTree) collectSurvivors(fs *fanoutScratch, q geom.Rect) {
	for i := range s.shards {
		b := s.bounds.shard(i)
		if b.count == 0 || !b.rect.Intersects(q) {
			continue
		}
		fs.survivors = append(fs.survivors, i)
	}
	s.countFanout(len(fs.survivors))
}

// Search runs the range query on the shards whose bounds intersect it
// and concatenates the results. Order across shards is by shard index,
// within a shard the tree's traversal order — callers needing a
// canonical order must sort, exactly as with a single tree (whose order
// is also unspecified). Pruning never changes the answer: a shard's
// bounds cover every object it stores, so a pruned shard cannot hold a
// match (the differential suite proves result and Results-stat identity
// with the fan-out-all oracle; NodesAccessed drops by exactly the
// pruned shards' descents — that is the point).
func (s *ShardedTree) Search(q geom.Rect) ([]any, rtree.QueryStats) {
	return s.SearchAppend(q, nil)
}

// SearchAppend appends all matches to dst; with a caller-reused dst the
// per-shard queries allocate nothing in steady state. When more than one
// shard survives pruning and the host has more than one CPU, surviving
// shards are probed in parallel (reads are lock-free, so probes never
// contend) and merged in shard-index order, preserving the sequential
// result order exactly.
func (s *ShardedTree) SearchAppend(q geom.Rect, dst []any) ([]any, rtree.QueryStats) {
	if len(s.shards) == 1 {
		s.countFanout(1)
		return s.shards[0].SearchAppend(q, dst)
	}
	fs := s.getScratch()
	defer s.putScratch(fs)
	s.collectSurvivors(fs, q)
	var stats rtree.QueryStats
	if len(fs.survivors) >= parallelFanoutMin && runtime.GOMAXPROCS(0) > 1 {
		n := len(fs.survivors)
		fs.wg.Add(n - 1)
		for slot := 1; slot < n; slot++ {
			go s.searchWorker(fs, q, slot)
		}
		fs.bufs[0], fs.stats[0] = s.shards[fs.survivors[0]].SearchAppend(q, fs.bufs[0][:0])
		fs.wg.Wait()
		for slot := 0; slot < n; slot++ {
			dst = append(dst, fs.bufs[slot]...)
			addStats(&stats, fs.stats[slot])
		}
		return dst, stats
	}
	for _, i := range fs.survivors {
		var st rtree.QueryStats
		dst, st = s.shards[i].SearchAppend(q, dst)
		addStats(&stats, st)
	}
	return dst, stats
}

// SearchCount counts matches across the surviving shards, probing in
// parallel like SearchAppend when profitable.
func (s *ShardedTree) SearchCount(q geom.Rect) rtree.QueryStats {
	if len(s.shards) == 1 {
		s.countFanout(1)
		return s.shards[0].SearchCount(q)
	}
	fs := s.getScratch()
	defer s.putScratch(fs)
	s.collectSurvivors(fs, q)
	var stats rtree.QueryStats
	if len(fs.survivors) >= parallelFanoutMin && runtime.GOMAXPROCS(0) > 1 {
		n := len(fs.survivors)
		fs.wg.Add(n - 1)
		for slot := 1; slot < n; slot++ {
			go s.countWorker(fs, q, slot)
		}
		fs.stats[0] = s.shards[fs.survivors[0]].SearchCount(q)
		fs.wg.Wait()
		for slot := 0; slot < n; slot++ {
			addStats(&stats, fs.stats[slot])
		}
		return stats
	}
	for _, i := range fs.survivors {
		addStats(&stats, s.shards[i].SearchCount(q))
	}
	return stats
}

// SearchEach streams matches from the surviving shards, shard by shard.
// fn must not call mutating methods of the sharded tree (a shard's epoch
// is pinned and a mutation would deadlock waiting for it to drain) and
// must not block: a pinned epoch stalls that shard's writers' arena
// reclamation.
func (s *ShardedTree) SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats {
	if len(s.shards) == 1 {
		s.countFanout(1)
		return s.shards[0].SearchEach(q, fn)
	}
	var stats rtree.QueryStats
	probed := 0
	for i := range s.shards {
		b := s.bounds.shard(i)
		if b.count == 0 || !b.rect.Intersects(q) {
			continue
		}
		probed++
		addStats(&stats, s.shards[i].SearchEach(q, fn))
	}
	s.countFanout(probed)
	return stats
}

// ContainsPoint reports whether any shard stores an object containing p.
// Shards whose bounds miss p are skipped; the rest are probed in shard
// index order and the scan stops at the first hit, exactly like the
// fan-out-all path (a pruned shard cannot contain p, so the first
// probed hit is the same shard either way).
func (s *ShardedTree) ContainsPoint(p geom.Point) (bool, rtree.QueryStats) {
	if len(s.shards) == 1 {
		s.countFanout(1)
		return s.shards[0].ContainsPoint(p)
	}
	var stats rtree.QueryStats
	probed := 0
	hit := false
	for i := range s.shards {
		b := s.bounds.shard(i)
		if b.count == 0 || !b.rect.ContainsPoint(p) {
			continue
		}
		probed++
		ok, st := s.shards[i].ContainsPoint(p)
		addStats(&stats, st)
		if ok {
			hit = true
			break
		}
	}
	s.countFanout(probed)
	return hit, stats
}

// KNN returns the k objects nearest to p across all shards, in ascending
// distance order. The merge is exact even for objects straddling shard
// boundaries: center-point routing stores every object in exactly one
// shard, each shard's branch-and-bound KNN returns that shard's true
// top-k by MINDIST to the full object rectangle (routing never truncates
// geometry), and any object among the global top-k is necessarily among
// its own shard's top-k — so the union of per-shard top-k lists contains
// the global answer, and sorting the union by distance recovers it.
func (s *ShardedTree) KNN(p geom.Point, k int) ([]rtree.Neighbor, rtree.QueryStats) {
	return s.KNNAppend(p, k, nil)
}

// KNNAppend appends the merged k nearest neighbors to dst in ascending
// distance order. Ties at equal distance keep shard-index order (stable
// sort), so results are deterministic for a fixed shard layout.
//
// Probing is best-first over shard bounds: non-empty shards are visited
// in ascending MinDistSq(bounds, p) order, and once k neighbors are
// collected a shard whose bound mindist strictly exceeds the current kth
// distance is skipped — every object it stores is at least that far, so
// it cannot improve the answer. Skipped shards' would-be contributions
// all sort strictly after the kth neighbor, so reassembling the probed
// shards' results in shard-index order and stable-sorting yields the
// byte-identical answer to probing everything (the differential suite
// pins this).
func (s *ShardedTree) KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats) {
	var stats rtree.QueryStats
	if k <= 0 {
		return dst, stats
	}
	if len(s.shards) == 1 {
		s.countFanout(1)
		return s.shards[0].KNNAppend(p, k, dst)
	}
	fs := s.getScratch()
	defer s.putScratch(fs)
	for i := range s.shards {
		b := s.bounds.shard(i)
		if b.count == 0 {
			continue
		}
		pr := knnProbe{dist: b.rect.MinDistSq(p), shard: i}
		// Insertion sort keeps fs.order ascending by (dist, shard)
		// without sort.Slice's closure allocation.
		j := len(fs.order)
		fs.order = append(fs.order, pr)
		for j > 0 && (fs.order[j-1].dist > pr.dist) {
			fs.order[j] = fs.order[j-1]
			j--
		}
		fs.order[j] = pr
	}
	kth := math.Inf(1)
	collected := 0
	probed := 0
	for _, pr := range fs.order {
		if collected >= k && pr.dist > kth {
			break // ascending order: no later shard can contribute either
		}
		var st rtree.QueryStats
		fs.nbufs[pr.shard], st = s.shards[pr.shard].KNNAppend(p, k, fs.nbufs[pr.shard][:0])
		fs.probed[pr.shard] = true
		probed++
		addStats(&stats, st)
		for _, nb := range fs.nbufs[pr.shard] {
			fs.dists = append(fs.dists, nb.DistSq)
		}
		collected += len(fs.nbufs[pr.shard])
		if collected >= k {
			sort.Float64s(fs.dists)
			kth = fs.dists[k-1]
		}
	}
	s.countFanout(probed)
	start := len(dst)
	for i := range s.shards {
		if fs.probed[i] {
			dst = append(dst, fs.nbufs[i]...)
		}
	}
	merged := dst[start:]
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].DistSq < merged[j].DistSq })
	if len(merged) > k {
		dst = dst[:start+k]
	}
	stats.Results = len(dst) - start
	return dst, stats
}

// searchAppendAll is the fan-out-all oracle for SearchAppend: probe
// every shard in index order, no pruning. Kept private for the
// differential suite and the pruning benchmarks.
func (s *ShardedTree) searchAppendAll(q geom.Rect, dst []any) ([]any, rtree.QueryStats) {
	var stats rtree.QueryStats
	for _, sh := range s.shards {
		var st rtree.QueryStats
		dst, st = sh.SearchAppend(q, dst)
		addStats(&stats, st)
	}
	return dst, stats
}

// searchCountAll is the fan-out-all oracle for SearchCount.
func (s *ShardedTree) searchCountAll(q geom.Rect) rtree.QueryStats {
	var stats rtree.QueryStats
	for _, sh := range s.shards {
		addStats(&stats, sh.SearchCount(q))
	}
	return stats
}

// containsPointAll is the fan-out-all oracle for ContainsPoint.
func (s *ShardedTree) containsPointAll(p geom.Point) (bool, rtree.QueryStats) {
	var stats rtree.QueryStats
	for _, sh := range s.shards {
		ok, st := sh.ContainsPoint(p)
		addStats(&stats, st)
		if ok {
			return true, stats
		}
	}
	return false, stats
}

// knnAppendAll is the fan-out-all oracle for KNNAppend: ask every shard
// for k in index order, stable-sort the union, truncate.
func (s *ShardedTree) knnAppendAll(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats) {
	var stats rtree.QueryStats
	if k <= 0 {
		return dst, stats
	}
	start := len(dst)
	for _, sh := range s.shards {
		var st rtree.QueryStats
		dst, st = sh.KNNAppend(p, k, dst)
		stats.NodesAccessed += st.NodesAccessed
		stats.LeavesAccessed += st.LeavesAccessed
	}
	merged := dst[start:]
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].DistSq < merged[j].DistSq })
	if len(merged) > k {
		dst = dst[:start+k]
	}
	stats.Results = len(dst) - start
	return dst, stats
}

// Len returns the total object count, summed over each shard's current
// epoch; concurrent writers may make the sum momentarily stale, never
// torn.
func (s *ShardedTree) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Stats aggregates structural statistics across shards: counts and areas
// sum, Height is the maximum shard height, AvgFill is weighted by each
// shard's node count.
func (s *ShardedTree) Stats() rtree.TreeStats {
	var agg rtree.TreeStats
	var fillWeighted float64
	for _, st := range s.ShardStats() {
		agg.Size += st.Size
		if st.Height > agg.Height {
			agg.Height = st.Height
		}
		agg.Nodes += st.Nodes
		agg.Leaves += st.Leaves
		fillWeighted += st.AvgFill * float64(st.Nodes)
		agg.TotalArea += st.TotalArea
		agg.TotalOvlp += st.TotalOvlp
		agg.MemoryBytes += st.MemoryBytes
	}
	if agg.Nodes > 0 {
		agg.AvgFill = fillWeighted / float64(agg.Nodes)
	}
	return agg
}

// ShardStats returns each shard's structural statistics, indexed by
// shard number.
func (s *ShardedTree) ShardStats() []rtree.TreeStats {
	out := make([]rtree.TreeStats, len(s.shards))
	for i, sh := range s.shards {
		sh.View(func(t *rtree.Tree) { out[i] = t.Stats() })
	}
	return out
}

// Validate checks every shard's full R-Tree invariant set and, on top,
// the partitioning invariants this package adds: every stored object
// lives in the shard its cell routes to (otherwise Delete would miss
// it), its cell's bounds cover it, the per-cell counts match the stored
// population exactly, and each shard's published aggregate covers the
// shard's root MBR with a count equal to its size (otherwise pruning
// could hide live objects). It reads the cell records bare, so call it
// on quiescent states only, with no concurrent writers. Used pervasively
// by the property and differential tests.
func (s *ShardedTree) Validate() error {
	cellCounts := make([]int64, s.router.Cells())
	for i, sh := range s.shards {
		var err error
		sh.View(func(t *rtree.Tree) {
			if err = t.Validate(); err != nil {
				err = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			err = s.validateRouting(i, t, cellCounts)
			if err != nil {
				return
			}
			b := s.bounds.shard(i)
			if b.count != int64(t.Len()) {
				err = fmt.Errorf("shard %d: aggregate bounds count %d != size %d", i, b.count, t.Len())
				return
			}
			if root, ok := t.Bounds(); ok && !b.rect.Contains(root) {
				err = fmt.Errorf("shard %d: aggregate bounds %v do not cover root MBR %v", i, b.rect, root)
			}
		})
		if err != nil {
			return err
		}
	}
	for c := range s.bounds.cells {
		if got := s.bounds.cells[c].count; got != cellCounts[c] {
			return fmt.Errorf("shard: cell %d bounds count %d != stored population %d", c, got, cellCounts[c])
		}
	}
	return nil
}

// validateRouting walks shard i's leaves and checks each object's cell
// routes to shard i and its cell bounds cover it, accumulating the
// per-cell population. Called with the shard's epoch pinned (inside
// View).
func (s *ShardedTree) validateRouting(i int, t *rtree.Tree, cellCounts []int64) error {
	var walk func(n *rtree.Node) error
	walk = func(n *rtree.Node) error {
		for j, e := range n.Entries() {
			if n.IsLeaf() {
				c := s.router.Cell(e.Rect)
				if got := s.router.CellShard(c); got != i {
					return fmt.Errorf("shard %d: object %v (%v) routes to shard %d", i, e.Data, e.Rect, got)
				}
				if !s.bounds.cells[c].rect.Contains(e.Rect) {
					return fmt.Errorf("shard %d: cell %d bounds %v do not cover object %v (%v)", i, c, s.bounds.cells[c].rect, e.Data, e.Rect)
				}
				cellCounts[c]++
				continue
			}
			if err := walk(n.ChildAt(j)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root())
}
