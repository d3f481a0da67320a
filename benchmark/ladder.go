package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/rlr-tree/rlrtree"
	"github.com/rlr-tree/rlrtree/internal/btree"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/server"
)

// The traced run replays a prefix of the workload's own stream, on one
// goroutine and in-process, up a ladder of progressively taller stacks:
//
//	policy.Engine → rtree.Tree (heuristic control) → the same tree
//	deciding through the policy (plain, then with timing decorators
//	around Chooser/Splitter) → rtree.ConcurrentTree → shard.ShardedTree
//	→ collection.Collection over a decorated Spatial → wal.Append* →
//	server.Handler().ServeHTTP over a decorated server.Index
//
// Every call is a span. Where a decorator sits inside a caller (the
// policy strategies inside Insert, the Spatial inside the collection,
// the Index inside the handler) the parent link is real and a layer's
// self time is its span minus its children; elsewhere a layer's self
// time is its rung's median minus the median of the rung below. All of
// it is driven from this file: nothing inside internal/ is edited.

// ladderInput is what the untraced pass hands to the ladder.
type ladderInput struct {
	rects   []geom.Rect // the objects at their initial positions
	queries []op        // measured queries; empty where the workload has no readers
	battery []op
	moves   [][]op // acknowledged moves per writer; empty where the workload has no writers
	// e2eP50Us is the untraced end-to-end median per request kind, the
	// denominator of accounted_frac.
	e2eP50Us [numLadderKinds]float64
	durable  bool // the workload's server runs a WAL
	library  bool // the workload calls the library directly: no server, log, shard or collection
}

// ladderMaxObjects caps the objects a ladder rung indexes, so the rungs
// together stay well under a minute however long -seconds makes
// build_policy's stream. At the default run length no workload reaches it.
const ladderMaxObjects = 200_000

// preloadSpans is how many of a rung's preload inserts keep their spans.
const preloadSpans = 1000

// ladderKind is a request type of the budget table. A SET of a fresh
// key is an insert, a SET of a placed key an update.
type ladderKind int

const (
	lkInsert ladderKind = iota
	lkUpdate
	lkSmall
	lkLarge
	lkKNN
	numLadderKinds
)

var ladderKindNames = [numLadderKinds]string{"insert", "set", "search_small", "search_large", "knn"}

// span is one timed call. Times are nanoseconds since the ladder
// started; Parent is the index+1 of the enclosing span, 0 for a request.
type span struct {
	Name       int32
	Start, End int64
	Parent     int32
	Op         int32
}

// tracer records spans in memory. It always measures — rung medians
// come from it — and keeps a span for the trace file while keep is set:
// the requests of the measured stream and a sample of the preload, not
// a hundred thousand identical preload inserts per rung.
type tracer struct {
	t0    time.Time
	names []string
	spans []span
	keep  bool
	open  []openSpan
}

type openSpan struct {
	slot    int32 // index+1 in spans, 0 when not kept
	start   int64
	childNs int64
}

func (t *tracer) name(s string) int32 {
	t.names = append(t.names, s)
	return int32(len(t.names) - 1)
}

func (t *tracer) begin(name, op int32) {
	now := int64(time.Since(t.t0))
	o := openSpan{start: now}
	if t.keep {
		var parent int32
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].slot
		}
		t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
		o.slot = int32(len(t.spans))
	}
	t.open = append(t.open, o)
}

// end closes the innermost span and returns its duration and the part
// of it spent in child spans.
func (t *tracer) end() (dur, childNs int64) {
	now := int64(time.Since(t.t0))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur = now - o.start
	if o.slot > 0 {
		t.spans[o.slot-1].End = now
	}
	if n := len(t.open); n > 0 {
		t.open[n-1].childNs += dur
	}
	return dur, o.childNs
}

// rung is one stack of the ladder, reduced to the calls the workloads
// make. prep, when set, runs before a request's span opens: it builds
// what the layer is handed, which is not the layer's time.
type rung struct {
	name  string
	prep  func(o op)
	set   func(key int, r geom.Rect)
	query func(o op) (nodes int)
}

// rungOut is what driving a stream through one rung measured.
type rungOut struct {
	lat   [numLadderKinds]lats // span duration per request
	self  [numLadderKinds]lats // duration minus decorated children
	nodes [numLadderKinds]int64
}

func (o *rungOut) p50(k ladderKind) float64 { return o.lat[k].quantile(0.5) }
func (o *rungOut) total(k ladderKind) int64 { return o.lat[k].sum() }

// ladder is one traced run.
type ladder struct {
	in      *ladderInput
	objects []geom.Rect
	keys    []string
	ops     []op
	tr      *tracer
	curOp   int32
}

func newLadder(in *ladderInput, perKind int, seed int64) *ladder {
	ld := &ladder{in: in, tr: &tracer{t0: time.Now()}}
	ld.objects = in.rects
	if len(ld.objects) > ladderMaxObjects {
		ld.objects = ld.objects[:ladderMaxObjects]
	}
	ld.keys = keyNames(len(ld.objects))

	// The measured stream's prefix: moves as the writers sent them (or,
	// where the workload has no writer, the same random walk), then
	// queries as the readers sent them (or the battery).
	var moves []op
	for i := 0; len(moves) < perKind; i++ {
		took := false
		for _, ms := range in.moves {
			if i < len(ms) {
				moves, took = append(moves, ms[i]), true
			}
		}
		if !took {
			break
		}
	}
	if len(moves) == 0 {
		wk := newWalker(append([]geom.Rect(nil), ld.objects...), 0, 1, seed+3)
		for len(moves) < perKind {
			moves = append(moves, wk.next())
			wk.commit()
		}
	}
	queries := in.queries
	if len(queries) == 0 {
		queries = in.battery
	}
	ld.ops = append(moves[:min(len(moves), perKind)], queries[:min(len(queries), perKind)]...)
	return ld
}

// drive preloads the rung with the objects and replays the ops, each
// request a root span.
func (ld *ladder) drive(r rung) *rungOut {
	out := &rungOut{}
	var ids [numLadderKinds]int32
	for k := range ids {
		ids[k] = ld.tr.name(r.name + "." + ladderKindNames[k])
	}
	placed := make([]bool, len(ld.objects))
	one := func(o op) {
		var k ladderKind
		switch o.kind {
		case opSet:
			k = lkInsert
			if placed[o.key] {
				k = lkUpdate
			}
			placed[o.key] = true
		case opSmall:
			k = lkSmall
		case opLarge:
			k = lkLarge
		case opKNN:
			k = lkKNN
		}
		nodes := 0
		if r.prep != nil {
			r.prep(o)
		}
		ld.tr.begin(ids[k], ld.curOp)
		if o.kind == opSet {
			r.set(o.key, o.rect)
		} else {
			nodes = r.query(o)
		}
		dur, child := ld.tr.end()
		ld.curOp++
		out.lat[k] = append(out.lat[k], dur)
		out.self[k] = append(out.self[k], dur-child)
		out.nodes[k] += int64(nodes)
	}
	for i, rect := range ld.objects {
		ld.tr.keep = i < preloadSpans
		one(op{kind: opSet, key: i, rect: rect})
	}
	ld.tr.keep = true
	for _, o := range ld.ops {
		if o.kind == opSet && o.key >= len(ld.objects) {
			continue
		}
		one(o)
	}
	return out
}

// child wraps fn in a child span of the current request.
func (ld *ladder) child(name int32, fn func()) {
	ld.tr.begin(name, ld.curOp)
	fn()
	ld.tr.end()
}

// spatialIndex is the method set Tree, ConcurrentTree and ShardedTree share.
type spatialIndex interface {
	rlrtree.Spatial
	SearchAppend(q geom.Rect, dst []any) ([]any, rtree.QueryStats)
}

// indexRung drives a bare index. The delete half of an update is a child
// span, so rtree.delete_ns can be told apart from the reinsert.
func (ld *ladder) indexRung(name string, ix spatialIndex) rung {
	pos := make(map[int]geom.Rect, len(ld.objects))
	del := ld.tr.name(name + ".delete")
	var hits []any
	var nbrs []rtree.Neighbor
	return rung{
		name: name,
		set: func(key int, r geom.Rect) {
			if old, ok := pos[key]; ok {
				ld.child(del, func() { ix.Delete(old, key) })
			}
			ix.Insert(r, key)
			pos[key] = r
		},
		query: func(o op) int {
			var st rtree.QueryStats
			if o.kind == opKNN {
				nbrs, st = ix.KNNAppend(o.pt, knnK, nbrs[:0])
			} else {
				hits, st = ix.SearchAppend(o.rect, hits[:0])
			}
			return st.NodesAccessed
		},
	}
}

// timedChooser and timedSplitter are the decorators installed through
// rtree.Options: each policy decision becomes a child span of the
// insert that asked for it.
type timedChooser struct {
	rtree.SubtreeChooser
	ld   *ladder
	name int32
	ns   int64
}

func (c *timedChooser) Choose(t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	c.ld.tr.begin(c.name, c.ld.curOp)
	i := c.SubtreeChooser.Choose(t, n, r)
	dur, _ := c.ld.tr.end()
	c.ns += dur
	return i
}

type timedSplitter struct {
	rtree.Splitter
	ld   *ladder
	name int32
	ns   int64
}

func (s *timedSplitter) Split(t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	s.ld.tr.begin(s.name, s.ld.curOp)
	a, b := s.Splitter.Split(t, n)
	dur, _ := s.ld.tr.end()
	s.ns += dur
	return a, b
}

// timedIndex decorates the index under the collection (as a Spatial)
// and under the server (as a server.Index): every call the layer above
// makes into the index is a child span of the request.
type timedIndex struct {
	*rlrtree.ShardedTree
	ld                        *ladder
	insert, del, search, knnN int32
}

func (ld *ladder) newTimedIndex(prefix string, st *rlrtree.ShardedTree) *timedIndex {
	return &timedIndex{ShardedTree: st, ld: ld,
		insert: ld.tr.name(prefix + ".index.insert"), del: ld.tr.name(prefix + ".index.delete"),
		search: ld.tr.name(prefix + ".index.search"), knnN: ld.tr.name(prefix + ".index.knn")}
}

func (x *timedIndex) Insert(r geom.Rect, data any) {
	x.ld.child(x.insert, func() { x.ShardedTree.Insert(r, data) })
}

func (x *timedIndex) Delete(r geom.Rect, data any) (ok bool) {
	x.ld.child(x.del, func() { ok = x.ShardedTree.Delete(r, data) })
	return ok
}

func (x *timedIndex) SearchEach(q geom.Rect, fn func(geom.Rect, any)) (st rtree.QueryStats) {
	x.ld.child(x.search, func() { st = x.ShardedTree.SearchEach(q, fn) })
	return st
}

func (x *timedIndex) KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) (out []rtree.Neighbor, st rtree.QueryStats) {
	x.ld.child(x.knnN, func() { out, st = x.ShardedTree.KNNAppend(p, k, dst) })
	return out, st
}

func (ld *ladder) collectionRung(c *rlrtree.Collection) rung {
	return rung{
		name: "collection",
		set:  func(key int, r geom.Rect) { c.Set(ld.keys[key], r) },
		query: func(o op) int {
			var st rtree.QueryStats
			if o.kind == opKNN {
				_, st, _ = c.Nearby(o.pt, knnK, "", pageLimit)
			} else {
				_, st, _ = c.Intersects(o.rect, "", pageLimit)
			}
			return st.NodesAccessed
		},
	}
}

// respWriter is the smallest http.ResponseWriter: it keeps the status
// and the body and is reused across requests.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// handlerRung drives the server's own http.Handler in-process: request
// routing, decode, locks, collection, index, encode — everything but
// the socket. prep builds the *http.Request, so a span holds only the
// ServeHTTP call.
type handlerRung struct {
	rung
	errors    int
	respBytes int64
	queries   int
}

func (ld *ladder) handlerRung(h http.Handler) *handlerRung {
	hr := &handlerRung{}
	w := &respWriter{h: http.Header{}}
	var (
		req  *http.Request
		body []byte
	)
	serve := func() {
		if req == nil { // prep failed and counted the error
			return
		}
		w.code = http.StatusOK
		w.body.Reset()
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			hr.errors++
		}
	}
	hr.rung = rung{
		name: "server",
		prep: func(o op) {
			method, target := http.MethodGet, ""
			var payload io.Reader
			if o.kind == opSet {
				body = appendSetBody(body[:0], ld.keys[o.key], o.rect)
				method, target, payload = http.MethodPost, "/set", bytes.NewReader(body)
			} else {
				target = string(appendQueryTarget(nil, o, pageLimit))
			}
			var err error
			if req, err = http.NewRequest(method, target, payload); err != nil {
				req = nil
				hr.errors++
			}
		},
		set: func(int, geom.Rect) { serve() },
		query: func(op) int {
			serve()
			hr.respBytes += int64(w.body.Len())
			hr.queries++
			n, _ := nodesAccessed(w.body.Bytes())
			return n
		},
	}
	return hr
}

// walNumbers drives the log alone with the workload's SETs.
type walNumbers struct {
	appendUs, commitWaitUs, syncMs, bytesPerSet, replayUsPerRecord, setsPerFsync float64
}

func (ld *ladder) walRung(dir string) (walNumbers, error) {
	var out walNumbers
	sets := make([]op, 0, len(ld.objects)+len(ld.ops))
	for i, r := range ld.objects {
		sets = append(sets, op{key: i, rect: r})
	}
	for _, o := range ld.ops {
		if o.kind == opSet && o.key < len(ld.objects) {
			sets = append(sets, o)
		}
	}

	// fsync=none: an append is encode + CRC + write.
	noneDir := filepath.Join(dir, "wal-none")
	w, err := rlrtree.OpenWAL(rlrtree.WALOptions{Dir: noneDir, Sync: rlrtree.WALSyncNone, Epoch: 4})
	if err != nil {
		return out, err
	}
	appendID, syncID := ld.tr.name("wal.append"), ld.tr.name("wal.sync")
	var appends, syncs lats
	for i, s := range sets {
		ld.tr.keep = i < 2*preloadSpans
		ld.tr.begin(appendID, int32(i))
		_, err := w.AppendSet(s.rect, ld.keys[s.key])
		dur, _ := ld.tr.end()
		if err != nil {
			w.Close()
			return out, err
		}
		appends = append(appends, dur)
		if i%1000 == 999 {
			ld.tr.begin(syncID, int32(i))
			err := w.Sync()
			dur, _ := ld.tr.end()
			if err != nil {
				w.Close()
				return out, err
			}
			syncs = append(syncs, dur)
		}
	}
	wm := w.Metrics()
	out.appendUs = appends.us(0.5)
	out.syncMs = syncs.ms(0.5)
	out.bytesPerSet = float64(wm.AppendedBytes) / float64(wm.Appends)
	if err := w.Close(); err != nil {
		return out, err
	}

	// Replay what was just written.
	w, err = rlrtree.OpenWAL(rlrtree.WALOptions{Dir: noneDir, Sync: rlrtree.WALSyncNone, Epoch: 4})
	if err != nil {
		return out, err
	}
	start := time.Now()
	rs, err := w.Replay(0, func(rlrtree.WALRecord) error { return nil })
	replay := time.Since(start)
	w.Close()
	if err != nil {
		return out, err
	}
	if rs.Records != len(sets) {
		return out, fmt.Errorf("wal replay scanned %d records, %d were appended", rs.Records, len(sets))
	}
	out.replayUsPerRecord = float64(replay) / 1e3 / float64(rs.Records)

	// fsync=interval with a single caller: every append waits for the
	// group commit that covers it, and shares it with nobody.
	w, err = rlrtree.OpenWAL(rlrtree.WALOptions{Dir: filepath.Join(dir, "wal-interval"), Sync: rlrtree.WALSyncInterval, Epoch: 4})
	if err != nil {
		return out, err
	}
	waitID := ld.tr.name("wal.append_commit")
	ld.tr.keep = true
	var waits lats
	for i, s := range sets[:min(len(sets), 1500)] {
		ld.tr.begin(waitID, int32(i))
		_, err := w.AppendSet(s.rect, ld.keys[s.key])
		dur, _ := ld.tr.end()
		if err != nil {
			w.Close()
			return out, err
		}
		waits = append(waits, dur)
	}
	wm = w.Metrics()
	out.commitWaitUs = waits.us(0.5) - out.appendUs
	out.setsPerFsync = float64(wm.Appends) / float64(max(wm.Fsyncs, 1))
	return out, w.Close()
}

// evalNs times Engine.ChooseAction over seeded states.
func evalNs(eng policy.Engine, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const nStates, rounds = 1024, 100
	dim := eng.InputDim()
	states := make([]float64, nStates*dim)
	for i := range states {
		states[i] = rng.Float64()
	}
	sink := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for s := 0; s < nStates; s++ {
			sink += eng.ChooseAction(states[s*dim:(s+1)*dim], 0)
		}
	}
	ns := float64(time.Since(start)) / (nStates * rounds)
	spinSink += uint64(sink)
	return ns
}

// btreeNs times the collection's key map substrate at the workload's
// key count: FNV-hashed keys into internal/btree, as the collection does.
func (ld *ladder) btreeNs() (insertNs, getNs float64) {
	hashes := make([]uint64, len(ld.keys))
	for i, k := range ld.keys {
		h := fnv.New64a()
		h.Write([]byte(k))
		hashes[i] = h.Sum64()
	}
	t := btree.New(0)
	start := time.Now()
	for i, h := range hashes {
		t.Insert(h, i)
	}
	insertNs = float64(time.Since(start)) / float64(len(hashes))
	found := 0
	start = time.Now()
	for _, h := range hashes {
		found += len(t.Get(h))
	}
	getNs = float64(time.Since(start)) / float64(len(hashes))
	spinSink += uint64(found)
	return insertNs, getNs
}

// budgetRow is one request type's latency budget: each layer's self
// time on the path, and how much of the end-to-end median they explain.
type budgetRow struct {
	Request       string             `json:"request"`
	E2EP50Us      float64            `json:"e2e_p50_us"`
	LayerUs       map[string]float64 `json:"layer_self_us"`
	AccountedFrac float64            `json:"accounted_frac"`
}

var budgetLayers = []string{"transport", "server", "wal", "collection", "shard", "epoch", "core", "rtree"}

// run climbs the ladder, fills res.Layer, writes the span file and
// returns the budget table.
func (ld *ladder) run(e *env, res *runResult, bundlePath string, meta bundleMeta) ([]budgetRow, error) {
	L := res.Layer
	bundle, err := rlrtree.LoadBundle(bundlePath)
	if err != nil {
		return nil, err
	}
	opts, _, err := tableTreeOptions(bundle)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(e.out, "ladder-"+res.Workload)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Rung 0: the inference engines alone.
	tableEng, err := bundle.ChooseEngine("table")
	if err != nil {
		return nil, err
	}
	mlpEng, err := bundle.ChooseEngine("mlp")
	if err != nil {
		return nil, err
	}
	evalTable := evalNs(tableEng, res.Seed)
	L.set("policy.eval_ns_table", evalTable, "ns")
	L.set("policy.eval_ns_mlp", evalNs(mlpEng, res.Seed), "ns")

	// Rung 1: the heuristic tree, the control every ratio is taken to.
	heur := rtree.New(rtree.Options{})
	r1 := ld.drive(ld.indexRung("rtree", heur))
	inserts := float64(len(r1.lat[lkInsert]) + len(r1.lat[lkUpdate]))
	var deletes lats
	for i, d := range r1.lat[lkUpdate] {
		deletes = append(deletes, d-r1.self[lkUpdate][i])
	}
	hs := heur.Stats()
	L.set("rtree.insert_ns", r1.p50(lkInsert), "ns")
	L.set("rtree.delete_ns", deletes.quantile(0.5), "ns")
	L.set("rtree.search_small_ns", r1.p50(lkSmall), "ns")
	L.set("rtree.search_large_ns", r1.p50(lkLarge), "ns")
	L.set("rtree.knn_ns", r1.p50(lkKNN), "ns")
	L.set("rtree.nodes_per_search", float64(r1.nodes[lkSmall]+r1.nodes[lkLarge])/float64(len(r1.lat[lkSmall])+len(r1.lat[lkLarge])), "count")
	L.set("rtree.nodes_per_knn", float64(r1.nodes[lkKNN])/float64(len(r1.lat[lkKNN])), "count")
	L.set("rtree.splits_per_1k_inserts", 1000*float64(heur.Splits())/inserts, "count")
	L.set("rtree.height", float64(hs.Height), "count")
	L.set("rtree.fill", hs.AvgFill, "frac")
	L.set("rtree.bytes_per_object", float64(hs.MemoryBytes)/float64(hs.Size), "B")

	// Rung 2: the same tree deciding through the policy — once plain,
	// once with each decision a child span. The gap between the two is
	// what tracing costs.
	r2 := ld.drive(ld.indexRung("core", rtree.New(opts)))
	tc := &timedChooser{SubtreeChooser: opts.Chooser, ld: ld, name: ld.tr.name("core.choose")}
	ts := &timedSplitter{Splitter: opts.Splitter, ld: ld, name: ld.tr.name("core.split")}
	traced := rtree.New(rtree.Options{MaxEntries: opts.MaxEntries, MinEntries: opts.MinEntries, Chooser: tc, Splitter: ts})
	r2t := ld.drive(ld.indexRung("core_traced", traced))
	calls := float64(traced.ChooseCalls())
	L.set("core.choose_ns_per_insert", float64(tc.ns)/inserts, "ns")
	L.set("core.split_ns_per_insert", float64(ts.ns)/inserts, "ns")
	L.set("core.choose_calls_per_insert", calls/inserts, "count")
	L.set("core.featurize_ns_per_choose", float64(tc.ns)/calls-evalTable, "ns")
	L.set("core.train_inserts_per_s", meta.TrainInsertsPerS, "1/s")
	L.set("core.train_reward_queries_per_s", meta.TrainRewardQueriesPer, "1/s")
	L.set("core.distill_s", meta.DistillSeconds, "s")
	L.set("core.table_agreement", meta.TableAgreement, "frac")
	plainNs, tracedNs := r2.total(lkInsert)+r2.total(lkUpdate), r2t.total(lkInsert)+r2t.total(lkUpdate)
	L.set("trace.overhead_frac", float64(tracedNs-plainNs)/float64(plainNs), "frac")

	// Rung 3: epoch publication (apply twice, publish, drain / pin).
	r3 := ld.drive(ld.indexRung("epoch", rtree.NewConcurrent(rtree.New(opts))))
	L.set("rtree.epoch_insert_ns", r3.p50(lkInsert)-r2.p50(lkInsert), "ns")
	L.set("rtree.epoch_search_ns", r3.p50(lkSmall)-r2.p50(lkSmall), "ns")

	// Rung 4: four shards behind the router.
	newShards := func() (*rlrtree.ShardedTree, error) {
		return rlrtree.NewShardedTree(rlrtree.ShardOptions{Shards: 4, Tree: opts})
	}
	sharded, err := newShards()
	if err != nil {
		return nil, err
	}
	r4 := ld.drive(ld.indexRung("shard", sharded))
	L.set("shard.insert_overhead_ns", r4.p50(lkInsert)-r3.p50(lkInsert), "ns")
	L.set("shard.search_overhead_ns", r4.p50(lkSmall)-r3.p50(lkSmall), "ns")
	if _, ok := L["shard.probed_per_query"]; !ok {
		// No server ran (or it answered no query in the phase): take the
		// fan-out counters from this rung.
		fs := sharded.FanoutStats()
		L.set("shard.probed_per_query", float64(fs.ShardsProbed)/float64(fs.Queries), "count")
		L.set("shard.pruned_frac", float64(fs.ShardsPruned)/float64(fs.ShardsProbed+fs.ShardsPruned), "frac")
	}
	if _, ok := L["shard.imbalance"]; !ok {
		maxShard := 0
		for _, s := range sharded.ShardStats() {
			maxShard = max(maxShard, s.Size)
		}
		L.set("shard.imbalance", float64(maxShard)*4/float64(sharded.Len()), "ratio")
	}

	// Rung 5: the keyed collection over a decorated Spatial.
	sharded, err = newShards()
	if err != nil {
		return nil, err
	}
	r5 := ld.drive(ld.collectionRung(rlrtree.NewCollection(ld.newTimedIndex("collection", sharded))))
	collSetSelf := r5.self[lkUpdate].us(0.5)
	collPageSelf := concat(r5.self[lkSmall], r5.self[lkLarge], r5.self[lkKNN]).us(0.5)
	L.set("collection.set_self_us", collSetSelf, "us")
	L.set("collection.page_self_us", collPageSelf, "us")
	btIns, btGet := ld.btreeNs()
	L.set("btree.insert_ns", btIns, "ns")
	L.set("btree.get_ns", btGet, "ns")

	// Rung 6: the log alone.
	wn, err := ld.walRung(work)
	if err != nil {
		return nil, fmt.Errorf("wal rung: %w", err)
	}
	L.set("wal.append_us", wn.appendUs, "us")
	L.set("wal.commit_wait_us", wn.commitWaitUs, "us")
	L.set("wal.sync_ms", wn.syncMs, "ms")
	L.set("wal.replay_us_per_record", wn.replayUsPerRecord, "us")
	if _, ok := L["wal.sets_per_fsync"]; !ok {
		// The workload's server ran without a log: report the single
		// caller of this rung, who shares a commit with nobody.
		L.set("wal.sets_per_fsync", wn.setsPerFsync, "count")
		L.set("wal.bytes_per_set", wn.bytesPerSet, "B")
	}

	// Rung 7: the HTTP handler over a decorated Index, no socket.
	sharded, err = newShards()
	if err != nil {
		return nil, err
	}
	ix := ld.newTimedIndex("server", sharded)
	srv, err := server.New(server.Config{Index: ix, Collection: rlrtree.NewCollection(ix)})
	if err != nil {
		return nil, err
	}
	hr := ld.handlerRung(srv.Handler())
	r7 := ld.drive(hr.rung)
	L.set("server.set_handler_us", r7.lat[lkUpdate].us(0.5), "us")
	L.set("server.search_handler_us", r7.lat[lkSmall].us(0.5), "us")
	L.set("server.knn_handler_us", r7.lat[lkKNN].us(0.5), "us")
	L.set("server.set_self_us", r7.self[lkUpdate].us(0.5)-collSetSelf, "us")
	L.set("server.search_self_us", r7.self[lkSmall].us(0.5)-collPageSelf, "us")
	transport := 0.0
	if !ld.in.library {
		transport = max(0, ld.in.e2eP50Us[lkSmall]-r7.lat[lkSmall].us(0.5))
	}
	L.set("server.transport_us", transport, "us")
	if _, ok := L["server.resp_bytes_per_query"]; !ok {
		L.set("server.resp_bytes_per_query", float64(hr.respBytes)/float64(hr.queries), "B")
	}
	L.set("server.errors", L["server.errors"].Value+float64(hr.errors), "count")

	// The budget: per request type, each layer's self time on the path
	// the workload's requests take, against the end-to-end median.
	var budget []budgetRow
	for k := lkInsert; k < numLadderKinds; k++ {
		if ld.in.e2eP50Us[k] == 0 {
			continue // the workload makes no such request
		}
		write := k == lkInsert || k == lkUpdate
		row := budgetRow{Request: ladderKindNames[k], E2EP50Us: ld.in.e2eP50Us[k], LayerUs: map[string]float64{
			"rtree": r1.p50(k) / 1e3,
			"core":  (r2.p50(k) - r1.p50(k)) / 1e3,
		}}
		if !ld.in.library {
			row.LayerUs["epoch"] = (r3.p50(k) - r2.p50(k)) / 1e3
			row.LayerUs["shard"] = (r4.p50(k) - r3.p50(k)) / 1e3
			row.LayerUs["collection"] = (r5.p50(k) - r4.p50(k)) / 1e3
			row.LayerUs["server"] = (r7.p50(k) - r5.p50(k)) / 1e3
			row.LayerUs["transport"] = res.HostAfter.LoopbackRTTUs
			if write && ld.in.durable {
				row.LayerUs["wal"] = wn.appendUs + wn.commitWaitUs
			}
		}
		for _, v := range row.LayerUs {
			row.AccountedFrac += v / row.E2EP50Us
		}
		budget = append(budget, row)
	}
	return budget, ld.writeTrace(e, res, budget)
}

// writeTrace writes the spans and the budget to out/trace-<workload>.json.
// Spans are rows of [name, start_ns, end_ns, parent, op]; name indexes
// "names", parent is a 1-based row number (0: a request's root span).
func (ld *ladder) writeTrace(e *env, res *runResult, budget []budgetRow) error {
	f, err := os.Create(filepath.Join(e.out, "trace-"+res.Workload+".json"))
	if err != nil {
		return err
	}
	var b bytes.Buffer
	head, err := json.Marshal(map[string]any{"workload": res.Workload, "seed": res.Seed, "budget": budget, "names": ld.tr.names})
	if err != nil {
		f.Close()
		return err
	}
	b.Write(head[:len(head)-1])
	b.WriteString(`,"spans":[`)
	for i, s := range ld.tr.spans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d,%d,%d,%d]", s.Name, s.Start, s.End, s.Parent, s.Op)
		if b.Len() > 1<<20 {
			if _, err := f.Write(b.Bytes()); err != nil {
				f.Close()
				return err
			}
			b.Reset()
		}
	}
	b.WriteString("]}\n")
	if _, err := f.Write(b.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printBudget renders the budget table for a human.
func printBudget(w io.Writer, workload string, budget []budgetRow) {
	fmt.Fprintf(w, "# latency budget, %s (layer self time, µs, at the median)\n", workload)
	fmt.Fprintf(w, "# %-13s %10s", "request", "e2e_p50")
	for _, l := range budgetLayers {
		fmt.Fprintf(w, " %10s", l)
	}
	fmt.Fprintf(w, " %14s\n", "accounted_frac")
	for _, row := range budget {
		fmt.Fprintf(w, "# %-13s %10.1f", row.Request, row.E2EP50Us)
		for _, l := range budgetLayers {
			if v, ok := row.LayerUs[l]; ok {
				fmt.Fprintf(w, " %10.2f", v)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintf(w, " %14.3f\n", row.AccountedFrac)
	}
}
