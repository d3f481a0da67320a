// Package server exposes an RLR-Tree (or any heuristic R-Tree) as a
// concurrent HTTP/JSON spatial query service. The paper's deployability
// argument — a learned index that answers queries with the unmodified
// classic R-Tree algorithms — means the serving layer needs nothing
// special: the index sits behind ordinary handlers, queries run
// lock-free on rtree.ConcurrentTree's published epoch in parallel, and
// mutations serialize through its writer mutex.
//
// Endpoints:
//
//	POST /insert    {"id":"a","rect":[x1,y1,x2,y2]} or {"items":[...]}
//	POST /delete    {"id":"a","rect":[x1,y1,x2,y2]}
//	POST /set       {"key":"truck-1","rect":[x1,y1,x2,y2]} keyed upsert
//	POST /del       {"key":"truck-1"} keyed delete
//	GET  /get       ?key=truck-1
//	GET  /search    ?rect=x1,y1,x2,y2 (&limit=N&cursor=... pages keyed objects)
//	GET  /within    ?rect=x1,y1,x2,y2&limit=N&cursor=... keyed containment query
//	GET  /knn       ?point=x,y&k=10 (&limit=N&cursor=... pages keyed neighbors)
//	GET  /stats     tree structure + keyed counters + per-endpoint metrics
//	POST /snapshot  force a snapshot to disk now
//	GET  /healthz   liveness probe
//
// Object payloads are string IDs; delete matches on (rect, id), the same
// equality rule as rtree.(*Tree).Delete. The keyed endpoints address
// objects by key through internal/collection: SET moves the key's
// previous object instead of adding a second one, and the paged query
// modes return stable cursors (see internal/collection's cursor
// contract). Every response is JSON. Request bodies are size-capped and
// every request carries a deadline.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// Index is the serving-side contract of a concurrent spatial index:
// everything the handlers need, nothing more. Both *rtree.ConcurrentTree
// (one tree, lock-free epoch reads) and *shard.ShardedTree (N trees
// behind a Z-order router, per-shard writer mutexes) satisfy it, so the
// whole HTTP layer
// is shard-agnostic — the RLR-Tree property that queries are classic
// R-Tree algorithms extends one level up: the serving code cannot tell
// how the index is partitioned.
type Index interface {
	Insert(r geom.Rect, data any)
	InsertBatch(rects []geom.Rect, data []any)
	Delete(r geom.Rect, data any) bool
	SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats
	KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats)
	Len() int
	Stats() rtree.TreeStats
	// PrepareSnapshot captures a consistent copy of the index now (a
	// clone of the published epoch — cheap, done under the server's
	// snapshot lock) and returns its encoder, which the server runs
	// outside every lock so disk I/O never blocks writers.
	PrepareSnapshot() func(w io.Writer) error
}

// ShardStatser is optionally implemented by sharded indexes; when the
// served Index provides it, /stats (and the expvar mirror) carry a
// per-shard breakdown.
type ShardStatser interface {
	ShardStats() []rtree.TreeStats
}

// FanoutStatser is optionally implemented by sharded indexes with query
// pruning; when the served Index provides it, /stats (and the expvar
// mirror) carry the cumulative fan-out counters (shards probed vs
// pruned per query, cells migrated).
type FanoutStatser interface {
	FanoutStats() shard.FanoutStats
}

// Rebalancer is optionally implemented by indexes that support online
// workload-adaptive rebalancing; when the served Index provides it and
// Config.RebalanceEvery is set, the server runs RebalanceStep
// periodically in the background.
type Rebalancer interface {
	RebalanceStep(maxCells int) int
}

// Defaults for the zero values of Config.
const (
	DefaultRequestTimeout    = 10 * time.Second
	DefaultMaxBodyBytes      = 16 << 20 // 16 MiB: ~100K-item insert batches
	DefaultMaxResults        = 100_000
	DefaultRebalanceMaxCells = 64
)

// Config configures a Server. Exactly one of Tree and Index is
// required (Index wins when both are set).
type Config struct {
	// Tree is the served single-tree index. Build it empty
	// (cliutil.BuildIndex) or by bulk loading, then wrap it with
	// rtree.NewConcurrent.
	Tree *rtree.ConcurrentTree
	// Index is the served index when it is not a single ConcurrentTree —
	// a shard.ShardedTree, what LoadSnapshot restored (either kind), or
	// any other Index implementation (which can serve, but SaveSnapshot
	// only knows the payloads of those two).
	Index Index
	// IndexName labels the index in /stats output ("rtree", "RLR-Tree"...).
	IndexName string
	// SnapshotPath is where snapshots are written; empty disables
	// snapshotting (POST /snapshot then returns 503).
	SnapshotPath string
	// SnapshotEvery is the background snapshot interval; zero disables
	// the background loop (explicit POST /snapshot still works).
	SnapshotEvery time.Duration
	// RequestTimeout bounds each request end to end.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body sizes.
	MaxBodyBytes int64
	// MaxResults caps the number of IDs one /search response returns
	// (the response reports the true total count alongside).
	MaxResults int
	// WAL, when non-nil, makes every mutating endpoint append its
	// operation to the write-ahead log before applying it (see wal.go).
	// The caller opens the log, runs Recover, and closes it after
	// Server.Close. Snapshots then embed the covered LSN and retire
	// fully-covered segments.
	WAL *wal.WAL
	// RebalanceEvery is the background cell-rebalance interval for
	// indexes implementing Rebalancer; zero (the default) disables the
	// loop. Each tick migrates at most RebalanceMaxCells hot cells
	// between shards based on the decayed per-cell heat counters.
	RebalanceEvery time.Duration
	// RebalanceMaxCells bounds the cells migrated per rebalance tick
	// (default DefaultRebalanceMaxCells when the loop is enabled).
	RebalanceMaxCells int
	// AutoIDSeed starts the auto-assigned object ID counter past IDs
	// already in use — Recover reports the right seed after a replay.
	AutoIDSeed uint64
	// Collection is the keyed object layer served by /set, /get, /del
	// and the paged query modes. Pass the collection WAL recovery
	// replayed into (built over Index with collection.Restore from the
	// snapshot's key map); nil makes New build an empty one over
	// Index.
	Collection *collection.Collection
	// Policy, when non-nil, is the hot-swappable learned policy whose
	// strategies the served tree was built with (cliutil.BuildIndexPolicy
	// returns it). It enables POST /policy backend swaps and the /stats
	// "policy" section with per-backend insert counters.
	Policy *core.HotPolicy
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

// Server is the HTTP spatial query service. Create with New, mount
// Handler on an http.Server, call Start to begin background snapshots,
// and Close to stop them and write the final snapshot.
type Server struct {
	cfg     Config
	index   Index
	coll    *collection.Collection
	metrics metrics
	started time.Time

	snapshots   atomic.Int64  // snapshots written
	snapErrors  atomic.Int64  // snapshot attempts that failed
	lastSnap    atomic.Int64  // unix nanos of the last snapshot
	snapLSN     atomic.Uint64 // WAL LSN covered by the last snapshot
	autoID      atomic.Uint64
	stopSnap    chan struct{}
	snapLoopWG  chan struct{} // closed when the background snapshot loop exits
	rebalLoopWG chan struct{} // closed when the background rebalance loop exits
	closed      atomic.Bool

	// walMu orders mutations against snapshot captures: every mutation,
	// logged or not, holds it shared around its append+apply pair,
	// snapshot capture holds it exclusive (see wal.go for the
	// consistency argument).
	walMu sync.RWMutex
	// idMu stripes per-object-ID ordering for WAL-enabled mutations:
	// append+apply runs under the stripe of every ID it touches, so the
	// log's LSN order matches the index apply order per ID and replay
	// reproduces exactly the acknowledged per-key outcome (see wal.go).
	idMu [idStripes]sync.Mutex
	// snapSaveMu single-flights SaveSnapshot: POST /snapshot, the
	// background snapshotLoop and Close may race, and an unserialized
	// save could rename a snapshot carrying an older LSN over a newer
	// one after the newer save already retired segments past it —
	// leaving acknowledged writes unrecoverable. Held across
	// capture+write+rename+retire (see snapshot.go).
	snapSaveMu sync.Mutex
}

// New validates cfg and returns a Server. It does not start the
// background snapshot loop; call Start for that.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		if cfg.Tree == nil {
			return nil, errors.New("server: Config.Tree or Config.Index is required")
		}
		cfg.Index = cfg.Tree
	}
	if cfg.IndexName == "" {
		cfg.IndexName = "rtree"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = DefaultMaxResults
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.RebalanceEvery > 0 && cfg.RebalanceMaxCells <= 0 {
		cfg.RebalanceMaxCells = DefaultRebalanceMaxCells
	}
	if cfg.Collection == nil {
		cfg.Collection = collection.New(cfg.Index)
	}
	s := &Server{
		cfg:         cfg,
		index:       cfg.Index,
		coll:        cfg.Collection,
		started:     time.Now(),
		stopSnap:    make(chan struct{}),
		snapLoopWG:  make(chan struct{}),
		rebalLoopWG: make(chan struct{}),
	}
	s.autoID.Store(cfg.AutoIDSeed)
	s.metrics.init()
	return s, nil
}

// Start launches the background snapshot and rebalance loops when
// configured. Safe to call when both are disabled (it is then a no-op).
func (s *Server) Start() {
	if s.cfg.SnapshotPath == "" || s.cfg.SnapshotEvery <= 0 {
		close(s.snapLoopWG)
	} else {
		go s.snapshotLoop()
	}
	rb, ok := s.index.(Rebalancer)
	if !ok || s.cfg.RebalanceEvery <= 0 {
		close(s.rebalLoopWG)
		return
	}
	go s.rebalanceLoop(rb)
}

// rebalanceLoop periodically migrates hot cells between shards. The
// rebalance step takes only the index's route lock — never walMu — so
// it cannot deadlock against mutations or snapshot captures; it merely
// excludes queries and routed writes for the bounded migration window.
func (s *Server) rebalanceLoop(rb Rebalancer) {
	defer close(s.rebalLoopWG)
	t := time.NewTicker(s.cfg.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-t.C:
			if n := rb.RebalanceStep(s.cfg.RebalanceMaxCells); n > 0 {
				s.cfg.Logf("rebalance: migrated %d cells", n)
			}
		}
	}
}

// Close stops the background snapshot loop and writes a final snapshot —
// the graceful-shutdown half that belongs to the index (the HTTP half is
// http.Server.Shutdown, which the caller runs first to drain in-flight
// requests). Close is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopSnap)
	<-s.snapLoopWG
	<-s.rebalLoopWG
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	err := s.SaveSnapshot()
	if err != nil {
		s.cfg.Logf("final snapshot failed: %v", err)
	} else {
		s.cfg.Logf("final snapshot written to %s", s.cfg.SnapshotPath)
	}
	return err
}

// Handler returns the service's HTTP handler. The per-request deadline
// is applied as a context deadline inside instrument rather than via
// http.TimeoutHandler: the handlers here are synchronous and fast, and
// TimeoutHandler's per-request goroutine plus full response buffering
// costs real throughput on small-core boxes (the keyed-update hot path
// is thousands of tiny POSTs per second).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("POST /delete", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("POST /set", s.instrumentLean("set", s.handleSet))
	mux.HandleFunc("GET /get", s.instrumentLean("get", s.handleGet))
	mux.HandleFunc("POST /del", s.instrumentLean("del", s.handleDel))
	mux.HandleFunc("GET /search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("GET /within", s.instrument("within", s.handleWithin))
	mux.HandleFunc("GET /knn", s.instrument("knn", s.handleKNN))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /policy", s.instrument("policy", s.handlePolicy))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// instrument wraps a handler with body capping, latency/count metrics,
// panic recovery, and the request deadline context.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.recoverable(endpoint, h, sw, r.WithContext(ctx))
		ep.observe(time.Since(start), sw.code >= 400)
	}
}

// instrumentLean is instrument without the per-request deadline
// context. The keyed point ops (SET/GET/DEL) never block on anything
// context-aware — they hash, lock a stripe, touch the index, and for
// SET/DEL wait on the WAL group commit, none of which observes
// cancellation — so the context timer would be pure per-request
// overhead on the system's hottest path. Query endpoints, which can
// scan arbitrarily much of the index, keep the deadline.
func (s *Server) instrumentLean(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.recoverable(endpoint, h, sw, r)
		ep.observe(time.Since(start), sw.code >= 400)
	}
}

// recoverable runs h and converts a handler panic (for example the
// InsertBatch length-mismatch panic path) into a 500 JSON error plus a
// counted expvar metric, instead of letting net/http kill the connection.
// The response is only written when the handler had not started one.
func (s *Server) recoverable(endpoint string, h http.HandlerFunc, sw *statusWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		s.metrics.panics.Add(1)
		s.cfg.Logf("panic in /%s: %v\n%s", endpoint, v, debug.Stack())
		if !sw.wrote {
			httpError(sw, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
		} else {
			sw.code = http.StatusInternalServerError // count it as an error
		}
	}()
	h(sw, r)
}

// statusWriter records the status code for error accounting and whether
// the response has been started (panic recovery must not write twice).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// itemPayload is one object in the insert wire format.
type itemPayload struct {
	ID   string    `json:"id"`
	Rect []float64 `json:"rect"`
}

// insertRequest accepts either a single object or a batch.
type insertRequest struct {
	itemPayload
	Items []itemPayload `json:"items"`
}

type insertResponse struct {
	Inserted int `json:"inserted"`
	// IDs echoes the stored IDs only when the server assigned at least
	// one (requests that name every ID already know them, and echoing
	// a large batch would dominate the response).
	IDs  []string `json:"ids,omitempty"`
	Size int      `json:"size"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad insert body: %w", err))
		return
	}
	items := req.Items
	if len(items) == 0 {
		if len(req.Rect) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("insert needs rect or items"))
			return
		}
		items = []itemPayload{req.itemPayload}
	}
	rects := make([]geom.Rect, len(items))
	data := make([]any, len(items))
	ids := make([]string, len(items))
	assigned := false
	for i, it := range items {
		rect, err := parseRectSlice(it.Rect)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("items[%d]: %w", i, err))
			return
		}
		id := it.ID
		if id == "" {
			id = fmt.Sprintf("obj-%d", s.autoID.Add(1))
			assigned = true
		}
		rects[i], data[i], ids[i] = rect, id, id
	}
	if err := r.Context().Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	// WAL append first (when enabled), then one write-lock acquisition
	// per shard for the whole batch.
	if err := s.appendInsert(rects, data, ids, len(req.Items) == 0); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.countPolicyInserts(len(items))
	resp := insertResponse{Inserted: len(items), Size: s.index.Len()}
	if assigned {
		resp.IDs = ids
	}
	writeJSON(w, http.StatusOK, resp)
}

type deleteRequest struct {
	ID   string    `json:"id"`
	Rect []float64 `json:"rect"`
}

type deleteResponse struct {
	Deleted bool `json:"deleted"`
	Size    int  `json:"size"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad delete body: %w", err))
		return
	}
	rect, err := parseRectSlice(req.Rect)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, errors.New("delete needs id"))
		return
	}
	ok, err := s.appendDelete(rect, req.ID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: ok, Size: s.index.Len()})
}

type searchResponse struct {
	IDs           []string `json:"ids"`
	Count         int      `json:"count"`
	Truncated     bool     `json:"truncated,omitempty"`
	NodesAccessed int      `json:"nodes_accessed"`
}

// respScratch is the reusable response-encoding state of the query
// handlers: the ID and neighbor accumulation slices and the JSON output
// buffer. Pooled like the index's query scratch, it makes a steady-state
// /search or /knn allocate only what encoding/json itself needs.
type respScratch struct {
	ids       []string
	neighbors []knnNeighbor
	knnBuf    []rtree.Neighbor
	buf       bytes.Buffer
}

var respPool = sync.Pool{New: func() any { return new(respScratch) }}

func getRespScratch() *respScratch {
	rs := respPool.Get().(*respScratch)
	// Non-nil accumulators keep the wire format stable: empty results
	// encode as [] rather than null, as the pre-pooling handlers did.
	if rs.ids == nil {
		rs.ids = make([]string, 0, 16)
	}
	if rs.neighbors == nil {
		rs.neighbors = make([]knnNeighbor, 0, 16)
	}
	return rs
}

func (rs *respScratch) release() {
	clear(rs.ids[:cap(rs.ids)]) // drop string/payload references
	clear(rs.neighbors[:cap(rs.neighbors)])
	clear(rs.knnBuf[:cap(rs.knnBuf)])
	rs.ids = rs.ids[:0]
	rs.neighbors = rs.neighbors[:0]
	rs.knnBuf = rs.knnBuf[:0]
	rs.buf.Reset()
	respPool.Put(rs)
}

// idString renders a stored payload as its wire ID. Payloads inserted
// through this server are always strings; the type switch keeps foreign
// payloads (trees restored from snapshots written by other tools) working
// without paying fmt.Sprint on the fast path.
func idString(d any) string {
	switch v := d.(type) {
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	default:
		return fmt.Sprint(v)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q, err := cliutil.ParseRect(params.Get("rect"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad rect: %w", err))
		return
	}
	if cur, limit, paged, err := s.pageParams(params); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	} else if paged {
		s.handleSearchPaged(w, q, cur, limit)
		return
	}
	rs := getRespScratch()
	defer rs.release()
	// Stream matches straight into the pooled ID slice — no intermediate
	// []any materialization; the cap keeps truncated responses cheap.
	maxIDs := s.cfg.MaxResults
	stats := s.index.SearchEach(q, func(_ geom.Rect, d any) {
		if len(rs.ids) < maxIDs {
			rs.ids = append(rs.ids, idString(d))
		}
	})
	s.metrics.endpoint("search").addNodeAccesses(stats.NodesAccessed)
	resp := searchResponse{
		IDs:           rs.ids,
		Count:         stats.Results,
		Truncated:     stats.Results > len(rs.ids),
		NodesAccessed: stats.NodesAccessed,
	}
	writeJSONBuf(w, http.StatusOK, resp, &rs.buf)
}

type knnNeighbor struct {
	ID     string     `json:"id"`
	Rect   [4]float64 `json:"rect"`
	DistSq float64    `json:"distsq"`
}

type knnResponse struct {
	Neighbors     []knnNeighbor `json:"neighbors"`
	NodesAccessed int           `json:"nodes_accessed"`
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	p, err := cliutil.ParsePoint(params.Get("point"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad point: %w", err))
		return
	}
	k := 10
	if ks := params.Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
			return
		}
	}
	if k > s.cfg.MaxResults {
		k = s.cfg.MaxResults
	}
	if cur, limit, paged, err := s.pageParams(params); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	} else if paged {
		s.handleKNNPaged(w, p, k, cur, limit)
		return
	}
	rs := getRespScratch()
	defer rs.release()
	neighbors, stats := s.index.KNNAppend(p, k, rs.knnBuf)
	rs.knnBuf = neighbors
	s.metrics.endpoint("knn").addNodeAccesses(stats.NodesAccessed)
	for _, nb := range neighbors {
		rs.neighbors = append(rs.neighbors, knnNeighbor{
			ID:     idString(nb.Data),
			Rect:   [4]float64{nb.Rect.MinX, nb.Rect.MinY, nb.Rect.MaxX, nb.Rect.MaxY},
			DistSq: nb.DistSq,
		})
	}
	resp := knnResponse{NodesAccessed: stats.NodesAccessed, Neighbors: rs.neighbors}
	writeJSONBuf(w, http.StatusOK, resp, &rs.buf)
}

// statsResponse is the /stats payload; EndpointStats documents the
// per-endpoint half.
type statsResponse struct {
	Index         string           `json:"index"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Tree          treeStatsPayload `json:"tree"`
	// Collection carries the keyed object layer's counters: live keys
	// plus cumulative sets, updates-in-place and dels.
	Collection collection.Stats `json:"collection"`
	// Shards carries the per-shard breakdown when the served index is
	// sharded (implements ShardStatser); absent for a single tree.
	Shards []treeStatsPayload `json:"shards,omitempty"`
	// Fanout carries the cumulative query fan-out and cell-migration
	// counters when the served index prunes shard probes (implements
	// FanoutStatser); absent otherwise.
	Fanout    *shard.FanoutStats       `json:"fanout,omitempty"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Snapshots snapshotStats            `json:"snapshots"`
	// WAL carries the write-ahead log's counters when one is attached.
	WAL *walStatsPayload `json:"wal,omitempty"`
	// Policy carries the learned-policy inference section (active backend
	// kind, swap count, per-backend insert counters) when the server was
	// started with a policy; absent otherwise.
	Policy *core.PolicyStats `json:"policy,omitempty"`
	// PanicsRecovered counts handler panics converted to 500 responses
	// by the recovery middleware.
	PanicsRecovered int64 `json:"panics_recovered"`
}

type treeStatsPayload struct {
	Size        int     `json:"size"`
	Height      int     `json:"height"`
	Nodes       int     `json:"nodes"`
	Leaves      int     `json:"leaves"`
	AvgFill     float64 `json:"avg_fill"`
	MemoryBytes int64   `json:"memory_bytes"`
}

type snapshotStats struct {
	Path    string `json:"path,omitempty"`
	Written int64  `json:"written"`
	// Errors counts failed snapshot attempts (background and explicit),
	// so silent background failures show up in monitoring.
	Errors  int64  `json:"errors"`
	LastRFC string `json:"last,omitempty"`
	// LSN is the WAL LSN the newest snapshot covers (WAL-enabled only).
	LSN uint64 `json:"lsn,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

func toTreeStatsPayload(ts rtree.TreeStats) treeStatsPayload {
	return treeStatsPayload{
		Size:        ts.Size,
		Height:      ts.Height,
		Nodes:       ts.Nodes,
		Leaves:      ts.Leaves,
		AvgFill:     ts.AvgFill,
		MemoryBytes: ts.MemoryBytes,
	}
}

func (s *Server) statsPayload() statsResponse {
	resp := statsResponse{
		Index:         s.cfg.IndexName,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Tree:          toTreeStatsPayload(s.index.Stats()),
		Collection:    s.coll.Stats(),
		Endpoints:     s.metrics.snapshot(),
		Snapshots: snapshotStats{
			Path:    s.cfg.SnapshotPath,
			Written: s.snapshots.Load(),
			Errors:  s.snapErrors.Load(),
			LSN:     s.snapLSN.Load(),
		},
		PanicsRecovered: s.metrics.panics.Value(),
	}
	if s.cfg.Policy != nil {
		ps := s.cfg.Policy.Stats()
		resp.Policy = &ps
	}
	if s.cfg.WAL != nil {
		resp.WAL = &walStatsPayload{
			Dir:     s.cfg.WAL.Dir(),
			Policy:  s.cfg.WAL.Policy().String(),
			Epoch:   s.cfg.WAL.Epoch(),
			Metrics: s.cfg.WAL.Metrics(),
		}
	}
	if ss, ok := s.index.(ShardStatser); ok {
		per := ss.ShardStats()
		resp.Shards = make([]treeStatsPayload, len(per))
		for i, st := range per {
			resp.Shards[i] = toTreeStatsPayload(st)
		}
	}
	if fs, ok := s.index.(FanoutStatser); ok {
		fst := fs.FanoutStats()
		resp.Fanout = &fst
	}
	if ns := s.lastSnap.Load(); ns != 0 {
		resp.Snapshots.LastRFC = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return resp
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		httpError(w, http.StatusServiceUnavailable, errors.New("snapshotting disabled (no -snapshot path)"))
		return
	}
	if err := s.SaveSnapshot(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":    s.cfg.SnapshotPath,
		"written": s.snapshots.Load(),
	})
}

// parseRectSlice validates the wire form [minx, miny, maxx, maxy].
func parseRectSlice(v []float64) (geom.Rect, error) {
	if len(v) != 4 {
		return geom.Rect{}, fmt.Errorf("rect needs 4 numbers, got %d", len(v))
	}
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return geom.Rect{}, fmt.Errorf("rect has non-finite coordinate %v", f)
		}
	}
	r := geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("invalid rect %v (min > max)", r)
	}
	return r, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeJSONBuf encodes v through the caller's reusable buffer, setting
// Content-Length so keep-alive clients need no chunked framing. The buffer
// belongs to a pooled respScratch; its backing array is recycled across
// requests.
func writeJSONBuf(w http.ResponseWriter, code int, v any, buf *bytes.Buffer) {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSONBytes(w, code, buf.Bytes())
}

// writeJSONBytes answers with an encoded JSON body, framed by
// Content-Length.
func writeJSONBytes(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	w.Write(b)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
