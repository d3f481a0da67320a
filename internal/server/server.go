// Package server exposes an RLR-Tree (or any heuristic R-Tree) as a
// concurrent HTTP/JSON spatial query service. The paper's deployability
// argument — a learned index that answers queries with the unmodified
// classic R-Tree algorithms — means the serving layer needs nothing
// special: the index sits behind ordinary handlers, queries run
// lock-free on each shard's published epoch in parallel, and mutations
// serialize through the owning shard's writer mutex.
//
// Endpoints:
//
//	POST /set       {"key":"truck-1","rect":[x1,y1,x2,y2]} keyed upsert
//	POST /del       {"key":"truck-1"} keyed delete
//	GET  /get       ?key=truck-1
//	GET  /search    ?rect=x1,y1,x2,y2&limit=N&cursor=... keyed intersection query
//	GET  /within    ?rect=x1,y1,x2,y2&limit=N&cursor=... keyed containment query
//	GET  /knn       ?point=x,y&k=10&limit=N&cursor=... keyed neighbors
//	GET  /stats     tree structure + keyed counters + per-endpoint metrics
//	POST /snapshot  force a snapshot to disk now
//	GET  /healthz   liveness probe
//
// Every served object is a key of internal/collection: SET moves the
// key's previous object instead of adding a second one, and the query
// endpoints answer one page of keys with a stable resume cursor (see
// internal/collection's cursor contract; limit defaults to MaxResults).
// Every response is JSON. Request bodies are size-capped and query
// requests carry a deadline.
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

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// Index is the serving-side contract of the sharded spatial index: the
// collection's Spatial contract plus what /stats and snapshots need.
// *shard.ShardedTree (N trees behind a Z-order router, per-shard writer
// mutexes, lock-free epoch reads) implements it, with one shard or many,
// so the whole HTTP layer is shard-agnostic — the RLR-Tree property that
// queries are classic R-Tree algorithms extends one level up: the
// serving code cannot tell how the index is partitioned.
type Index interface {
	collection.Spatial
	Stats() rtree.TreeStats
	// ShardStats is the per-shard breakdown /stats reports.
	ShardStats() []rtree.TreeStats
	// FanoutStats is the cumulative query fan-out counters /stats
	// reports.
	FanoutStats() shard.FanoutStats
	// PrepareSnapshot captures a consistent copy of the index now (a
	// clone of the published epochs — cheap, done under the server's
	// snapshot lock) and returns the encoder of the sharded payload,
	// which the server runs outside every lock so disk I/O never blocks
	// writers.
	PrepareSnapshot() func(w io.Writer) error
}

// Defaults for the zero values of Config.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBodyBytes   = 16 << 20
	DefaultMaxResults     = 100_000
)

// Config configures a Server. Index is required.
type Config struct {
	// Index is the served index: a shard.ShardedTree (shard.New for a
	// fresh one, LoadSnapshot for a restored one), or a decorator around
	// one.
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
	// MaxResults caps the rows of one query page, and is the page size
	// when a request names no limit.
	MaxResults int
	// WAL, when non-nil, makes every mutating endpoint append its
	// operation to the write-ahead log before applying it (see wal.go).
	// The caller opens the log, runs Recover, and closes it after
	// Server.Close. Snapshots then embed the covered LSN and retire
	// fully-covered segments.
	WAL *wal.WAL
	// Collection is the keyed object layer served by /set, /get, /del
	// and the paged query modes. Pass the collection WAL recovery
	// replayed into (built over Index with collection.Restore); nil
	// makes New build an empty one over Index.
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

	snapshots  atomic.Int64  // snapshots written
	snapErrors atomic.Int64  // snapshot attempts that failed
	lastSnap   atomic.Int64  // unix nanos of the last snapshot
	snapLSN    atomic.Uint64 // WAL LSN covered by the last snapshot
	stopSnap   chan struct{}
	snapLoopWG chan struct{} // closed when the background snapshot loop exits
	closed     atomic.Bool

	// walMu orders mutations against snapshot captures: every mutation,
	// logged or not, holds it shared around its append+apply pair,
	// snapshot capture holds it exclusive (see wal.go for the
	// consistency argument).
	walMu sync.RWMutex
	// idMu stripes per-key ordering for WAL-enabled mutations:
	// append+apply runs under the stripe of the key it touches, so the
	// log's LSN order matches the apply order per key and replay
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
		return nil, errors.New("server: Config.Index is required")
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
	if cfg.Collection == nil {
		cfg.Collection = collection.New(cfg.Index)
	}
	s := &Server{
		cfg:        cfg,
		index:      cfg.Index,
		coll:       cfg.Collection,
		started:    time.Now(),
		stopSnap:   make(chan struct{}),
		snapLoopWG: make(chan struct{}),
	}
	s.metrics.init()
	return s, nil
}

// Start launches the background snapshot loop when configured. Safe to
// call when it is disabled (it is then a no-op).
func (s *Server) Start() {
	if s.cfg.SnapshotPath == "" || s.cfg.SnapshotEvery <= 0 {
		close(s.snapLoopWG)
		return
	}
	go s.snapshotLoop()
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

// recoverable runs h and converts a handler panic into a 500 JSON error
// plus a counted expvar metric, instead of letting net/http kill the
// connection.
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

// statsResponse is the /stats payload; EndpointStats documents the
// per-endpoint half.
type statsResponse struct {
	Index         string           `json:"index"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Tree          treeStatsPayload `json:"tree"`
	// Collection carries the keyed object layer's counters: live keys
	// plus cumulative sets, updates-in-place and dels.
	Collection collection.Stats `json:"collection"`
	// Shards carries the per-shard breakdown.
	Shards []treeStatsPayload `json:"shards"`
	// Fanout carries the cumulative query fan-out counters.
	Fanout    shard.FanoutStats        `json:"fanout"`
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
		Fanout:        s.index.FanoutStats(),
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
	for _, st := range s.index.ShardStats() {
		resp.Shards = append(resp.Shards, toTreeStatsPayload(st))
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
// belongs to a pooled keyedScratch; its backing array is recycled across
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
