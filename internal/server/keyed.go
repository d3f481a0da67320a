package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// Keyed endpoints: the HTTP face of internal/collection. SET/GET/DEL
// address objects by string key; /search, /within and /knn answer one
// page of keys and rects with a resume cursor.

// Collection returns the keyed layer the server serves — the handle
// tests and embedding callers use to inspect or validate it.
func (s *Server) Collection() *collection.Collection { return s.coll }

// maxKeyBytes caps a single object key, far above any sane identifier.
const maxKeyBytes = 4096

// Every key a handler accepts must fit a WAL record.
var _ [wal.MaxKeyBytes - maxKeyBytes]struct{}

func validKey(key string) error {
	if key == "" {
		return errors.New("key must not be empty")
	}
	if len(key) > maxKeyBytes {
		return fmt.Errorf("key exceeds %d bytes", maxKeyBytes)
	}
	return nil
}

type setRequest struct {
	Key  string    `json:"key"`
	Rect []float64 `json:"rect"`
}

// keyedScratch is the reusable per-request state of the keyed write
// path. SET is the hottest endpoint in the system — a moving-objects
// workload is nothing but tiny POST /set bodies — so the body read
// buffer, the decoded request (whose Rect backing array json.Unmarshal
// reuses), and the response encode buffer are pooled.
type keyedScratch struct {
	in  bytes.Buffer
	out bytes.Buffer
	req setRequest
}

var keyedPool = sync.Pool{New: func() any { return new(keyedScratch) }}

// readKeyedBody slurps the request body into the scratch buffer and
// unmarshals it into the scratch request.
func (ks *keyedScratch) readKeyedBody(r *http.Request) error {
	ks.in.Reset()
	if _, err := ks.in.ReadFrom(r.Body); err != nil {
		return err
	}
	ks.req.Key = ""
	ks.req.Rect = ks.req.Rect[:0]
	return json.Unmarshal(ks.in.Bytes(), &ks.req)
}

type setResponse struct {
	Replaced bool `json:"replaced"`
	// Prev is the rect the key held before this SET, present only when
	// Replaced.
	Prev *[4]float64 `json:"prev,omitempty"`
	Size int         `json:"size"`
}

func (s *Server) handleSet(w http.ResponseWriter, r *http.Request) {
	ks := keyedPool.Get().(*keyedScratch)
	defer keyedPool.Put(ks)
	if err := ks.readKeyedBody(r); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad set body: %w", err))
		return
	}
	if err := validKey(ks.req.Key); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rect, err := parseRectSlice(ks.req.Rect)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.appendSet(ks.req.Key, rect)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// A fresh key inserts into the tree and a move reinserts it, both
	// through the active chooser.
	s.countPolicyInserts(1)
	resp := setResponse{Replaced: res.Replaced, Size: s.coll.Len()}
	if res.Replaced {
		resp.Prev = &[4]float64{res.Prev.MinX, res.Prev.MinY, res.Prev.MaxX, res.Prev.MaxY}
	}
	writeJSONBuf(w, http.StatusOK, resp, &ks.out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if err := validKey(key); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rect, ok := s.coll.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("key %q not found", key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":  key,
		"rect": [4]float64{rect.MinX, rect.MinY, rect.MaxX, rect.MaxY},
	})
}

type delResponse struct {
	Deleted bool `json:"deleted"`
	Size    int  `json:"size"`
}

func (s *Server) handleDel(w http.ResponseWriter, r *http.Request) {
	ks := keyedPool.Get().(*keyedScratch)
	defer keyedPool.Put(ks)
	if err := ks.readKeyedBody(r); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad del body: %w", err))
		return
	}
	if len(ks.req.Rect) != 0 {
		httpError(w, http.StatusBadRequest, errors.New("del takes a key, not a rect"))
		return
	}
	if err := validKey(ks.req.Key); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ok, err := s.appendDelKey(ks.req.Key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSONBuf(w, http.StatusOK, delResponse{Deleted: ok, Size: s.coll.Len()}, &ks.out)
}

// pageParams extracts the cursor/limit pair from the request's parsed
// query string. The effective limit is clamped to MaxResults; absent or
// non-positive means "server maximum".
func (s *Server) pageParams(q url.Values) (cur string, limit int, err error) {
	cur = q.Get("cursor")
	if ls := q.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil {
			return "", 0, fmt.Errorf("bad limit %q", ls)
		}
	}
	if limit <= 0 || limit > s.cfg.MaxResults {
		limit = s.cfg.MaxResults
	}
	return cur, limit, nil
}

// handleSearch pages the keys whose rects intersect the window, in key
// order.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.handleRectPage(w, r, "search", s.coll.Intersects)
}

// handleWithin pages the keys whose rects the window contains, in key
// order.
func (s *Server) handleWithin(w http.ResponseWriter, r *http.Request) {
	s.handleRectPage(w, r, "within", s.coll.Within)
}

// handleRectPage answers one page of a window query.
func (s *Server) handleRectPage(w http.ResponseWriter, r *http.Request, endpoint string,
	query func(q geom.Rect, cursor string, limit int) (collection.Page, rtree.QueryStats, error)) {
	params := r.URL.Query()
	q, err := cliutil.ParseRect(params.Get("rect"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad rect: %w", err))
		return
	}
	cur, limit, err := s.pageParams(params)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	page, stats, err := query(q, cur, limit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.endpoint(endpoint).addNodeAccesses(stats.NodesAccessed)
	writePage(w, page, stats.NodesAccessed)
}

// handleKNN pages the k nearest keys by distance, deterministic at
// distance ties.
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
	cur, limit, err := s.pageParams(params)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	page, stats, err := s.coll.Nearby(p, k, cur, limit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.endpoint("knn").addNodeAccesses(stats.NodesAccessed)
	writePage(w, page, stats.NodesAccessed)
}

// pageBufPool recycles the paged responses' encode buffers.
var pageBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writePage answers with p's wire form, framed by Content-Length.
func writePage(w http.ResponseWriter, p collection.Page, nodes int) {
	bp := pageBufPool.Get().(*[]byte)
	defer pageBufPool.Put(bp)
	b, err := appendPage((*bp)[:0], p, nodes)
	*bp = b
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, b)
}

// appendPage appends the wire form of one collection query page to b:
//
//	{"keys":[…],"rects":[[minx,miny,maxx,maxy],…],"dists":[…],"cursor":"…","count":N,"nodes_accessed":N}
//
// with dists present only when non-empty (paged /knn) and cursor only
// when more rows remain. The bytes, trailing newline included, are
// exactly what json.NewEncoder(w).Encode writes for that object (the
// differential test pins this), without reflection and without garbage
// that grows with the page. The only failure is a non-finite number,
// which JSON cannot carry.
func appendPage(b []byte, p collection.Page, nodes int) ([]byte, error) {
	var err error
	b = append(b, `{"keys":[`...)
	for i, k := range p.Keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
	}
	b = append(b, `],"rects":[`...)
	for i, r := range p.Rects {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, f := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = appendJSONFloat(b, f); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if len(p.Dists) > 0 {
		b = append(b, `,"dists":[`...)
		for i, f := range p.Dists {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendJSONFloat(b, f); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if p.Cursor != "" {
		b = append(b, `,"cursor":`...)
		b = appendJSONString(b, p.Cursor)
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(p.Keys)), 10)
	b = append(b, `,"nodes_accessed":`...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	return append(b, "}\n"...), nil
}

// appendJSONString appends s as a JSON string. Printable ASCII other
// than the characters encoding/json escapes (quote, backslash and the
// HTML-significant <, > and &) is copied verbatim; any other key takes
// json.Marshal, so control bytes, invalid UTF-8 and U+2028/U+2029 get
// exactly its escapes.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json writes a float64: the
// shortest round-tripping decimal, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent trimmed (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
