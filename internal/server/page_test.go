package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// oldPagedResponse and toOldPagedResponse are the reflection-encoded
// wire form the paged modes used before appendPage: the oracle its
// bytes are pinned to.
type oldPagedResponse struct {
	Keys          []string     `json:"keys"`
	Rects         [][4]float64 `json:"rects"`
	Dists         []float64    `json:"dists,omitempty"`
	Cursor        string       `json:"cursor,omitempty"`
	Count         int          `json:"count"`
	NodesAccessed int          `json:"nodes_accessed"`
}

func toOldPagedResponse(p collection.Page, nodes int) oldPagedResponse {
	resp := oldPagedResponse{
		Keys:          p.Keys,
		Rects:         make([][4]float64, len(p.Rects)),
		Dists:         p.Dists,
		Cursor:        p.Cursor,
		Count:         len(p.Keys),
		NodesAccessed: nodes,
	}
	if resp.Keys == nil {
		resp.Keys = []string{}
	}
	for i, r := range p.Rects {
		resp.Rects[i] = [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
	}
	return resp
}

// TestAppendPageMatchesEncodingJSON pins appendPage to
// json.NewEncoder(buf).Encode of the old response struct, byte for
// byte, over seeded pages: empty pages, keys that need escaping, and
// floats at every formatting boundary.
func TestAppendPageMatchesEncodingJSON(t *testing.T) {
	keys := []string{
		"", "a", "mv-000001", "plain key 123", `quo"te`, `back\slash`, "<tag>&amp;",
		"ctl\x00\x01\x1f\x7f", "\b\f\n\r\t", "bad\xff\xfeutf8", "half\xe2\x82", "line\u2028sep\u2029",
		"ünïcödé", "emoji 🚚", "k.aGk", "d.3ff0000000000000.aw",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 123456789012345678901.0, 5e-324, -5e-324,
		2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300,
		math.SmallestNonzeroFloat64 * 1000, 0.30000000000000004, 12345.678,
	}
	rng := rand.New(rand.NewSource(31))
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	key := func() string {
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		}
		return keys[rng.Intn(len(keys))]
	}

	var pages []collection.Page
	// Empty pages in every shape a query can return them.
	pages = append(pages, collection.Page{}, collection.Page{Keys: []string{}, Rects: []geom.Rect{}},
		collection.Page{Keys: []string{}, Rects: []geom.Rect{}, Dists: []float64{}})
	// Every key and every float at least once.
	all := collection.Page{Cursor: "k.YQ"}
	for i, k := range keys {
		all.Keys = append(all.Keys, k)
		all.Rects = append(all.Rects, geom.Rect{MinX: floats[i%len(floats)], MinY: floats[(i+1)%len(floats)],
			MaxX: floats[(i+2)%len(floats)], MaxY: floats[(i+3)%len(floats)]})
	}
	pages = append(pages, all, collection.Page{Keys: []string{"d"}, Rects: []geom.Rect{{}}, Dists: floats[:1]},
		collection.Page{Keys: keys[:1], Rects: make([]geom.Rect, 1), Dists: floats})
	for i := 0; i < 500; i++ {
		n := rng.Intn(8)
		p := collection.Page{Keys: make([]string, n), Rects: make([]geom.Rect, n)}
		if n == 0 && rng.Intn(2) == 0 {
			p.Keys, p.Rects = nil, nil
		}
		for j := 0; j < n; j++ {
			p.Keys[j] = key()
			p.Rects[j] = geom.Rect{MinX: num(), MinY: num(), MaxX: num(), MaxY: num()}
		}
		if rng.Intn(2) == 0 {
			p.Dists = make([]float64, n)
			for j := range p.Dists {
				p.Dists[j] = math.Abs(num())
			}
		}
		if rng.Intn(2) == 0 {
			p.Cursor = key()
		}
		pages = append(pages, p)
	}

	var want bytes.Buffer
	var got []byte
	for i, p := range pages {
		nodes := rng.Intn(100000)
		want.Reset()
		if err := json.NewEncoder(&want).Encode(toOldPagedResponse(p, nodes)); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = appendPage(got[:0], p, nodes); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("page %d (%+v):\n got %s\nwant %s", i, p, got, want.Bytes())
		}
	}

	// JSON has no spelling for a non-finite number; encoding/json refuses
	// it too.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := appendPage(nil, collection.Page{Keys: []string{"a"}, Rects: make([]geom.Rect, 1), Dists: []float64{f}}, 1); err == nil {
			t.Errorf("appendPage accepted dist %v", f)
		}
		if _, err := appendPage(nil, collection.Page{Keys: []string{"a"}, Rects: []geom.Rect{{MaxX: f}}}, 1); err == nil {
			t.Errorf("appendPage accepted coordinate %v", f)
		}
	}
}

// TestPagedResponsesFramedByContentLength: every paged mode answers
// with an exact Content-Length, never chunked — including a page far
// larger than net/http's response buffer.
func TestPagedResponsesFramedByContentLength(t *testing.T) {
	s, ts := newTestServer(t, "")
	defer s.Close()
	for i := 0; i < 600; i++ {
		x := float64(i % 25)
		y := float64(i / 25)
		s.Collection().Set(fmt.Sprintf("obj-%04d", i), geom.NewRect(x, y, x+0.5, y+0.5))
	}
	for _, path := range []string{
		"/search?rect=0,0,100,100&limit=1000",
		"/search?rect=0,0,3,3&limit=2",
		"/within?rect=0,0,100,100",
		"/within?rect=-9,-9,-8,-8",
		"/knn?point=0,0&k=500&limit=500",
		"/knn?point=0,0&k=5&limit=2",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.Header.Get("Transfer-Encoding") != "" {
			t.Errorf("%s: Transfer-Encoding %v", path, resp.TransferEncoding)
		}
		if resp.Header.Get("Content-Length") != fmt.Sprint(len(body)) || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", path, resp.Header.Get("Content-Length"), len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
		var page pagedWire
		if err := json.Unmarshal(body, &page); err != nil || page.Count != len(page.Keys) {
			t.Errorf("%s: body %q: %v", path, body, err)
		}
	}
}

// TestKNNRejectsMalformedK: k is a whole decimal integer or the request
// is a 400 — never a prefix of something else read as a number.
func TestKNNRejectsMalformedK(t *testing.T) {
	s, ts := newTestServer(t, "")
	defer s.Close()
	s.Collection().Set("a", geom.NewRect(0, 0, 1, 1))
	for _, k := range []string{"10abc", "10 20", "1e3", "0x10", "10.0", " 10", "-1", "0", "k"} {
		for _, mode := range []string{"", "&limit=5"} {
			resp, err := http.Get(ts.URL + "/knn?point=0.5,0.5&k=" + url.QueryEscape(k) + mode)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("k=%q%s: status %d, want 400", k, mode, resp.StatusCode)
			}
		}
	}
	for _, k := range []string{"", "1", "+3", "007"} {
		resp, err := http.Get(ts.URL + "/knn?point=0.5,0.5&k=" + url.QueryEscape(k))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("k=%q: status %d, want 200", k, resp.StatusCode)
		}
	}
}

// TestPagedQueryAllocs is the allocation gate of the paged read path:
// a limit-100 page, selected and encoded, allocates the same whether
// the query matches a handful of 20 K objects or all of them. The only
// difference allowed is the one string of the resume cursor, which a
// truncated page carries and a short one does not; between two
// truncated pages whose hit counts differ a hundredfold there is none.
func TestPagedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching")
	}
	const n, limit = 20000, 100
	rects, err := dataset.Generate(dataset.UNI, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]collection.Spatial{
		"single": rtree.NewConcurrent(rtree.New(rtree.Options{MaxEntries: 16, MinEntries: 6})),
	}
	st, err := shard.New(shard.Options{Shards: 4, Tree: rtree.Options{MaxEntries: 16, MinEntries: 6}})
	if err != nil {
		t.Fatal(err)
	}
	backends["sharded"] = st
	for name, ix := range backends {
		t.Run(name, func(t *testing.T) {
			c := collection.New(ix)
			for i, r := range rects {
				c.Set(fmt.Sprintf("obj-%05d", i), r)
			}
			var buf []byte
			allocs := func(query func() (collection.Page, rtree.QueryStats, error)) (float64, int, bool) {
				page, _, err := query()
				if err != nil {
					t.Fatal(err)
				}
				a := testing.AllocsPerRun(50, func() {
					page, stats, _ := query()
					buf, _ = appendPage(buf[:0], page, stats.NodesAccessed)
				})
				return a, len(page.Keys), page.Cursor != ""
			}
			check := func(kind string, small, mid, whole func() (collection.Page, rtree.QueryStats, error)) {
				sa, sn, smore := allocs(small)
				ma, mn, mmore := allocs(mid)
				wa, wn, wmore := allocs(whole)
				t.Logf("%s allocs/op: %v (%d rows), %v (%d rows + cursor), %v (%d rows + cursor)", kind, sa, sn, ma, mn, wa, wn)
				if sn == 0 || smore || !mmore || !wmore || mn != limit || wn != limit {
					t.Fatalf("%s: fixture pages have the wrong shape", kind)
				}
				if wa > ma || wa > sa+1 {
					t.Errorf("%s: allocations grow with the hit count", kind)
				}
			}
			at := rects[0].Center()
			check("Intersects",
				func() (collection.Page, rtree.QueryStats, error) {
					return c.Intersects(geom.Square(at.X, at.Y, 0.01), "", limit) // 0.01 % of the world
				},
				func() (collection.Page, rtree.QueryStats, error) {
					return c.Intersects(geom.Square(0.5, 0.5, 0.1), "", limit) // 1 %
				},
				func() (collection.Page, rtree.QueryStats, error) {
					return c.Intersects(geom.NewRect(-1, -1, 2, 2), "", limit)
				})
			check("Nearby",
				func() (collection.Page, rtree.QueryStats, error) { return c.Nearby(at, 10, "", limit) },
				func() (collection.Page, rtree.QueryStats, error) { return c.Nearby(at, 200, "", limit) },
				func() (collection.Page, rtree.QueryStats, error) { return c.Nearby(at, n, "", limit) })
		})
	}
}
