package collection

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// Table-driven cursor edge cases over both backends: limit 0, cursor
// past the end, the cursor object deleted between pages, an empty
// collection, duplicate rects under distinct keys.
func TestCursorEdgeCases(t *testing.T) {
	everything := geom.NewRect(-1000, -1000, 1000, 1000)
	origin := geom.Pt(0, 0)

	type step struct {
		// mutate runs before the query (nil for none).
		mutate func(c *Collection)
		// cursorOf derives the cursor from the previous page ("" for
		// none); nil uses prev.Cursor.
		cursor    func(prev Page) string
		limit     int
		wantKeys  []string
		wantMore  bool // expect a non-empty resume cursor
		wantError bool
	}
	cases := []struct {
		name   string
		seed   func(c *Collection)
		query  func(c *Collection, cur string, limit int) (Page, error)
		steps  []step
		nearby bool
	}{
		{
			name: "limit zero returns all remaining",
			seed: seedN(10),
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Intersects(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 0, wantKeys: keysN(0, 10)},
				{limit: math.MaxInt, wantKeys: keysN(0, 10)},
			},
		},
		{
			name: "cursor past the end returns empty page, no cursor",
			seed: seedN(3),
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Intersects(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{cursor: func(Page) string { return encodeRangeCursor("zzz") }, limit: 5, wantKeys: []string{}},
			},
		},
		{
			name: "cursor object deleted mid-walk",
			seed: seedN(6),
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Intersects(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 2, wantKeys: keysN(0, 2), wantMore: true},
				// Delete the exact object the cursor names; the walk must
				// resume unperturbed at the next key.
				{mutate: func(c *Collection) { c.Del("n-01") }, limit: 2, wantKeys: keysN(2, 4), wantMore: true},
				{limit: 0, wantKeys: keysN(4, 6)},
			},
		},
		{
			name: "empty collection",
			seed: func(*Collection) {},
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Within(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 5, wantKeys: []string{}},
			},
		},
		{
			name: "duplicate rects under distinct keys stay distinct pages",
			seed: func(c *Collection) {
				same := geom.NewRect(1, 1, 2, 2)
				for i := 0; i < 5; i++ {
					c.Set(fmt.Sprintf("dup-%d", i), same)
				}
			},
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Intersects(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 2, wantKeys: []string{"dup-0", "dup-1"}, wantMore: true},
				{limit: 2, wantKeys: []string{"dup-2", "dup-3"}, wantMore: true},
				{limit: 2, wantKeys: []string{"dup-4"}},
			},
		},
		{
			name:   "nearby duplicate rects tie on distance, page by key",
			nearby: true,
			seed: func(c *Collection) {
				same := geom.NewRect(3, 3, 4, 4)
				for i := 0; i < 4; i++ {
					c.Set(fmt.Sprintf("tie-%d", i), same)
				}
			},
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Nearby(origin, 10, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 3, wantKeys: []string{"tie-0", "tie-1", "tie-2"}, wantMore: true},
				{limit: 3, wantKeys: []string{"tie-3"}},
			},
		},
		{
			name:   "nearby cursor object deleted mid-walk",
			nearby: true,
			seed:   seedN(5),
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Nearby(origin, 5, cur, limit)
				return p, err
			},
			steps: []step{
				{limit: 2, wantKeys: keysN(0, 2), wantMore: true},
				{mutate: func(c *Collection) { c.Del("n-01") }, limit: 0, wantKeys: keysN(2, 5)},
			},
		},
		{
			name: "garbage cursor rejected",
			seed: seedN(2),
			query: func(c *Collection, cur string, limit int) (Page, error) {
				p, _, err := c.Intersects(everything, cur, limit)
				return p, err
			},
			steps: []step{
				{cursor: func(Page) string { return "???" }, wantError: true},
			},
		},
	}

	for backend, mk := range backends(t) {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				c := New(mk())
				tc.seed(c)
				var prev Page
				for si, st := range tc.steps {
					if st.mutate != nil {
						st.mutate(c)
					}
					cur := prev.Cursor
					if st.cursor != nil {
						cur = st.cursor(prev)
					}
					page, err := tc.query(c, cur, st.limit)
					if st.wantError {
						if err == nil {
							t.Fatalf("step %d: no error for bad cursor", si)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d: %v", si, err)
					}
					if len(page.Keys) != len(st.wantKeys) {
						t.Fatalf("step %d: keys %v, want %v", si, page.Keys, st.wantKeys)
					}
					for i := range st.wantKeys {
						if page.Keys[i] != st.wantKeys[i] {
							t.Fatalf("step %d: keys %v, want %v", si, page.Keys, st.wantKeys)
						}
					}
					if (page.Cursor != "") != st.wantMore {
						t.Fatalf("step %d: cursor %q, wantMore=%v", si, page.Cursor, st.wantMore)
					}
					if tc.nearby && len(page.Dists) != len(page.Keys) {
						t.Fatalf("step %d: %d dists for %d keys", si, len(page.Dists), len(page.Keys))
					}
					prev = page
				}
			})
		}
	}
}

// TestCursorTokensCanonical pins the wire form of cursor tokens: the
// encoders write the same bytes as the original fmt-based formula, and
// parseCursor accepts exactly those bytes — no other spelling of the
// same value, and no token a lenient hex or base64 reader would stretch
// into one.
func TestCursorTokensCanonical(t *testing.T) {
	b64 := base64.RawURLEncoding.EncodeToString
	for _, tc := range []struct {
		dist float64
		key  string
	}{{0, "a"}, {1, "bus-1"}, {2.5e-300, ""}, {math.MaxFloat64, "ü/+?"}, {math.Inf(1), "z"}, {3, strings.Repeat("key", 40) + "!"}} {
		var bits [8]byte
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(tc.dist))
		want := "d." + fmt.Sprintf("%016x", bits) + "." + b64([]byte(tc.key))
		if got := encodeNearbyCursor(tc.dist, tc.key); got != want {
			t.Errorf("encodeNearbyCursor(%v, %q) = %q, want %q", tc.dist, tc.key, got, want)
		}
		if got, want := encodeRangeCursor(tc.key), "k."+b64([]byte(tc.key)); got != want {
			t.Errorf("encodeRangeCursor(%q) = %q, want %q", tc.key, got, want)
		}
		c, err := parseCursor(want)
		if err != nil || !c.started || !c.nearby || c.key != tc.key || math.Float64bits(c.dist) != math.Float64bits(tc.dist) {
			t.Errorf("parseCursor(%q) = %+v, %v", want, c, err)
		}
	}

	key := b64([]byte("k"))
	for _, tok := range []string{
		"d.3ff000000000000g." + key,  // a non-hex digit after 15 good ones
		"d.3FF0000000000000." + key,  // upper-case hex
		"d.3ff00000000000000." + key, // 17 digits
		"d.+3ff000000000000." + key,  // a sign
		"d.fff8000000000000." + key,  // NaN
		"d.bff0000000000000." + key,  // negative distance
		"d.3ff0000000000000",         // no key part
		"d.3ff0000000000000.a",       // truncated base64
		"k.aB",                       // unused trailing bits set
		"k.aw\n",                     // a line break base64 would skip
		"k.aw==",                     // padding
		"x.aw",
		"???",
	} {
		if c, err := parseCursor(tok); err == nil {
			t.Errorf("parseCursor(%q) accepted as %+v", tok, c)
		}
	}
}

// FuzzParseCursor: parsing never panics, every accepted token re-encodes
// to itself, and every key survives a range-cursor round trip.
func FuzzParseCursor(f *testing.F) {
	for _, seed := range []string{
		"", "k.", "???", "k.aB", "d.3ff000000000000g.aw",
		encodeRangeCursor("bus-1"), encodeNearbyCursor(0.25, "n-07"), encodeNearbyCursor(0, ""),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if c, err := parseCursor(tok); err == nil {
			if got := c.encode(); got != tok {
				t.Fatalf("parseCursor(%q) = %+v, which encodes as %q", tok, c, got)
			}
			if c.nearby && (math.IsNaN(c.dist) || c.dist < 0) {
				t.Fatalf("parseCursor(%q) accepted distance %v", tok, c.dist)
			}
		}
		c, err := parseCursor(encodeRangeCursor(tok))
		if err != nil || c.key != tok || c.nearby {
			t.Fatalf("range cursor of key %q parsed as %+v, %v", tok, c, err)
		}
	})
}

// seedN stores n-00..n-<n-1> as unit squares marching up the diagonal,
// so key order and distance-from-origin order coincide.
func seedN(n int) func(*Collection) {
	return func(c *Collection) {
		for i := 0; i < n; i++ {
			x := float64(i)
			c.Set(fmt.Sprintf("n-%02d", i), geom.NewRect(x, x, x+1, x+1))
		}
	}
}

func keysN(from, to int) []string {
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, fmt.Sprintf("n-%02d", i))
	}
	return out
}
