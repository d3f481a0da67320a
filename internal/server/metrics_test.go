package server

import (
	"expvar"
	"testing"
	"time"

	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// TestQuantileNearestRank pins quantile to the nearest-rank definition —
// the bucket holding the ceil(q*total)-th smallest observation — on
// workloads placed exactly at bucket boundaries. The old computation
// (rank = floor(q*total), strict cum > rank) walked one observation too
// far and could report a bucket above the true quantile.
func TestQuantileNearestRank(t *testing.T) {
	// fill maps bucket-representative latencies (µs) to observation
	// counts; observe routes them through the production bucketing.
	fill := func(obs map[int64]int64) *endpointMetrics {
		e := &endpointMetrics{}
		for us, n := range obs {
			for i := int64(0); i < n; i++ {
				e.observe(time.Duration(us)*time.Microsecond, false)
			}
		}
		return e
	}
	cases := []struct {
		name string
		obs  map[int64]int64 // latency µs -> count
		q    float64
		want int64
	}{
		// 100 observations, exactly 50 in the first bucket: the 50th
		// smallest IS in [0,50). The old code reported 100 here.
		{"p50 exactly at boundary", map[int64]int64{10: 50, 60: 49, 300: 1}, 0.50, 50},
		{"p99 spanning buckets", map[int64]int64{10: 50, 60: 49, 300: 1}, 0.99, 100},
		{"p100 hits slowest bucket", map[int64]int64{10: 50, 60: 49, 300: 1}, 1.00, 500},
		// 99 of 100 in the first bucket: the 99th smallest is in [0,50).
		// The old code jumped to the one-observation tail bucket (2500).
		{"p99 exactly at boundary", map[int64]int64{10: 99, 2_000: 1}, 0.99, 50},
		{"single observation", map[int64]int64{10: 1}, 0.50, 50},
		{"q zero clamps to first observation", map[int64]int64{60: 5}, 0, 100},
		{"unbounded tail", map[int64]int64{2_000_000: 10}, 0.50, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := fill(tc.obs).quantile(tc.q); got != tc.want {
				t.Fatalf("quantile(%v) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
	if got := (&endpointMetrics{}).quantile(0.99); got != 0 {
		t.Fatalf("quantile on empty metrics = %d, want 0", got)
	}
}

// TestPublishExpvarTracksLatestServer verifies that /debug/vars follows
// the most recent PublishExpvar caller. Registration is once-per-process
// (expvar.Publish panics on duplicates), but the published Func must
// read through to the live server, not stay bound to the first one ever
// constructed.
func TestPublishExpvarTracksLatestServer(t *testing.T) {
	mk := func(name string) *Server {
		s, err := New(Config{Index: newIndex(t, rtree.Options{}), IndexName: name})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	read := func() statsResponse {
		v, ok := expvar.Get("rlrtree.server").(expvar.Func)
		if !ok {
			t.Fatal("rlrtree.server is not published as an expvar.Func")
		}
		resp, ok := v().(statsResponse)
		if !ok {
			t.Fatalf("published payload has type %T, want statsResponse", v())
		}
		return resp
	}

	mk("first-index").PublishExpvar()
	if got := read().Index; got != "first-index" {
		t.Fatalf("after first publish, Index = %q, want %q", got, "first-index")
	}
	mk("second-index").PublishExpvar()
	if got := read().Index; got != "second-index" {
		t.Fatalf("after republish, Index = %q, want %q (stuck on the first caller)", got, "second-index")
	}
}
