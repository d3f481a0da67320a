// Command rlr-loadgen replays a dataset-generated workload against a
// running rlr-serve instance and reports throughput and latency
// percentiles, making the serving path itself benchmarkable.
//
// Usage:
//
//	rlr-loadgen -addr http://localhost:8080 -n 50000 -queries 5000 -qps 2000
//	rlr-loadgen -addr http://localhost:8080 -load=false -queries 10000 -knn-frac 0.2
//
// Phase 1 (unless -load=false) places -n objects of the chosen dataset
// kind as keys obj-0000000, obj-0000001, ... through POST /set, over -c
// pipelined connections of -pipeline requests per write (more than one
// connection exercises the server's write-side concurrency — the case a
// -shards rlr-serve exists for). Phase 2 issues -queries window queries
// (area fraction -size) and KNN queries (fraction -knn-frac, k = -k)
// from -c concurrent workers, paced at -qps requests/second (0 = closed
// loop, as fast as the server allows).
//
// -scenario moving switches to the live-update churn workload the keyed
// API exists for: SET -n objects by key, then have -c workers move them
// with random-walk POST /set updates for -duration, paced at -rate
// total updates/second (0 = closed loop). Because every move is a SET
// of an existing key, the object count must stay exactly -n while the
// sets counter grows — the scenario fetches /stats at the end and fails
// loudly if the server leaked or lost objects.
//
//	rlr-loadgen -addr http://localhost:8080 -scenario moving -n 10000 -duration 10s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "base URL of rlr-serve")
		kind        = flag.String("kind", "UNI", "dataset kind: UNI, GAU, SKE, CHI, IND")
		n           = flag.Int("n", 50_000, "objects to load in phase 1")
		load        = flag.Bool("load", true, "run the load phase")
		queries     = flag.Int("queries", 5000, "total queries in phase 2")
		size        = flag.Float64("size", 0.0001, "window query area as a fraction of the unit square")
		knnFrac     = flag.Float64("knn-frac", 0, "fraction of queries that are KNN")
		k           = flag.Int("k", 10, "K for KNN queries")
		qps         = flag.Float64("qps", 0, "target queries/second (0 = closed loop)")
		workers     = flag.Int("c", 8, "concurrent connections: query workers, and placement connections")
		seed        = flag.Int64("seed", 1, "random seed")
		scenario    = flag.String("scenario", "", `workload scenario: "" (load+query) or "moving" (keyed update churn)`)
		rate        = flag.Float64("rate", 0, "moving scenario: target updates/second across all workers (0 = closed loop)")
		duration    = flag.Duration("duration", 10*time.Second, "moving scenario: churn phase length")
		pipeline    = flag.Int("pipeline", 8, "pipelined SETs per connection write when placing and moving objects")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		cliutil.PrintVersion(os.Stdout, "rlr-loadgen")
		return
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: *workers * 2,
		},
	}

	switch *scenario {
	case "moving":
		if err := movingScenario(client, *addr, *kind, *n, *workers, *pipeline, *rate, *duration, *seed); err != nil {
			fatal(err)
		}
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown -scenario %q (want \"moving\" or empty)", *scenario))
	}

	if *load {
		if err := loadPhase(*addr, *kind, *n, *workers, *pipeline, *seed); err != nil {
			fatal(err)
		}
	}
	if *queries > 0 {
		if err := queryPhase(client, *addr, *queries, *size, *knnFrac, *k, *qps, *workers, *seed); err != nil {
			fatal(err)
		}
	}
}

// loadPhase places n dataset objects as keys obj-0000000, ... through
// pipelined POST /set.
func loadPhase(addr, kind string, n, conns, depth int, seed int64) error {
	data, err := dataset.Generate(dataset.Kind(kind), n, seed)
	if err != nil {
		return err
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%07d", i)
	}
	start := time.Now()
	if err := place(addr, keys, data, conns, depth); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("load:   %d objects (%s) in %s — %.0f sets/s (%d conns × pipeline %d)\n",
		n, kind, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), conns, depth)
	return nil
}

// queryResult is one completed request's measurement.
type queryResult struct {
	latency time.Duration
	nodes   int
	isKNN   bool
	err     error
}

// fanoutCounters mirrors the server's /stats "fanout" section (present
// only when the served index prunes shard probes).
type fanoutCounters struct {
	Queries      uint64 `json:"queries"`
	ShardsProbed uint64 `json:"shards_probed"`
	ShardsPruned uint64 `json:"shards_pruned"`
}

// fetchFanout reads the fan-out counters from GET /stats, returning nil
// when the server does not expose them (single-tree index, old server).
func fetchFanout(client *http.Client, addr string) *fanoutCounters {
	resp, err := client.Get(addr + "/stats")
	if err != nil {
		return nil
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Fanout *fanoutCounters `json:"fanout"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	return body.Fanout
}

func queryPhase(client *http.Client, addr string, queries int, size, knnFrac float64, k int, qps float64, workers int, seed int64) error {
	world := geom.NewRect(0, 0, 1, 1)
	windows := dataset.RangeQueries(queries, size, world, seed+1)
	points := dataset.KNNQueryPoints(queries, world, seed+2)
	rng := rand.New(rand.NewSource(seed + 3))

	urls := make([]string, queries)
	kinds := make([]bool, queries) // true = KNN
	for i := 0; i < queries; i++ {
		if rng.Float64() < knnFrac {
			p := points[i]
			urls[i] = fmt.Sprintf("%s/knn?point=%g,%g&k=%d", addr, p.X, p.Y, k)
			kinds[i] = true
		} else {
			q := windows[i]
			urls[i] = fmt.Sprintf("%s/search?rect=%g,%g,%g,%g", addr, q.MinX, q.MinY, q.MaxX, q.MaxY)
		}
	}

	// Fan-out counters are cumulative; sample them around the phase so
	// the delta covers exactly this query stream.
	fanBefore := fetchFanout(client, addr)

	work := make(chan int, workers)
	results := make(chan queryResult, queries)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				start := time.Now()
				resp, err := client.Get(urls[i])
				r := queryResult{isKNN: kinds[i], err: err}
				if err == nil {
					var body struct {
						NodesAccessed int `json:"nodes_accessed"`
					}
					if resp.StatusCode != http.StatusOK {
						r.err = fmt.Errorf("HTTP %d", resp.StatusCode)
					} else if derr := json.NewDecoder(resp.Body).Decode(&body); derr != nil {
						r.err = derr
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					r.nodes = body.NodesAccessed
				}
				r.latency = time.Since(start)
				results <- r
			}
		}()
	}

	// Paced (or closed-loop) dispatch.
	start := time.Now()
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(time.Second) / qps)
	}
	for i := 0; i < queries; i++ {
		if interval > 0 {
			next := start.Add(time.Duration(i) * interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		work <- i
	}
	close(work)
	wg.Wait()
	close(results)
	elapsed := time.Since(start)

	var (
		lats              []time.Duration
		nodes, knns       int
		errors, windowsOK int
	)
	for r := range results {
		if r.err != nil {
			errors++
			continue
		}
		lats = append(lats, r.latency)
		nodes += r.nodes
		if r.isKNN {
			knns++
		} else {
			windowsOK++
		}
	}
	if len(lats) == 0 {
		return fmt.Errorf("all %d queries failed (last phase saw %d errors)", queries, errors)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration { return percentile(lats, q) }
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	fmt.Printf("query:  %d ok (%d window, %d knn), %d errors in %s — %.0f q/s achieved",
		len(lats), windowsOK, knns, errors, elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds())
	if qps > 0 {
		fmt.Printf(" (target %.0f)", qps)
	}
	fmt.Println()
	fmt.Printf("        latency avg %s  p50 %s  p90 %s  p99 %s  max %s\n",
		(total / time.Duration(len(lats))).Round(time.Microsecond),
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	fmt.Printf("        node accesses: %d total, %.1f per query\n", nodes, float64(nodes)/float64(len(lats)))
	if fanAfter := fetchFanout(client, addr); fanAfter != nil && fanBefore != nil && fanAfter.Queries > fanBefore.Queries {
		dq := fanAfter.Queries - fanBefore.Queries
		probed := fanAfter.ShardsProbed - fanBefore.ShardsProbed
		pruned := fanAfter.ShardsPruned - fanBefore.ShardsPruned
		fmt.Printf("        fanout: %.2f shards probed per query (%d probed, %d pruned over %d fan-outs)\n",
			float64(probed)/float64(dq), probed, pruned, dq)
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of the sorted latency
// slice: the smallest observation with at least q·n observations at or
// below it (rank ceil(q·n), clamped to the slice). The floored
// interpolation index this replaces (int(q·(n-1))) under-reported tail
// percentiles — on 100 samples it returned the 99th-smallest value as
// "p99" instead of the 100th, hiding the worst observed latency entirely.
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(lats)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(lats) {
		i = len(lats) - 1
	}
	return lats[i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlr-loadgen:", err)
	os.Exit(1)
}
