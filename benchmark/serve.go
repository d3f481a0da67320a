package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// tally counts requests attempted and failed. A request fails when it
// is refused, answers non-2xx, or disagrees with the oracle.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 10 {
			t.notes = append(t.notes, n)
		}
	}
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// E2E holds the end-to-end metrics, always measured with tracing
	// off. Layer holds the per-layer metrics the run could take; the
	// ladder ones are present only in a traced run.
	E2E   metrics `json:"end_to_end"`
	Layer metrics `json:"per_layer"`
	// Samples is the sample count behind each timing metric.
	Samples    map[string]int `json:"samples"`
	HostBefore hostCal        `json:"host_before"`
	HostAfter  hostCal        `json:"host_after"`
	// Noisy marks a run during which the host calibration drifted by
	// more than noisyDrift; its timings deserve suspicion.
	Noisy bool `json:"noisy"`

	ladderIn *ladderInput // what the traced run replays; nil for untraced runs
}

func newResult(workload string, seed int64) *runResult {
	return &runResult{Workload: workload, Seed: seed, E2E: metrics{}, Layer: metrics{}, Samples: map[string]int{}}
}

func (r *runResult) finish(t tally, before, after hostCal) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.notes
	r.Correct = t.failed == 0
	r.HostBefore, r.HostAfter = before, after
	d := drift(before, after)
	r.Noisy = d > noisyDrift
	r.Layer.set("host.spin_ns", after.SpinNs, "ns")
	r.Layer.set("host.fsync_ms", after.FsyncMs, "ms")
	r.Layer.set("host.loopback_rtt_us", after.LoopbackRTTUs, "us")
	r.Layer.set("host.drift_frac", d, "frac")
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Tree struct {
		Size int `json:"size"`
	} `json:"tree"`
	Collection struct {
		Objects int64 `json:"objects"`
	} `json:"collection"`
	Shards []struct {
		Size int `json:"size"`
	} `json:"shards"`
	Fanout struct {
		Queries      uint64 `json:"queries"`
		ShardsProbed uint64 `json:"shards_probed"`
		ShardsPruned uint64 `json:"shards_pruned"`
	} `json:"fanout"`
	WAL *struct {
		Appends       int64 `json:"appends"`
		AppendedBytes int64 `json:"appended_bytes"`
		Fsyncs        int64 `json:"fsyncs"`
	} `json:"wal"`
}

func fetchStats(c *conn) (serverStats, error) {
	var st serverStats
	status, body, err := c.do("/stats")
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("GET /stats: HTTP %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// sample is a query response kept for checking after the phase ends, so
// the brute-force scan never slows the closed loop being measured.
type sample struct {
	o    op
	body []byte
}

// readerOut is what one reader connection measured.
type readerOut struct {
	tally
	lat       [numOpKinds]lats // by query kind
	nodes     int64
	respBytes int64
	samples   []sample
	perSecond float64 // median segment throughput
	err       error
}

// runReader issues qs closed-loop, one request in flight, keeping every
// sampleEvery-th response for the oracle.
func runReader(addr string, qs []op, sampleEvery int) (out readerOut) {
	c, err := dial(addr)
	if err != nil {
		out.err = err
		return out
	}
	defer c.close()
	pc := newPace(len(qs) / segments)
	for i, q := range qs {
		c.addQuery(q, pageLimit)
		out.attempted++
		err := c.flush(func(_, status int, body []byte, lat time.Duration) {
			pc.done(1)
			if status != 200 {
				out.fail("%s: HTTP %d: %s", opKindNames[q.kind], status, body)
				return
			}
			out.lat[q.kind].add(lat)
			n, ok := nodesAccessed(body)
			if !ok {
				out.fail("%s: response without nodes_accessed", opKindNames[q.kind])
			}
			out.nodes += int64(n)
			out.respBytes += int64(len(body))
			if i%sampleEvery == 0 {
				out.samples = append(out.samples, sample{q, append([]byte(nil), body...)})
			}
		})
		if err != nil {
			out.err = err
			return out
		}
	}
	out.perSecond = pc.perSecond()
	return out
}

// writerOut is what one writer connection measured.
type writerOut struct {
	tally
	set       lats
	moves     []op    // acknowledged moves in order, for the control
	perSecond float64 // median segment throughput
	err       error
}

// runWriter random-walks the connection's objects with pipelined SETs:
// exactly n of them, or — when n is 0 — until stop is set. Latency is
// timed from the batch write to each response read.
func runWriter(addr string, keys []string, wk *walker, n int, stop *atomic.Bool) (out writerOut) {
	c, err := dial(addr)
	if err != nil {
		out.err = err
		return out
	}
	defer c.close()
	// A writer that churns until told to stop does not know its count:
	// its segments are a few hundred SETs, a tenth of a second or so.
	pc := newPace(max(n/segments, 400))
	for sent := 0; (n > 0 && sent < n) || (n == 0 && !stop.Load()); {
		depth := writeDepth
		if n > 0 && n-sent < depth {
			depth = n - sent
		}
		for j := 0; j < depth; j++ {
			o := wk.next()
			c.addSet(keys[o.key], o.rect)
		}
		sent += depth
		out.attempted += depth
		err := c.flush(func(_, status int, body []byte, lat time.Duration) {
			if status != 200 {
				out.fail("set: HTTP %d: %s", status, body)
				return
			}
			out.set.add(lat)
		})
		if err != nil {
			out.err = err
			return out
		}
		pc.done(depth)
		out.moves = append(out.moves, wk.staged...)
		wk.commit()
	}
	out.perSecond = pc.perSecond()
	return out
}

// preload SETs every object once over pipelined connections, connection
// c of n placing objects c, c+n, … in index order. With one connection
// there is one insertion order, so the tree the queries later walk — and
// with it every node-access count — is the same on every run of a seed.
func preload(addr string, m *model, conns int) (t tally, set lats, perSecond float64, err error) {
	type out struct {
		tally
		set       lats
		perSecond float64
		err       error
	}
	outs := make([]out, conns)
	var wg sync.WaitGroup
	for ci := range outs {
		wg.Add(1)
		go func(o *out, first int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				o.err = err
				return
			}
			defer c.close()
			pc := newPace(len(m.keys) / conns / segments)
			defer func() { o.perSecond = pc.perSecond() }()
			for i := first; i < len(m.keys); {
				for ; i < len(m.keys) && c.queued < loadDepth; i += conns {
					c.addSet(m.keys[i], m.rects[i])
				}
				o.attempted += c.queued
				pc.done(c.queued)
				o.err = c.flush(func(_, status int, body []byte, lat time.Duration) {
					if status != 200 {
						o.fail("preload set: HTTP %d: %s", status, body)
						return
					}
					o.set.add(lat)
				})
				if o.err != nil {
					return
				}
			}
		}(&outs[ci], ci)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return t, nil, 0, o.err
		}
		t.merge(o.tally)
		set = append(set, o.set...)
		perSecond += o.perSecond
	}
	return t, set, perSecond, nil
}

// batteryOut is what the quiescent quality battery measured.
type batteryOut struct {
	tally
	lat              [numOpKinds]lats // by query kind
	order            lats             // every latency, in arrival order
	nodes, respBytes int64
	rnaRange, rnaKNN float64
}

// runBattery issues a fixed query set on one connection while nothing
// writes, checks answers against the model, and relates the server's
// node accesses to the control tree's query by query (the paper's RNA).
func runBattery(addr string, qs []op, m *model, ct *control, checkEvery int) (out batteryOut, err error) {
	c, err := dial(addr)
	if err != nil {
		return out, err
	}
	defer c.close()
	var sumRange, sumKNN float64
	var nRange, nKNN int
	for i, q := range qs {
		c.addQuery(q, pageLimit)
		out.attempted++
		err := c.flush(func(_, status int, body []byte, lat time.Duration) {
			out.order.add(lat)
			if status != 200 {
				out.fail("battery %s: HTTP %d: %s", opKindNames[q.kind], status, body)
				return
			}
			n, _ := nodesAccessed(body)
			out.nodes += int64(n)
			out.respBytes += int64(len(body))
			out.lat[q.kind].add(lat)
			ratio := ct.ratio(q, n)
			if q.kind == opKNN {
				sumKNN, nKNN = sumKNN+ratio, nKNN+1
			} else {
				sumRange, nRange = sumRange+ratio, nRange+1
			}
			if i%checkEvery == 0 {
				if err := m.check(q, pageLimit, body); err != nil {
					out.fail("battery: %v", err)
				}
			}
		})
		if err != nil {
			return out, err
		}
	}
	out.rnaRange, out.rnaKNN = sumRange/float64(nRange), sumKNN/float64(nKNN)
	return out, nil
}

// verifyKeys GETs every stride-th key and compares the stored rect with
// the last acknowledged one.
func verifyKeys(addr string, m *model, stride int) (t tally, err error) {
	c, err := dial(addr)
	if err != nil {
		return t, err
	}
	defer c.close()
	var batch []int
	for i := 0; i < len(m.keys); {
		batch = batch[:0]
		for ; i < len(m.keys) && len(batch) < loadDepth; i += stride {
			c.addGet("/get?key=" + m.keys[i])
			batch = append(batch, i)
		}
		t.attempted += len(batch)
		err := c.flush(func(j, status int, body []byte, _ time.Duration) {
			var got struct {
				Rect [4]float64 `json:"rect"`
			}
			want := wireRect(m.rects[batch[j]])
			if status != 200 {
				t.fail("get %s after recovery: HTTP %d", m.keys[batch[j]], status)
			} else if err := json.Unmarshal(body, &got); err != nil || got.Rect != want {
				t.fail("get %s after recovery: %s, acknowledged %v", m.keys[batch[j]], body, want)
			}
		})
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// phaseOut is what the connections of a measured phase measured together.
type phaseOut struct {
	tally
	qLat             [numOpKinds]lats
	set              lats
	nodes, respBytes int64
	samples          []sample
	moves            [][]op  // acknowledged moves, per writer
	queriesPerSecond float64 // the readers' median segment throughputs, summed
	setsPerSecond    float64 // the writers'
}

// measure runs the measured phase: readers and writers concurrently,
// each on its own connection. The readers share queries round-robin;
// the writers share sets evenly or, when sets is 0, churn until the
// readers finish.
func measure(addr string, m *model, queries []op, readers, writers, sets int, seed int64) (out phaseOut, err error) {
	var (
		readersWG, writersWG sync.WaitGroup
		readersDone          atomic.Bool
		rOut                 = make([]readerOut, readers)
		wOut                 = make([]writerOut, writers)
	)
	for r := range rOut {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			share := make([]op, 0, len(queries)/readers+1)
			for i := r; i < len(queries); i += readers {
				share = append(share, queries[i])
			}
			rOut[r] = runReader(addr, share, 100)
		}(r)
	}
	for w := range wOut {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			wOut[w] = runWriter(addr, m.keys, newWalker(m.rects, w, writers, seed), sets/writers, &readersDone)
		}(w)
	}
	readersWG.Wait()
	readersDone.Store(true)
	writersWG.Wait()

	for _, o := range rOut {
		if o.err != nil {
			return out, fmt.Errorf("reader: %w", o.err)
		}
		out.merge(o.tally)
		for k := range out.qLat {
			out.qLat[k] = append(out.qLat[k], o.lat[k]...)
		}
		out.nodes, out.respBytes = out.nodes+o.nodes, out.respBytes+o.respBytes
		out.samples = append(out.samples, o.samples...)
		out.queriesPerSecond += o.perSecond
	}
	for _, o := range wOut {
		if o.err != nil {
			return out, fmt.Errorf("writer: %w", o.err)
		}
		out.merge(o.tally)
		out.set = append(out.set, o.set...)
		out.moves = append(out.moves, o.moves)
		out.setsPerSecond += o.perSecond
	}
	return out, nil
}

// checkCount compares the object counts /stats reports with the model's.
func checkCount(t *tally, st serverStats, want int, when string) {
	t.attempted++
	if st.Collection.Objects != int64(want) || st.Tree.Size != want {
		t.fail("%s /stats reports %d keyed objects in a tree of %d; the model has %d", when, st.Collection.Objects, st.Tree.Size, want)
	}
}

// runServing runs one of the three serving workloads against a real
// rlr-serve child process over loopback HTTP.
func runServing(e *env, workload string, seed int64, sz sizes, bin, bundle string) (*runResult, error) {
	res := newResult(workload, seed)
	work := filepath.Join(e.out, "run-"+workload)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// query_serve runs without a log and recovers from the snapshot a
	// graceful shutdown writes; the other two log every SET, group-commit
	// with fsync=interval, and recover from kill -9 by replay. The log
	// makes a connection's SETs wait for their commits one after another,
	// so the durable workloads place objects over both connections;
	// query_serve keeps one, and with it one tree per seed.
	readers, writers, durable, loadConns := 2, 0, false, 1
	switch workload {
	case wlMovingDurable:
		readers, writers, durable, loadConns = 0, 2, true, 2
	case wlMixedRW:
		readers, writers, durable, loadConns = 1, 1, true, 2
	}
	args := []string{"-shards", "4", "-policy", bundle, "-policy-kind", "table"}
	if durable {
		args = append(args, "-wal-dir", filepath.Join(work, "wal"), "-wal-fsync", "interval")
	} else {
		args = append(args, "-snapshot", filepath.Join(work, "snapshot.bin"))
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(e.out, "serve-"+workload+".log")
	os.Remove(logPath)

	// Set-up: inputs from the seed, server start, preload.
	var all tally
	setupStart := time.Now()
	rects, err := genObjects(sz.objects, seed)
	if err != nil {
		return nil, err
	}
	initial := append([]geom.Rect(nil), rects...) // the writers walk rects itself
	m := &model{keys: keyNames(sz.objects), rects: rects}
	queries := genQueries(sz.queries, seed+1)
	battery := genQueries(sz.battery, seed+2)
	srv, err := startServer(bin, addr, logPath, args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
	}()
	loadTally, loadLats, loadPerSecond, err := preload(addr, m, loadConns)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	all.merge(loadTally)
	res.E2E.set("setup_s", time.Since(setupStart).Seconds(), "s")

	ct := newControl(rects, seed)
	ct.load(0, len(rects))
	statsConn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer statsConn.close()
	before, err := calibrate(work, addr)
	if err != nil {
		return nil, err
	}
	st0, err := fetchStats(statsConn)
	if err != nil {
		return nil, err
	}

	ph, err := measure(addr, m, queries, readers, writers, sz.sets, seed+3)
	if err != nil {
		return nil, err
	}
	all.merge(ph.tally)
	st1, err := fetchStats(statsConn)
	if err != nil {
		return nil, err
	}
	checkCount(&all, st1, sz.objects, "after the measured phase")

	// The 1% sample: exact against the model where nothing moved during
	// the phase, self-consistent where a writer was running.
	for _, s := range ph.samples {
		var err error
		if writers == 0 {
			err = m.check(s.o, pageLimit, s.body)
		} else {
			err = checkShape(s.o, pageLimit, s.body)
		}
		if err != nil {
			all.fail("sampled response: %v", err)
		}
	}

	// Write metrics come from the measured writers, or — on query_serve,
	// which has none — from the preload, the same SET path without a log.
	set, setsPerSecond := ph.set, ph.setsPerSecond
	if writers == 0 {
		set, setsPerSecond = loadLats, loadPerSecond
	} else if err := ct.move(ph.moves...); err != nil {
		return nil, err
	}
	res.E2E.set("sets_per_s", setsPerSecond, "1/s")
	res.E2E.set("set_p50_ms", set.ms(0.50), "ms")
	res.Layer.set("set_p99_ms", set.ms(0.99), "ms")
	res.Samples["set_p50_ms"], res.Samples["set_p99_ms"] = len(set), len(set)
	res.E2E.set("insert_cost_ratio", 1/setsPerSecond/ct.secondsPerWrite(), "ratio")

	// The battery runs on the quiescent server every workload ends with.
	checkEvery := max(1, sz.objects/20_000)
	bat, err := runBattery(addr, battery, m, ct, checkEvery)
	if err != nil {
		return nil, fmt.Errorf("battery: %w", err)
	}
	all.merge(bat.tally)
	res.E2E.set("rna_range", bat.rnaRange, "ratio")
	res.E2E.set("rna_knn", bat.rnaKNN, "ratio")

	// Query metrics come from the measured readers, or — on
	// moving_durable, which has none — from the battery.
	qLat, nodes, respBytes, queriesPerSecond := ph.qLat, ph.nodes, ph.respBytes, ph.queriesPerSecond
	if readers == 0 {
		// The oracle's scans run between the battery's requests, so its
		// rate is taken over the time a request was in flight.
		qLat, nodes, respBytes, queriesPerSecond = bat.lat, bat.nodes, bat.respBytes, busyRate(bat.order)
	}
	search, knn := concat(qLat[opSmall], qLat[opLarge]), qLat[opKNN]
	qCount := float64(len(search) + len(knn))
	res.E2E.set("queries_per_s", queriesPerSecond, "1/s")
	res.E2E.set("search_p50_ms", search.ms(0.50), "ms")
	res.Layer.set("search_p99_ms", search.ms(0.99), "ms")
	res.E2E.set("knn_p50_ms", knn.ms(0.50), "ms")
	res.E2E.set("nodes_per_query", float64(nodes)/qCount, "count")
	res.Samples["search_p50_ms"], res.Samples["search_p99_ms"], res.Samples["knn_p50_ms"] = len(search), len(search), len(knn)

	st2, err := fetchStats(statsConn)
	if err != nil {
		return nil, err
	}
	rss, err := srv.rssMB()
	if err != nil {
		return nil, err
	}
	res.E2E.set("rss_mb", rss, "MiB")
	after, err := calibrate(work, addr)
	if err != nil {
		return nil, err
	}

	// Layer counters the server itself keeps, as deltas: fan-out over
	// the measured phase and the battery, the log over the measured phase.
	if fq := st2.Fanout.Queries - st0.Fanout.Queries; fq > 0 {
		probed, pruned := float64(st2.Fanout.ShardsProbed-st0.Fanout.ShardsProbed), float64(st2.Fanout.ShardsPruned-st0.Fanout.ShardsPruned)
		res.Layer.set("shard.probed_per_query", probed/float64(fq), "count")
		res.Layer.set("shard.pruned_frac", pruned/(probed+pruned), "frac")
	}
	maxShard := 0
	for _, sh := range st2.Shards {
		maxShard = max(maxShard, sh.Size)
	}
	res.Layer.set("shard.imbalance", float64(maxShard*len(st2.Shards))/float64(sz.objects), "ratio")
	res.Layer.set("server.resp_bytes_per_query", float64(respBytes)/qCount, "B")
	if st1.WAL != nil && st1.WAL.Appends > st0.WAL.Appends && st1.WAL.Fsyncs > st0.WAL.Fsyncs {
		appends := float64(st1.WAL.Appends - st0.WAL.Appends)
		res.Layer.set("wal.sets_per_fsync", appends/float64(st1.WAL.Fsyncs-st0.WAL.Fsyncs), "count")
		res.Layer.set("wal.bytes_per_set", float64(st1.WAL.AppendedBytes-st0.WAL.AppendedBytes)/appends, "B")
	}

	// Recovery: crash the server (or, without a log, shut it down), restart
	// it on the same directory, and time exec → healthy → count verified.
	// Three times over — a replay recovers the same log each time — and
	// the median reported; the keys are verified on the last.
	statsConn.close()
	var recovers []float64
	for i := 0; i < 3; i++ {
		if durable {
			srv.stop(syscall.SIGKILL)
		} else {
			srv.stop(syscall.SIGTERM)
		}
		recoverStart := time.Now()
		if srv, err = startServer(bin, addr, logPath, args...); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		rc, err := dial(addr)
		if err != nil {
			return nil, err
		}
		st, err := fetchStats(rc)
		rc.close()
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, time.Since(recoverStart).Seconds())
		checkCount(&all, st, sz.objects, "after recovery")
	}
	res.E2E.set("recover_s", median(recovers), "s")
	vt, err := verifyKeys(addr, m, sz.verify)
	if err != nil {
		return nil, fmt.Errorf("verify after recovery: %w", err)
	}
	all.merge(vt)

	res.Layer.set("server.errors", float64(all.failed), "count")
	res.finish(all, before, after)
	res.ladderIn = &ladderInput{rects: initial, queries: queries, battery: battery, moves: ph.moves, durable: durable}
	res.ladderIn.e2eP50Us = [numLadderKinds]float64{
		lkInsert: loadLats.us(0.5), lkUpdate: set.us(0.5),
		lkSmall: qLat[opSmall].us(0.5), lkLarge: qLat[opLarge].us(0.5), lkKNN: knn.us(0.5),
	}
	return res, nil
}
