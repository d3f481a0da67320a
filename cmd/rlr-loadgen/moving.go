package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

// The moving-objects scenario: the fleet-tracking workload the keyed
// API exists for. Phase 1 SETs n keyed objects at dataset-generated
// positions; phase 2 random-walks them with POST /set for the given
// duration — every update replaces the key's previous position, so the
// server's object count must hold exactly steady while the sets counter
// climbs. Each worker owns a disjoint subset of the keys (no two
// workers move the same object), matching real trackers where one
// device reports one vehicle.
//
// Updates ride a pipelined HTTP/1.1 connection per worker: `pipeline`
// requests are serialized into one buffer, written with one syscall,
// and the responses read back in order. net/http's client cannot
// pipeline and pays several goroutine handoffs per request — on a
// single-core bench box that transport overhead, not the server,
// becomes the throughput ceiling.

// collCounters mirrors the /stats "collection" section.
type collCounters struct {
	Objects        int64  `json:"objects"`
	Sets           uint64 `json:"sets"`
	UpdatesInPlace uint64 `json:"updates_in_place"`
	Dels           uint64 `json:"dels"`
}

func fetchCollection(client *http.Client, addr string) (collCounters, error) {
	resp, err := client.Get(addr + "/stats")
	if err != nil {
		return collCounters{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return collCounters{}, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Collection collCounters `json:"collection"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return collCounters{}, err
	}
	return body.Collection, nil
}

// pipeConn is a hand-rolled pipelined HTTP/1.1 client connection: batch
// POST /set requests into one write, then parse the responses in order.
type pipeConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	buf  []byte // request batch under construction
	body []byte // scratch for one JSON body
}

func dialPipe(addr string) (*pipeConn, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("bad addr %q: %w", addr, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("moving scenario needs plain http, got %q", u.Scheme)
	}
	c, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	return &pipeConn{
		c:    c,
		br:   bufio.NewReaderSize(c, 16<<10),
		host: u.Host,
	}, nil
}

func (p *pipeConn) close() { p.c.Close() }

// addSet appends one POST /set request for key@r to the batch buffer.
func (p *pipeConn) addSet(key string, r geom.Rect) {
	b := p.body[:0]
	b = append(b, `{"key":"`...)
	b = append(b, key...) // loadgen keys are letters, digits and '-': no JSON escaping needed
	b = append(b, `","rect":[`...)
	b = strconv.AppendFloat(b, r.MinX, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MinY, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MaxX, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MaxY, 'g', -1, 64)
	b = append(b, "]}"...)
	p.body = b

	p.buf = append(p.buf, "POST /set HTTP/1.1\r\nHost: "...)
	p.buf = append(p.buf, p.host...)
	p.buf = append(p.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	p.buf = strconv.AppendInt(p.buf, int64(len(b)), 10)
	p.buf = append(p.buf, "\r\n\r\n"...)
	p.buf = append(p.buf, b...)
}

// flush writes the batch and reads n responses, returning how many came
// back 200. A transport error is fatal for the connection.
func (p *pipeConn) flush(n int) (ok int, err error) {
	if _, err := p.c.Write(p.buf); err != nil {
		return 0, err
	}
	p.buf = p.buf[:0]
	for i := 0; i < n; i++ {
		status, err := p.readResponse()
		if err != nil {
			return ok, fmt.Errorf("read pipelined response %d/%d: %w", i+1, n, err)
		}
		if status == http.StatusOK {
			ok++
		}
	}
	return ok, nil
}

// readResponse parses one keep-alive HTTP/1.1 response just enough to
// keep the stream framed: status code, Content-Length, discard body.
// http.ReadResponse would allocate a Response and a header map per
// call — at tens of thousands of responses a second on a shared core
// that allocation churn is the load generator stealing CPU from the
// server under test.
func (p *pipeConn) readResponse() (status int, err error) {
	line, err := p.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n" — the code sits at bytes 9..12.
	if len(line) < 12 || string(line[:5]) != "HTTP/" {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("malformed status line %q", line)
		}
		status = status*10 + int(c-'0')
	}
	contentLength := -1
	for {
		h, err := p.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(h) <= 2 { // bare "\r\n": end of headers
			break
		}
		const clPrefix = "Content-Length:"
		if len(h) > len(clPrefix) && string(h[:len(clPrefix)]) == clPrefix {
			v := 0
			for _, c := range h[len(clPrefix):] {
				if c >= '0' && c <= '9' {
					v = v*10 + int(c-'0')
				}
			}
			contentLength = v
		} else if len(h) >= 26 && string(h[:17]) == "Transfer-Encoding" {
			return 0, fmt.Errorf("unexpected chunked response")
		}
	}
	if contentLength < 0 {
		return 0, fmt.Errorf("response without Content-Length")
	}
	if _, err := p.br.Discard(contentLength); err != nil {
		return 0, err
	}
	return status, nil
}

// place SETs keys[i] at positions[i] over conns pipelined connections,
// depth requests per write; connection c owns keys c, c+conns, .... It
// returns the first transport error or rejected SET.
func place(addr string, keys []string, positions []geom.Rect, conns, depth int) error {
	conns = max(1, min(conns, len(keys)))
	depth = max(1, depth)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc, err := dialPipe(addr)
			if err != nil {
				errs <- err
				return
			}
			defer pc.close()
			pending := 0
			flush := func() error {
				ok, err := pc.flush(pending)
				if err != nil {
					return err
				}
				if ok != pending {
					return fmt.Errorf("placement: %d of %d SETs rejected", pending-ok, pending)
				}
				pending = 0
				return nil
			}
			for i := c; i < len(keys); i += conns {
				pc.addSet(keys[i], positions[i])
				if pending++; pending == depth {
					if err := flush(); err != nil {
						errs <- err
						return
					}
				}
			}
			if pending > 0 {
				if err := flush(); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func movingScenario(client *http.Client, addr, kind string, n, workers, depth int, rate float64, duration time.Duration, seed int64) error {
	if workers < 1 {
		workers = 1
	}
	if n < workers {
		workers = n
	}
	if depth < 1 {
		depth = 1
	}
	positions, err := dataset.Generate(dataset.Kind(kind), n, seed)
	if err != nil {
		return err
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("mv-%06d", i)
	}
	if _, err := fetchCollection(client, addr); err != nil {
		return fmt.Errorf("moving: server has no /stats collection section (too old?): %w", err)
	}

	// Phase 1: place the fleet through the same pipelined SET path the
	// churn phase measures (there is deliberately no batch endpoint — the
	// scenario exists to exercise per-update cost).
	placeStart := time.Now()
	if err := place(addr, keys, positions, workers, depth); err != nil {
		return err
	}
	fmt.Printf("moving: placed %d keyed objects (%s) in %s\n",
		n, kind, time.Since(placeStart).Round(time.Millisecond))

	// Churn baseline taken AFTER placement: re-running against a server
	// that already holds these keys turns placements into moves, so the
	// only counters with a fixed contract are the churn-phase deltas.
	mid, err := fetchCollection(client, addr)
	if err != nil {
		return err
	}
	if mid.Objects < int64(n) {
		return fmt.Errorf("moving: %d objects after placing %d — SETs were dropped", mid.Objects, n)
	}

	// Phase 2: random-walk churn. Worker w owns keys[w], keys[w+workers],
	// ... and paces its own stream at rate/workers updates/s. Latency is
	// batch round-trip: the time from the pipelined write until each
	// response in the batch is parsed.
	var (
		wg       sync.WaitGroup
		errs     = make(chan error, workers)
		latMu    sync.Mutex
		allLats  []time.Duration
		updates  int64
		failures int64
	)
	perBatch := time.Duration(0)
	if rate > 0 {
		perBatch = time.Duration(float64(time.Second) * float64(workers*depth) / rate)
	}
	churnStart := time.Now()
	deadline := churnStart.Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pc, err := dialPipe(addr)
			if err != nil {
				errs <- err
				return
			}
			defer pc.close()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			lats := make([]time.Duration, 0, 4096)
			var done, failed int64
			owned := (n - w + workers - 1) / workers
			batch := make([]int, 0, depth)
			staged := make([]geom.Rect, 0, depth)
			next := churnStart
			for time.Now().Before(deadline) {
				if perBatch > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(perBatch)
				}
				batch = batch[:0]
				staged = staged[:0]
				for len(batch) < depth {
					i := w + rng.Intn(owned)*workers
					r := positions[i]
					// Random-walk step, ~1% of the unit square per move,
					// reflecting off the world edges.
					w2, h := r.Width(), r.Height()
					cx := clampWalk(r.MinX+(rng.Float64()-0.5)*0.02, 1-w2)
					cy := clampWalk(r.MinY+(rng.Float64()-0.5)*0.02, 1-h)
					r = geom.Rect{MinX: cx, MinY: cy, MaxX: cx + w2, MaxY: cy + h}
					pc.addSet(keys[i], r)
					batch = append(batch, i)
					staged = append(staged, r)
				}
				start := time.Now()
				ok, err := pc.flush(len(batch))
				if err != nil {
					errs <- err
					return
				}
				rtt := time.Since(start)
				for k := 0; k < ok; k++ {
					positions[batch[k]] = staged[k] // owned by this worker: no race
					lats = append(lats, rtt)
				}
				done += int64(ok)
				failed += int64(len(batch) - ok)
			}
			latMu.Lock()
			allLats = append(allLats, lats...)
			updates += done
			failures += failed
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	elapsed := time.Since(churnStart)

	if len(allLats) == 0 {
		return fmt.Errorf("moving: all %d update attempts failed", failures)
	}
	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	var total time.Duration
	for _, l := range allLats {
		total += l
	}
	ups := float64(updates) / elapsed.Seconds()
	fmt.Printf("moving: %d updates, %d errors in %s — %.0f updates/s (%d conns × pipeline %d)",
		updates, failures, elapsed.Round(time.Millisecond), ups, workers, depth)
	if rate > 0 {
		fmt.Printf(" (target %.0f)", rate)
	}
	fmt.Println()
	fmt.Printf("        batch rtt avg %s  p50 %s  p90 %s  p99 %s  max %s\n",
		(total / time.Duration(len(allLats))).Round(time.Microsecond),
		percentile(allLats, 0.50).Round(time.Microsecond),
		percentile(allLats, 0.90).Round(time.Microsecond),
		percentile(allLats, 0.99).Round(time.Microsecond),
		allLats[len(allLats)-1].Round(time.Microsecond))

	// The churn invariant: updates moved objects, they did not create or
	// destroy them.
	after, err := fetchCollection(client, addr)
	if err != nil {
		return err
	}
	fmt.Printf("        /stats collection: objects %d, sets +%d, updates_in_place +%d\n",
		after.Objects, after.Sets-mid.Sets, after.UpdatesInPlace-mid.UpdatesInPlace)
	if after.Objects != mid.Objects {
		return fmt.Errorf("moving: object count drifted during churn: %d before, %d after — SET leaked or lost objects",
			mid.Objects, after.Objects)
	}
	if got := after.Sets - mid.Sets; got != uint64(updates) {
		return fmt.Errorf("moving: sets counter grew %d, want %d (acknowledged updates)", got, updates)
	}
	// Every churn SET replaced an existing key, so each one must have
	// counted as an in-place update.
	if got := after.UpdatesInPlace - mid.UpdatesInPlace; got != uint64(updates) {
		return fmt.Errorf("moving: updates_in_place grew %d, want %d", got, updates)
	}
	return nil
}

// clampWalk keeps a random-walk coordinate inside [0, max], reflecting
// small overshoots off the boundary.
func clampWalk(v, max float64) float64 {
	if v < 0 {
		v = -v
	}
	if v > max {
		v = max - (v - max)
	}
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}
