// Command rlr-serve runs the HTTP/JSON spatial query service of
// internal/server over an RLR-Tree (with -policy) or a heuristic R-Tree
// baseline (with -index).
//
// Usage:
//
//	rlr-serve -addr :8080 -snapshot tree.gob -snapshot-every 30s
//	rlr-serve -addr :8080 -policy policy.json -snapshot tree.gob
//	rlr-serve -addr :8080 -policy distilled.json -policy-kind table
//	rlr-serve -addr :8080 -shards 4
//	rlr-serve -addr :8080 -snapshot tree.gob -wal-dir ./wal -wal-fsync always
//
// With -policy the insert path decides through a hot-swappable policy
// engine; -policy-kind picks the inference backend (auto, mlp, table —
// table needs a bundle distilled with rlr-train -distill).
// POST /policy swaps the backend (and optionally reloads the bundle
// from disk) without a restart, and /stats grows a "policy" section
// with per-backend insert counters.
//
// With -wal-dir every mutation is appended to a write-ahead log before
// it is applied, so a crash (power loss, kill -9) loses at most the
// writes the fsync policy had not yet made durable; on restart the
// server replays the log past the restored snapshot's LSN. -wal-fsync
// picks the durability/latency trade-off: "always" fsyncs every append,
// "interval" batches fsyncs a few milliseconds apart (group commit),
// "none" leaves flushing to the OS.
//
// With -shards N (N > 1) the server fronts a shard.ShardedTree — N
// independent trees behind a Z-order spatial router with per-shard
// locks, so concurrent inserters stop serializing on one write lock.
// Queries prune shards through per-shard bounds summaries (selective
// queries probe ~1–2 shards instead of all N), and -rebalance-every
// enables background hot-cell migration that adapts the cell→shard
// assignment to the observed workload. /stats then carries a per-shard
// breakdown plus the fan-out counters, and the snapshot records that it
// holds a sharded index (a -shards server refuses a single-tree
// snapshot file, and vice versa, with a "snapshot kind mismatch" error).
//
// On startup the server restores the snapshot file when it exists, so a
// restart resumes with the indexed data intact; on SIGINT/SIGTERM it
// drains in-flight requests and writes a final snapshot. GET /debug/vars
// exposes the standard expvar page including the server's metrics.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/server"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		policyPath  = flag.String("policy", "", "trained RLR-Tree policy JSON")
		policyKind  = flag.String("policy-kind", "auto", "inference backend with -policy: auto, mlp, table")
		indexKind   = flag.String("index", "rtree", "heuristic index when no policy: rtree, rstar, rrstar")
		maxE        = flag.Int("max-entries", 50, "node capacity M")
		minE        = flag.Int("min-entries", 20, "minimum node fill m")
		shards      = flag.Int("shards", 1, "independent index shards (>1 enables the Z-order sharded tree)")
		snapPath    = flag.String("snapshot", "", "snapshot file (restore on start, write on shutdown)")
		snapEvery   = flag.Duration("snapshot-every", 0, "background snapshot interval (0 disables)")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory (empty disables durability logging)")
		walFsync    = flag.String("wal-fsync", "interval", "WAL fsync policy: always, interval, none")
		walSegBytes = flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
		rebalEvery  = flag.Duration("rebalance-every", 0, "background hot-cell rebalance interval for sharded indexes (0 disables)")
		rebalMax    = flag.Int("rebalance-max-cells", server.DefaultRebalanceMaxCells, "maximum cells migrated per rebalance tick")
		reqTimeout  = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request timeout")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
		maxResults  = flag.Int("max-results", server.DefaultMaxResults, "maximum ids per /search response")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (CPU, heap, allocs profiles)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		cliutil.PrintVersion(os.Stdout, "rlr-serve")
		return
	}

	logger := log.New(os.Stderr, "rlr-serve: ", log.LstdFlags)

	opts, name, hot, err := cliutil.IndexOptionsPolicy(*policyPath, *policyKind, *indexKind, *maxE, *minE)
	if err != nil {
		if errors.Is(err, core.ErrPolicyVersionTooNew) {
			logger.Fatalf("%v — rebuild rlr-serve from a newer checkout, or re-train the policy with an rlr-train matching this build", err)
		}
		logger.Fatal(err)
	}
	if hot != nil {
		logger.Printf("policy: %s backend (choose=%s split=%s)", hot.Kind(), hot.Stats().ChooseBackend, hot.Stats().SplitBackend)
	}
	// One restore path for both index kinds: the snapshot's header says
	// which it holds, and LoadSnapshot refuses a file whose kind
	// disagrees with -shards.
	sopts := shard.Options{Shards: *shards, Tree: opts}
	var (
		index      server.Index
		snapLSN    uint64 // WAL LSN the restored snapshot covers (0: replay all)
		keyedPairs []collection.KeyRect
	)
	if *snapPath != "" {
		index, keyedPairs, snapLSN, err = server.LoadSnapshot(*snapPath, sopts)
		switch {
		case err == nil:
			logger.Printf("restored %d objects (%d keyed) from %s", index.Len(), len(keyedPairs), *snapPath)
		case errors.Is(err, os.ErrNotExist):
			logger.Printf("no snapshot at %s, starting empty", *snapPath)
		default:
			logger.Fatal(err)
		}
	}
	if index == nil {
		if *shards > 1 {
			index, err = shard.New(sopts)
		} else {
			var tree *rtree.Tree
			if tree, err = rtree.NewChecked(opts); err == nil {
				index = rtree.NewConcurrent(tree)
			}
		}
		if err != nil {
			logger.Fatal(err)
		}
	}
	if st, ok := index.(*shard.ShardedTree); ok {
		name = fmt.Sprintf("%s[%d shards]", name, st.NumShards())
	}

	// The keyed layer restores from the snapshot's key map over the
	// restored index, then WAL replay applies keyed records through it.
	coll := collection.Restore(index, keyedPairs)

	// The WAL opens after the snapshot restore (its recovery needs the
	// snapshot's LSN) and before the server exists: replay must finish
	// before the first request is admitted.
	var (
		theWAL     *wal.WAL
		autoIDSeed uint64
	)
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			logger.Fatal(err)
		}
		theWAL, err = wal.Open(wal.Options{
			Dir:          *walDir,
			SegmentBytes: *walSegBytes,
			Sync:         policy,
			Epoch:        uint32(*shards),
		})
		if err != nil {
			logger.Fatal(err)
		}
		res, err := server.Recover(theWAL, snapLSN, index, coll, logger.Printf)
		if err != nil {
			logger.Fatal(fmt.Errorf("wal recovery: %w", err))
		}
		autoIDSeed = res.MaxAutoID
		logger.Printf("wal: replayed %d records (%d objects inserted or deleted, %d below snapshot LSN %d) from %s in %s; index holds %d objects",
			res.Stats.Records, res.Stats.Items, res.Stats.Skipped, snapLSN, *walDir, res.Stats.Duration.Round(time.Microsecond), index.Len())
	}

	srv, err := server.New(server.Config{
		Index:          index,
		IndexName:      name,
		SnapshotPath:   *snapPath,
		SnapshotEvery:  *snapEvery,
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
		MaxResults:     *maxResults,
		WAL:            theWAL,
		AutoIDSeed:     autoIDSeed,
		Collection:     coll,
		Policy:         hot,
		Logf:           logger.Printf,

		RebalanceEvery:    *rebalEvery,
		RebalanceMaxCells: *rebalMax,
	})
	if err != nil {
		logger.Fatal(err)
	}
	srv.PublishExpvar()
	srv.Start()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofOn {
		// Mounted outside srv.Handler() so profiles escape the request
		// timeout (a 30 s CPU profile outlives any query deadline).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Printf("pprof enabled on /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("serving %s index on %s (%d objects)", name, *addr, index.Len())

	select {
	case err := <-errCh:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := srv.Close(); err != nil && *snapPath != "" {
		logger.Fatal(err)
	}
	if theWAL != nil {
		if err := theWAL.Close(); err != nil {
			logger.Printf("wal close: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "rlr-serve: bye")
}
