// Command rlr-serve runs the HTTP/JSON spatial query service of
// internal/server over an RLR-Tree (with -policy) or a heuristic R-Tree
// baseline (with -index).
//
// Usage:
//
//	rlr-serve -addr :8080 -snapshot index.snap -snapshot-every 30s
//	rlr-serve -addr :8080 -policy policy.json -snapshot index.snap
//	rlr-serve -addr :8080 -policy distilled.json -policy-kind table
//	rlr-serve -addr :8080 -shards 4
//	rlr-serve -addr :8080 -snapshot index.snap -wal-dir ./wal -wal-fsync always
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
// The served index is always a shard.ShardedTree: -shards N independent
// trees behind a Z-order spatial router with per-shard locks, so
// concurrent writers stop serializing on one write lock (-shards 1 is
// one tree behind the same router). Queries prune shards through
// per-shard bounds summaries (selective queries probe ~1–2 shards
// instead of all N). The router is fixed: cell z of the Z-order grid
// goes to shard z·N/cells. /stats carries a per-shard breakdown plus
// the fan-out counters.
//
// On startup the server restores the snapshot file when it exists, so a
// restart resumes with the indexed data intact. The file's shard count
// and grid win over -shards, which shapes a fresh index
// only. On SIGINT/SIGTERM it drains in-flight requests and writes a
// final snapshot. GET /debug/vars exposes the standard expvar page
// including the server's metrics.
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
		shards      = flag.Int("shards", 1, "independent index shards of a fresh index (a restored snapshot keeps its own count)")
		snapPath    = flag.String("snapshot", "", "snapshot file (restore on start, write on shutdown)")
		snapEvery   = flag.Duration("snapshot-every", 0, "background snapshot interval (0 disables)")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory (empty disables durability logging)")
		walFsync    = flag.String("wal-fsync", "interval", "WAL fsync policy: always, interval, none")
		walSegBytes = flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
		reqTimeout  = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request timeout")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
		maxResults  = flag.Int("max-results", server.DefaultMaxResults, "maximum rows per query page (also caps /knn k)")
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
	var (
		index   *shard.ShardedTree
		snapLSN uint64 // WAL LSN the restored snapshot covers (0: replay all)
	)
	if *snapPath != "" {
		index, snapLSN, err = server.LoadSnapshot(*snapPath, opts)
		switch {
		case err == nil:
			logger.Printf("restored %d objects in %d shards from %s", index.Len(), index.NumShards(), *snapPath)
			if index.NumShards() != *shards {
				logger.Printf("-shards %d ignored: the snapshot holds %d shards", *shards, index.NumShards())
			}
		case errors.Is(err, os.ErrNotExist):
			logger.Printf("no snapshot at %s, starting empty", *snapPath)
		default:
			logger.Fatal(err)
		}
	}
	if index == nil {
		if index, err = shard.New(shard.Options{Shards: *shards, Tree: opts}); err != nil {
			logger.Fatal(err)
		}
	}
	if index.NumShards() > 1 {
		name = fmt.Sprintf("%s[%d shards]", name, index.NumShards())
	}

	// The keyed layer's key map is rebuilt from the index's leaves, then
	// WAL replay applies keyed records through it.
	coll, err := collection.Restore(index)
	if err != nil {
		logger.Fatal(err)
	}

	// The WAL opens after the snapshot restore (its recovery needs the
	// snapshot's LSN) and before the server exists: replay must finish
	// before the first request is admitted.
	var theWAL *wal.WAL
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			logger.Fatal(err)
		}
		theWAL, err = wal.Open(wal.Options{
			Dir:          *walDir,
			SegmentBytes: *walSegBytes,
			Sync:         policy,
			Epoch:        uint32(index.NumShards()),
		})
		if err != nil {
			logger.Fatal(err)
		}
		stats, err := server.Recover(theWAL, snapLSN, coll, logger.Printf)
		if err != nil {
			logger.Fatal(fmt.Errorf("wal recovery: %w", err))
		}
		logger.Printf("wal: replayed %d records (%d applied, %d below snapshot LSN %d) from %s in %s; index holds %d objects",
			stats.Records, stats.Applied, stats.Skipped, snapLSN, *walDir, stats.Duration.Round(time.Microsecond), index.Len())
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
		Collection:     coll,
		Policy:         hot,
		Logf:           logger.Printf,
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
