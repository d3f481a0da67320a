// Command rlr-inspect builds an index over a CSV dataset and reports its
// structure: per-level node counts and fills, total MBR area and sibling
// overlap, memory footprint — and optionally renders the bounding-box
// hierarchy as an SVG, the quickest way to see why one construction policy
// beats another.
//
// The `wal` subcommand instead inspects a write-ahead log directory
// written by rlr-serve -wal-dir: per-segment LSN ranges, record counts
// by type, CRC verification, and the torn-tail report (what a recovery
// would truncate) — without modifying anything.
//
// The `policy` subcommand dumps a policy file: format version, tree
// parameters, which inference backends the bundle carries (MLP,
// distilled branch table) with their shapes and sizes,
// and the file's sha256 — the quickest way to check what a serve
// deployment will actually load.
//
// Usage:
//
//	rlr-inspect -data objs.csv -index rstar
//	rlr-inspect -data objs.csv -policy policy.json -svg tree.svg -svg-level 2
//	rlr-inspect wal -dir ./wal
//	rlr-inspect wal -dir ./wal -records -strict
//	rlr-inspect policy bundle.json
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "wal" {
		walMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "policy" {
		policyMain(os.Args[2:])
		return
	}
	var (
		dataPath    = flag.String("data", "", "dataset CSV (required)")
		policyPath  = flag.String("policy", "", "trained RLR-Tree policy JSON")
		indexKind   = flag.String("index", "rtree", "heuristic index when no policy: rtree, rstar, rrstar")
		maxE        = flag.Int("max-entries", 50, "node capacity M")
		minE        = flag.Int("min-entries", 20, "minimum node fill m")
		svgPath     = flag.String("svg", "", "write an SVG rendering of the MBR hierarchy here")
		svgLevel    = flag.Int("svg-level", 0, "deepest level to draw (0 = all)")
		svgObjects  = flag.Bool("svg-objects", false, "also draw leaf objects in the SVG")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		cliutil.PrintVersion(os.Stdout, "rlr-inspect")
		return
	}

	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	data, err := dataset.ReadCSV(*dataPath)
	if err != nil {
		fatal(err)
	}

	tree, name, err := cliutil.BuildIndex(*policyPath, *indexKind, *maxE, *minE)
	if err != nil {
		fatal(err)
	}
	for i, r := range data {
		tree.Insert(r, i)
	}
	if err := tree.Validate(); err != nil {
		fatal(fmt.Errorf("built tree failed validation: %w", err))
	}

	s := tree.Stats()
	fmt.Printf("index:        %s\n", name)
	fmt.Printf("objects:      %d\n", s.Size)
	fmt.Printf("height:       %d\n", s.Height)
	fmt.Printf("nodes:        %d (%d leaves)\n", s.Nodes, s.Leaves)
	fmt.Printf("avg fill:     %.1f%%\n", s.AvgFill*100)
	fmt.Printf("node area:    %.6g (sum over internal entries)\n", s.TotalArea)
	fmt.Printf("sibling ovlp: %.6g (sum of pairwise overlap)\n", s.TotalOvlp)
	fmt.Printf("memory:       %.1f MB\n", float64(s.MemoryBytes)/(1<<20))
	fmt.Printf("splits:       %d during construction\n", tree.Splits())

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		opts := rtree.SVGOptions{MaxLevel: *svgLevel, IncludeObjects: *svgObjects}
		if err := tree.WriteSVG(f, opts); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("svg:          %s\n", *svgPath)
	}
}

// policyMain is the `rlr-inspect policy` subcommand: a read-only report
// of what a policy file carries — backends, shapes, distillation depth,
// and a content digest for deployment bookkeeping.
func policyMain(args []string) {
	fs := flag.NewFlagSet("rlr-inspect policy", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("policy: exactly one policy file argument is required"))
	}
	path := fs.Arg(0)

	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	bundle, err := core.LoadBundle(path)
	if err != nil {
		if errors.Is(err, core.ErrPolicyVersionTooNew) {
			fatal(fmt.Errorf("%w — rebuild rlr-inspect from a newer checkout", err))
		}
		fatal(err)
	}

	fmt.Printf("file:          %s (%d bytes)\n", path, len(raw))
	fmt.Printf("sha256:        %x\n", sha256.Sum256(raw))
	if bundle.Distilled() {
		fmt.Printf("format:        v2 bundle (distilled)\n")
	} else {
		fmt.Printf("format:        v1 policy (MLP only)\n")
	}
	fmt.Printf("k / M / m:     %d / %d / %d\n", bundle.K, bundle.MaxEntries, bundle.MinEntries)
	fmt.Printf("padded state:  %v\n", bundle.PaddedState)
	fmt.Printf("split by area: %v\n", bundle.SplitSortByArea)

	describeOp := func(op string, net *mlp.Network, tbl *policy.Table) {
		if net == nil {
			fmt.Printf("%-7s        heuristic (no network)\n", op+":")
			return
		}
		fmt.Printf("%-7s        mlp %d->%d (%d params)\n", op+":", net.InputSize(), net.OutputSize(), net.NumParams())
		if tbl != nil {
			fmt.Printf("               table depth %d (%d/%d live internal nodes, %d leaves, %d actions)\n",
				tbl.Depth, tbl.InternalNodes(), len(tbl.Thresh), len(tbl.Leaf), tbl.Actions)
		}
	}
	describeOp("choose", bundle.ChooseNet, bundle.ChooseTable)
	describeOp("split", bundle.SplitNet, bundle.SplitTable)

	kinds := []string{"mlp"}
	if bundle.ChooseTable != nil || bundle.SplitTable != nil {
		kinds = append(kinds, "table")
	}
	fmt.Printf("backends:      %s\n", strings.Join(kinds, " "))
}

// walMain is the `rlr-inspect wal` subcommand: a read-only dump/verify
// pass over a WAL directory. Every frame's CRC is checked; the summary
// reports exactly the records a recovery would replay, so the
// insert_items line doubles as a crash-recovery oracle (the CI smoke
// test compares it against the restarted server's object count).
func walMain(args []string) {
	fs := flag.NewFlagSet("rlr-inspect wal", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "WAL directory written by rlr-serve -wal-dir (required)")
		records = fs.Bool("records", false, "dump every valid record")
		strict  = fs.Bool("strict", false, "exit 1 when the log has torn or unreachable bytes")
	)
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("wal: -dir is required"))
	}

	var (
		total, insertItems, deleteItems int
		setItems, delKeyItems           int
		firstLSN, lastLSN               uint64
	)
	dump := func(rec wal.Record) error {
		total++
		if firstLSN == 0 {
			firstLSN = rec.LSN
		}
		lastLSN = rec.LSN
		switch rec.Type {
		case wal.RecDelete:
			deleteItems++
		case wal.RecSet:
			setItems++
		case wal.RecDelKey:
			delKeyItems++
		default:
			insertItems += len(rec.IDs)
		}
		if *records {
			fmt.Printf("  lsn %-8d %-7s epoch %-3d items %d\n", rec.LSN, recTypeName(rec.Type), rec.Epoch, len(rec.IDs))
		}
		return nil
	}
	infos, err := wal.Inspect(*dir, dump)
	if err != nil {
		fatal(err)
	}
	if len(infos) == 0 {
		fmt.Printf("wal %s: no segments\n", *dir)
		return
	}

	damaged := false
	for _, info := range infos {
		fmt.Printf("segment %s  lsn %d..%d  records %d (%d ins, %d del, %d batch)  items %d  %d bytes\n",
			info.Path, info.FirstLSN, info.LastLSN, info.Records,
			info.Inserts, info.Deletes, info.Batches, info.Items, info.SizeBytes)
		if info.Torn != "" {
			damaged = true
			fmt.Printf("  TORN: %s — recovery keeps %d of %d bytes\n", info.Torn, info.ValidLen, info.SizeBytes)
		}
		if info.Unreachable {
			damaged = true
			fmt.Printf("  UNREACHABLE: an earlier segment is torn or an LSN hole precedes this one; recovery drops it\n")
		}
	}
	fmt.Printf("segments:     %d\n", len(infos))
	fmt.Printf("lsn:          %d..%d\n", firstLSN, lastLSN)
	fmt.Printf("records:      %d\n", total)
	fmt.Printf("insert_items: %d\n", insertItems)
	fmt.Printf("delete_items: %d\n", deleteItems)
	fmt.Printf("set_items:    %d\n", setItems)
	fmt.Printf("delkey_items: %d\n", delKeyItems)
	if damaged && *strict {
		os.Exit(1)
	}
}

func recTypeName(rt wal.RecordType) string {
	switch rt {
	case wal.RecInsert:
		return "insert"
	case wal.RecDelete:
		return "delete"
	case wal.RecInsertBatch:
		return "batch"
	case wal.RecSet:
		return "set"
	case wal.RecDelKey:
		return "del-key"
	default:
		return fmt.Sprintf("type(%d)", rt)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlr-inspect:", err)
	os.Exit(1)
}
