// Command rlr-query builds an index over a CSV dataset — an RLR-Tree when
// a trained policy is supplied, a heuristic baseline otherwise — and runs
// range or KNN queries against it, reporting results and node-access
// statistics.
//
// Usage:
//
//	rlr-query -data objs.csv -policy policy.json -range "0.1,0.1,0.3,0.4"
//	rlr-query -data objs.csv -index rstar -knn "0.5,0.5" -k 10
//	rlr-query -data objs.csv -queries queries.csv            # batch mode
//
// Index kinds for -index: rtree (Guttman), rstar, rrstar. A -policy file
// overrides -index; -policy-kind picks the inference backend among the
// ones the policy file carries (table needs a bundle written by
// rlr-train -distill).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/dataset"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "dataset CSV (required)")
		policyPath  = flag.String("policy", "", "trained RLR-Tree policy JSON")
		policyKind  = flag.String("policy-kind", "auto", "inference backend with -policy: auto, mlp, table")
		indexKind   = flag.String("index", "rtree", "heuristic index when no policy: rtree, rstar, rrstar")
		rangeQ      = flag.String("range", "", "one range query: minx,miny,maxx,maxy")
		knnQ        = flag.String("knn", "", "one KNN query point: x,y")
		k           = flag.Int("k", 10, "K for KNN queries")
		queriesCSV  = flag.String("queries", "", "batch of range queries from CSV (4 columns)")
		maxE        = flag.Int("max-entries", 50, "node capacity M")
		minE        = flag.Int("min-entries", 20, "minimum node fill m")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		cliutil.PrintVersion(os.Stdout, "rlr-query")
		return
	}

	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	data, err := dataset.ReadCSV(*dataPath)
	if err != nil {
		fatal(err)
	}

	tree, name, hot, err := cliutil.BuildIndexPolicy(*policyPath, *policyKind, *indexKind, *maxE, *minE)
	if err != nil {
		fatal(err)
	}
	if hot != nil && hot.Kind() != "heuristic" {
		name = fmt.Sprintf("%s(%s)", name, hot.Kind())
	}
	start := time.Now()
	for i, r := range data {
		tree.Insert(r, i)
	}
	fmt.Fprintf(os.Stderr, "built %s over %d objects in %s (height %d, %d nodes)\n",
		name, tree.Len(), time.Since(start).Round(time.Millisecond), tree.Height(), tree.NodeCount())

	switch {
	case *rangeQ != "":
		q, err := cliutil.ParseRect(*rangeQ)
		if err != nil {
			fatal(err)
		}
		results, stats := tree.Search(q)
		fmt.Printf("range %v: %d results, %d node accesses\n", q, len(results), stats.NodesAccessed)
		for _, id := range results {
			fmt.Printf("  object %v\n", id)
		}
	case *knnQ != "":
		p, err := cliutil.ParsePoint(*knnQ)
		if err != nil {
			fatal(err)
		}
		results, stats := tree.KNN(p, *k)
		fmt.Printf("knn %v k=%d: %d node accesses\n", p, *k, stats.NodesAccessed)
		for _, nb := range results {
			fmt.Printf("  object %v distsq=%g\n", nb.Data, nb.DistSq)
		}
	case *queriesCSV != "":
		queries, err := dataset.ReadCSV(*queriesCSV)
		if err != nil {
			fatal(err)
		}
		var accesses, results int
		start := time.Now()
		for _, q := range queries {
			stats := tree.SearchCount(q)
			accesses += stats.NodesAccessed
			results += stats.Results
		}
		elapsed := time.Since(start)
		fmt.Printf("%d queries: %d results, %d node accesses (%.1f avg), %s total (%.1fµs avg)\n",
			len(queries), results, accesses,
			float64(accesses)/float64(len(queries)),
			elapsed.Round(time.Millisecond),
			float64(elapsed.Microseconds())/float64(len(queries)))
	default:
		fatal(fmt.Errorf("one of -range, -knn, -queries is required"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlr-query:", err)
	os.Exit(1)
}
