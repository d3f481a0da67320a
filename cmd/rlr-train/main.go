// Command rlr-train trains RLR-Tree policies and writes them to a JSON
// policy file loadable by the library and by rlr-query.
//
// Usage:
//
//	rlr-train -data train.csv -out policy.json            # combined (paper's RLR-Tree)
//	rlr-train -kind GAU -n 100000 -mode choose -out p.json
//	rlr-train -kind GAU -n 100000 -distill -out bundle.json
//
// Training data comes from a CSV file (-data) or a generated dataset
// (-kind/-n). Modes: choose (RL ChooseSubtree only), split (RL Split
// only), combined (alternating training of both agents; the default).
//
// With -distill the trained DQN is additionally compiled into a
// branch-table policy, and the output becomes a v2 policy bundle
// carrying both backends; rlr-serve selects between them with
// -policy-kind. The printed agreement is the fraction of fitted states
// on which the table picks the same action as the MLP it was distilled
// from.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/rlr-tree/rlrtree/internal/cliutil"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "training dataset CSV (2 or 4 columns)")
		kind        = flag.String("kind", "", "generate the training set instead: UNI, GAU, SKE, CHI, IND")
		n           = flag.Int("n", 100_000, "generated training-set size (with -kind)")
		seed        = flag.Int64("seed", 1, "random seed")
		mode        = flag.String("mode", "combined", "training mode: choose, split, combined")
		out         = flag.String("out", "policy.json", "output policy path")
		k           = flag.Int("k", core.DefaultK, "action-space size k")
		p           = flag.Int("p", core.DefaultP, "insertions per reward computation")
		queryFrac   = flag.Float64("train-query", core.DefaultTrainingQueryFrac, "training query area fraction")
		chooseEp    = flag.Int("choose-epochs", core.DefaultChooseEpochs, "ChooseSubtree training epochs")
		splitEp     = flag.Int("split-epochs", core.DefaultSplitEpochs, "Split training epochs")
		parts       = flag.Int("parts", core.DefaultParts, "dataset slices for Split training")
		maxE        = flag.Int("max-entries", 50, "node capacity M")
		minE        = flag.Int("min-entries", 20, "minimum node fill m")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "goroutines for reward evaluation (1 = sequential; policy is identical either way)")
		distill     = flag.Bool("distill", false, "distill the trained DQN into a branch-table backend (writes a v2 bundle)")
		distillDep  = flag.Int("distill-depth", 0, "max branch-table depth (0 = distiller default)")
		distillSamp = flag.Int("distill-samples", 0, "synthetic states per operation for distillation (0 = distiller default)")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		cliutil.PrintVersion(os.Stdout, "rlr-train")
		return
	}

	var (
		train []geom.Rect
		err   error
	)
	switch {
	case *dataPath != "":
		train, err = dataset.ReadCSV(*dataPath)
	case *kind != "":
		train, err = dataset.Generate(dataset.Kind(*kind), *n, *seed)
	default:
		err = fmt.Errorf("one of -data or -kind is required")
	}
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		K: *k, P: *p,
		TrainingQueryFrac: *queryFrac,
		ChooseEpochs:      *chooseEp, SplitEpochs: *splitEp, Parts: *parts,
		MaxEntries: *maxE, MinEntries: *minE,
		Seed:    *seed,
		Workers: *workers,
	}
	if !*quiet {
		cfg.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "# "+msg) }
	}

	var (
		pol    *core.Policy
		report *core.TrainReport
	)
	switch *mode {
	case "choose":
		pol, report, err = core.TrainChoosePolicy(train, cfg)
	case "split":
		pol, report, err = core.TrainSplitPolicy(train, cfg)
	case "combined":
		pol, report, err = core.TrainCombined(train, cfg)
	default:
		err = fmt.Errorf("unknown mode %q (choose, split, combined)", *mode)
	}
	if err != nil {
		fatal(err)
	}
	if *distill {
		bundle, dr, err := core.Distill(pol, core.DistillConfig{
			MaxDepth: *distillDep,
			Samples:  *distillSamp,
			Data:     train,
			Seed:     *seed,
		})
		if err != nil {
			fatal(err)
		}
		if err := bundle.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "distilled: choose table agreement %.4f over %d states\n",
			dr.ChooseAgreement, dr.ChooseStates)
		if pol.SplitNet != nil {
			fmt.Fprintf(os.Stderr, "distilled: split table agreement %.4f over %d states\n",
				dr.SplitAgreement, dr.SplitStates)
		}
	} else if err := pol.Save(*out); err != nil {
		fatal(err)
	}
	var inserts, rewardQueries int
	for _, ep := range report.Epochs {
		inserts += ep.Inserts
		rewardQueries += ep.RewardQueries
	}
	secs := report.Duration.Seconds()
	if secs > 0 {
		fmt.Fprintf(os.Stderr, "throughput: %.0f inserts/s, %.0f reward-queries/s (workers=%d)\n",
			float64(inserts)/secs, float64(rewardQueries)/secs, *workers)
	}
	fmt.Fprintf(os.Stderr, "trained %s policy on %d objects in %s (%d+%d updates); wrote %s\n",
		*mode, len(train), report.Duration.Round(1e6), report.ChooseUpdates, report.SplitUpdates, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlr-train:", err)
	os.Exit(1)
}
