package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rlr-tree/rlrtree/internal/core"
)

// policySeed drives training; it is fixed and deliberately not the
// workload seed, so every run of a checkout indexes through the same
// policy whatever -seed says.
const policySeed = 20230618

// bundleMeta is what the traced run reports about the training run that
// produced the cached bundle.
type bundleMeta struct {
	TrainSeconds          float64 `json:"train_s"`
	TrainInsertsPerS      float64 `json:"train_inserts_per_s"`
	TrainRewardQueriesPer float64 `json:"train_reward_queries_per_s"`
	DistillSeconds        float64 `json:"distill_s"`
	TableAgreement        float64 `json:"table_agreement"`
}

// trainingSources are the packages whose code decides what a training
// run produces. The cached bundle is keyed by a hash of their sources, so
// a checkout that changes any of them retrains instead of serving stale
// weights.
var trainingSources = []string{"core", "dataset", "geom", "mlp", "policy", "rl", "rtree"}

func sourceHash(root string) (string, error) {
	h := sha256.New()
	for _, pkg := range trainingSources {
		files, err := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		if err != nil {
			return "", err
		}
		sort.Strings(files)
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.Open(f)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%s\n", filepath.Base(f))
			_, err = io.Copy(h, src)
			src.Close()
			if err != nil {
				return "", err
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6]), nil
}

// ensureBundle returns the path of the trained + distilled policy bundle
// all workloads share, training it on first use in a checkout (GAU
// sample, combined schedule, two reward workers — about a minute at full
// scale) and reusing the cached file afterwards. Training is
// deterministic for a seed, so two checkouts of one commit serve
// bit-identical policies.
func ensureBundle(e *env) (string, bundleMeta, error) {
	var meta bundleMeta
	hash, err := sourceHash(e.root)
	if err != nil {
		return "", meta, fmt.Errorf("hash training sources: %w", err)
	}
	ps := policySizesFor(e.scale)
	path := filepath.Join(e.out, fmt.Sprintf("policy-%s-%s.json", e.scale, hash))
	metaPath := path + ".meta"
	if raw, err := os.ReadFile(metaPath); err == nil {
		if _, err := os.Stat(path); err == nil && json.Unmarshal(raw, &meta) == nil {
			return path, meta, nil
		}
	}

	e.logf("training the shared policy bundle (GAU %d, %d choose + %d split epochs) — once per checkout",
		ps.trainN, ps.chooseEpochs, ps.splitEpochs)
	train, err := genObjects(ps.trainN, policySeed)
	if err != nil {
		return "", meta, err
	}
	pol, report, err := core.TrainCombined(train, core.Config{
		ChooseEpochs: ps.chooseEpochs, SplitEpochs: ps.splitEpochs, Parts: ps.parts,
		Seed: policySeed, Workers: 2,
	})
	if err != nil {
		return "", meta, fmt.Errorf("train policy: %w", err)
	}
	var inserts, rewardQueries int
	for _, ep := range report.Epochs {
		inserts += ep.Inserts
		rewardQueries += ep.RewardQueries
	}
	distillStart := time.Now()
	bundle, dr, err := core.Distill(pol, core.DistillConfig{Data: train, Seed: policySeed})
	if err != nil {
		return "", meta, fmt.Errorf("distill policy: %w", err)
	}
	secs := report.Duration.Seconds()
	meta = bundleMeta{
		TrainSeconds:          secs,
		TrainInsertsPerS:      float64(inserts) / secs,
		TrainRewardQueriesPer: float64(rewardQueries) / secs,
		DistillSeconds:        time.Since(distillStart).Seconds(),
		TableAgreement:        dr.ChooseAgreement,
	}
	// Write to temporaries and rename, bundle last-but-one and meta last,
	// so a run killed mid-write never leaves a file a later run trusts.
	tmp := path + ".tmp"
	if err := bundle.Save(tmp); err != nil {
		return "", meta, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", meta, err
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return "", meta, err
	}
	if err := os.WriteFile(metaPath+".tmp", raw, 0o644); err != nil {
		return "", meta, err
	}
	return path, meta, os.Rename(metaPath+".tmp", metaPath)
}
