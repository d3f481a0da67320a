// This file's tests gob-encode R-Trees (Tree.Encode). encoding/gob assigns
// wire type IDs from a process-global counter in order of first use, so a
// test that encodes new types BEFORE TestGoldenChoosePolicyDigest would
// shift the IDs inside the policy's gob bytes and break the pinned digest.
// Tests run in file-name order; this file is named to sort after
// golden_policy_test.go. Keep it (and any future gob-encoding test file)
// that way.
package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// trainTinyPolicy trains the same tiny choose policy the golden digest
// test pins, cached across tests in this file.
func trainTinyPolicy(t *testing.T) *Policy {
	t.Helper()
	data := gaussianData(rand.New(rand.NewSource(907)), 900)
	cfg := tinyConfig()
	cfg.Workers = 2
	pol, _, err := TrainChoosePolicy(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// harvestStates replays a workload's inserts through the MLP policy and
// returns the choose states it visited — the "states that matter" set the
// parity figures are measured on.
func harvestStates(pol *Policy, data []geom.Rect) []float64 {
	h := &chooseHarvester{
		eng: policy.NewMLP(pol.ChooseNet), k: pol.K, padded: pol.PaddedState,
		dim: pol.ChooseNet.InputSize(), maxRows: 1 << 20,
	}
	tr := rtree.New(rtree.Options{
		MaxEntries: pol.MaxEntries, MinEntries: pol.MinEntries,
		Chooser: h, Splitter: rtree.MinOverlapSplit{},
	})
	for i, o := range data {
		tr.Insert(o, i)
	}
	return h.states
}

// TestDistillParityGoldenWorkloads is the tentpole pin: distill the tiny
// trained policy, then require ≥95% action agreement between the table and
// the MLP on the states each golden workload distribution actually visits,
// and query I/O (node accesses, the paper's cost metric) of the
// table-built tree within a ±15% noise band of the MLP-built tree with
// identical result counts.
func TestDistillParityGoldenWorkloads(t *testing.T) {
	pol := trainTinyPolicy(t)
	train := gaussianData(rand.New(rand.NewSource(907)), 900)
	bundle, rep, err := Distill(pol, DistillConfig{Data: train, Samples: 40000, MaxDepth: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("distill: %d choose states, table agreement %.4f", rep.ChooseStates, rep.ChooseAgreement)
	if rep.ChooseAgreement < 0.95 {
		t.Fatalf("distill-set agreement %.4f below 0.95", rep.ChooseAgreement)
	}

	mlpEng, err := bundle.ChooseEngine(policy.KindMLP)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dataset.Kind{dataset.UNI, dataset.SKE, dataset.CHI, dataset.GAU} {
		items := dataset.MustGenerate(kind, 2000, 7)
		states := harvestStates(pol, items)
		rate := policy.AgreementRate(mlpEng, bundle.ChooseTable, states, pol.ChooseNet.InputSize())
		t.Logf("%s: %d decision states, table agreement %.4f", kind, len(states)/pol.ChooseNet.InputSize(), rate)
		if rate < 0.95 {
			t.Fatalf("%s workload agreement %.4f below 0.95", kind, rate)
		}

		// Tree-quality parity: build one tree per backend, run the same
		// query battery, compare the paper's cost metric.
		mlpTree, err := bundle.NewTreeKind(policy.KindMLP)
		if err != nil {
			t.Fatal(err)
		}
		tblTree, err := bundle.NewTreeKind(policy.KindTable)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range items {
			mlpTree.Insert(o, i)
			tblTree.Insert(o, i)
		}
		queries := dataset.DataCenteredQueries(items, 200, 0.005, geom.Rect{MaxX: 1, MaxY: 1}, 99)
		var mlpIO, tblIO, mlpRes, tblRes int
		for _, q := range queries {
			st := mlpTree.SearchCount(q)
			mlpIO += st.NodesAccessed
			mlpRes += st.Results
			st = tblTree.SearchCount(q)
			tblIO += st.NodesAccessed
			tblRes += st.Results
		}
		if mlpRes != tblRes {
			t.Fatalf("%s: result counts differ: mlp %d vs table %d", kind, mlpRes, tblRes)
		}
		ratio := float64(tblIO) / float64(mlpIO)
		t.Logf("%s: query node accesses mlp=%d table=%d (ratio %.3f)", kind, mlpIO, tblIO, ratio)
		if ratio > 1.15 || ratio < 0.85 {
			t.Fatalf("%s: table tree query I/O ratio %.3f outside [0.85, 1.15]", kind, ratio)
		}
	}
}

// TestBundleMLPTreeByteIdentical pins the digest-safety guarantee: a tree
// built through the bundle's MLP backend encodes byte-identically to one
// built through the plain Policy path — the engine refactor must never
// change the reference backend's decisions.
func TestBundleMLPTreeByteIdentical(t *testing.T) {
	pol := trainTinyPolicy(t)
	bundle, _, err := Distill(pol, DistillConfig{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	items := dataset.MustGenerate(dataset.UNI, 3000, 21)

	plain := pol.NewTree()
	viaBundle, err := bundle.NewTreeKind(policy.KindMLP)
	if err != nil {
		t.Fatal(err)
	}
	viaAuto, err := bundle.NewTreeKind(KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range items {
		plain.Insert(o, i)
		viaBundle.Insert(o, i)
		viaAuto.Insert(o, i)
	}
	var a, b, c bytes.Buffer
	if err := plain.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := viaBundle.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if err := viaAuto.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("mlp-backend tree encode differs from the plain policy tree")
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("auto-backend tree encode differs from the plain policy tree")
	}
}

// TestBundleSaveLoadRoundTrip covers the v2 format: artifacts survive the
// file, v1 files still load, and the version gate reports the named error.
func TestBundleSaveLoadRoundTrip(t *testing.T) {
	pol := trainTinyPolicy(t)
	bundle, _, err := Distill(pol, DistillConfig{Samples: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// v2 round trip with artifacts.
	p2 := filepath.Join(dir, "bundle.json")
	if err := bundle.Save(p2); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBundle(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Distilled() || back.ChooseTable == nil {
		t.Fatal("artifacts lost in round trip")
	}
	rng := rand.New(rand.NewSource(77))
	dim := pol.ChooseNet.InputSize()
	for trial := 0; trial < 200; trial++ {
		state := make([]float64, dim)
		for i := range state {
			state[i] = rng.Float64()
		}
		if back.ChooseTable.Eval(state) != bundle.ChooseTable.Eval(state) {
			t.Fatal("round-tripped table diverges")
		}
	}
	// LoadPolicy on a v2 file yields the plain policy.
	p, err := LoadPolicy(p2)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChooseNet == nil || p.K != pol.K {
		t.Fatal("LoadPolicy mangled v2 file")
	}

	// A bare bundle saves as v1, byte-identical to Policy.Save.
	p1a := filepath.Join(dir, "plain-a.json")
	p1b := filepath.Join(dir, "plain-b.json")
	if err := pol.Save(p1a); err != nil {
		t.Fatal(err)
	}
	if err := (&PolicyBundle{Policy: pol}).Save(p1b); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(p1a)
	bb, _ := os.ReadFile(p1b)
	if !bytes.Equal(ba, bb) {
		t.Fatal("bare bundle save not byte-identical to Policy.Save")
	}
	if _, err := LoadBundle(p1a); err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}

	// Version gate: a v3 file fails with the named error.
	p3 := filepath.Join(dir, "future.json")
	if err := os.WriteFile(p3, []byte(`{"format":"rlrtree-policy-v3","k":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(p3)
	if !errors.Is(err, ErrPolicyVersionTooNew) {
		t.Fatalf("v3 file error = %v, want ErrPolicyVersionTooNew", err)
	}
	// Garbage format is a plain unsupported error, not the version error.
	pg := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(pg, []byte(`{"format":"something-else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(pg); err == nil || errors.Is(err, ErrPolicyVersionTooNew) {
		t.Fatalf("garbage format error = %v, want generic unsupported", err)
	}
}

// TestBundleValidateAndEngines covers artifact/shape validation and the
// engine selection errors for missing artifacts.
func TestBundleValidateAndEngines(t *testing.T) {
	pol := trainTinyPolicy(t)
	bare := &PolicyBundle{Policy: pol}
	if _, err := bare.ChooseEngine(policy.KindTable); err == nil {
		t.Fatal("table engine built without a distilled table")
	}
	if _, err := bare.ChooseEngine("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
	eng, err := bare.ChooseEngine(KindAuto)
	if err != nil || eng == nil || eng.Kind() != policy.KindMLP {
		t.Fatalf("auto engine = %v, %v", eng, err)
	}
	if eng, err := bare.SplitEngine(policy.KindTable); err != nil || eng != nil {
		t.Fatalf("nil-net split engine = %v, %v; want nil, nil", eng, err)
	}

	bundle, _, err := Distill(pol, DistillConfig{Samples: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched table shape must fail validation.
	broken := *bundle
	broken.ChooseTable = &policy.Table{
		Dim: 4, Actions: 2, Depth: 0, Feat: []int32{}, Thresh: []float64{}, Leaf: []int32{0},
	}
	if err := broken.Validate(); err == nil {
		t.Fatal("mismatched table shape accepted")
	}
	// Orphan artifact (no network) must fail.
	orphan := &PolicyBundle{
		Policy:     &Policy{K: pol.K, MaxEntries: pol.MaxEntries, MinEntries: pol.MinEntries},
		SplitTable: bundle.ChooseTable,
	}
	if err := orphan.Validate(); err == nil {
		t.Fatal("orphan table accepted")
	}
}
