package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// testBundle builds a distilled policy bundle around a small random-weight
// network — inference behaviour, not training quality, is under test here.
func testBundle(t testing.TB) *core.PolicyBundle {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pol := &core.Policy{
		ChooseNet:  mlp.New(rng, mlp.SELU, 8, 8, 2),
		K:          2,
		MaxEntries: 8,
		MinEntries: 2,
	}
	bundle, _, err := core.Distill(pol, core.DistillConfig{Samples: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// newPolicyTestServer boots a WAL-less server whose tree inserts through a
// hot-swappable policy starting on the given backend kind.
func newPolicyTestServer(t *testing.T, kind string) (*Server, *httptest.Server, *core.HotPolicy) {
	t.Helper()
	hot, err := core.NewHotPolicy(testBundle(t), kind)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Index: newIndex(t, rtree.Options{
			MaxEntries: 8, MinEntries: 2,
			Chooser: hot.Chooser(), Splitter: hot.Splitter(),
		}),
		IndexName: "RLR-Tree",
		Policy:    hot,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, hot
}

// policyRectSlice generates one random small rect in the unit square as
// the wire-format slice.
func policyRectSlice(rng *rand.Rand) []float64 {
	x, y := rng.Float64(), rng.Float64()
	return []float64{x, y, x + 0.01, y + 0.01}
}

func TestServerPolicyEndpointAndStats(t *testing.T) {
	_, ts, hot := newPolicyTestServer(t, "table")

	// Set a burst and check the policy stats section attributes it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		postJSON(t, ts.URL+"/set", map[string]any{
			"key":  fmt.Sprintf("t-%d", i),
			"rect": policyRectSlice(rng),
		}, nil)
	}
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Policy == nil {
		t.Fatal("stats has no policy section")
	}
	if stats.Policy.Kind != "table" || stats.Policy.ChooseBackend != "table" {
		t.Fatalf("policy stats = %+v", stats.Policy)
	}
	if stats.Policy.Inserts["table"] != 40 {
		t.Fatalf("table inserts = %v", stats.Policy.Inserts)
	}

	// Kind-only swap to the MLP backend, then keep setting.
	var pr policyResponse
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Kind: "mlp"}, &pr); resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d", resp.StatusCode)
	}
	if pr.Policy.Kind != "mlp" {
		t.Fatalf("kind after swap %q", pr.Policy.Kind)
	}
	for i := 0; i < 10; i++ {
		postJSON(t, ts.URL+"/set", map[string]any{
			"key":  fmt.Sprintf("m-%d", i),
			"rect": policyRectSlice(rng),
		}, nil)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Policy.Inserts["table"] != 40 || stats.Policy.Inserts["mlp"] != 10 {
		t.Fatalf("inserts after swap = %v", stats.Policy.Inserts)
	}
	if stats.Policy.Swaps != 1 {
		t.Fatalf("swaps = %d", stats.Policy.Swaps)
	}

	// Full-bundle reload from disk.
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := hot.Bundle().Save(path); err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Path: path, Kind: "table"}, &pr); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if pr.Policy.Kind != "table" {
		t.Fatalf("kind after reload %q", pr.Policy.Kind)
	}

	// Error paths: bad kind, empty body, version-too-new file.
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Kind: "bogus"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus kind status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty swap status %d", resp.StatusCode)
	}
	future := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(future, []byte(`{"format":"rlrtree-policy-v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Path: future}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("future policy status %d", resp.StatusCode)
	}
}

// TestSetMovesCountAsPolicyInserts: a SET that moves a key reinserts it
// through the active chooser, so it counts as an insert of the active
// backend just like a fresh key; a DEL inserts nothing.
func TestSetMovesCountAsPolicyInserts(t *testing.T) {
	s, ts, _ := newPolicyTestServer(t, "table")
	setKey(t, ts.URL, "bus", geom.NewRect(0.1, 0.1, 0.11, 0.11))
	setKey(t, ts.URL, "bus", geom.NewRect(0.5, 0.5, 0.51, 0.51))
	delKey(t, ts.URL, "bus")
	if got := s.statsPayload().Policy.Inserts; got["table"] != 2 {
		t.Fatalf("policy inserts = %v, want table:2", got)
	}
}

func TestServerPolicyEndpointWithoutPolicy(t *testing.T) {
	_, ts := newTestServer(t, "")
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Kind: "table"}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// TestServerPolicySwapUnderInsertLoad hammers POST /policy while SET
// traffic is in flight; under -race this pins the hot-swap publication
// protocol end to end through the HTTP layer.
func TestServerPolicySwapUnderInsertLoad(t *testing.T) {
	_, ts, hot := newPolicyTestServer(t, "auto")

	const writers, perWriter = 4, 150
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		kinds := []string{"table", "mlp"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if resp := postJSON(t, ts.URL+"/policy", policyRequest{Kind: kinds[i%len(kinds)]}, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("swap status %d", resp.StatusCode)
				return
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				postJSON(t, ts.URL+"/set", map[string]any{
					"key":  fmt.Sprintf("w%d-%d", w, i),
					"rect": policyRectSlice(rng),
				}, nil)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	swapper.Wait()

	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Tree.Size != writers*perWriter {
		t.Fatalf("tree size %d, want %d", stats.Tree.Size, writers*perWriter)
	}
	if stats.Policy == nil {
		t.Fatal("stats has no policy section")
	}
	var counted int64
	for _, v := range stats.Policy.Inserts {
		counted += v
	}
	if counted != int64(writers*perWriter) {
		t.Fatalf("counted inserts %d, want %d", counted, writers*perWriter)
	}
	if stats.Policy.Swaps == 0 {
		t.Fatal("no swaps observed during the hammer")
	}
	// The policy is still swappable after the storm.
	if err := hot.Swap(nil, "mlp"); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayBackendIndependent pins the durability contract: WAL
// records carry key+rect, never the decision path, so a log
// written while serving the table backend (with a mid-stream swap to the
// MLP) replays identically into trees using any backend, or none.
func TestWALReplayBackendIndependent(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways}
	w1, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}

	hot, err := core.NewHotPolicy(testBundle(t), "table")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Index: newIndex(t, rtree.Options{
		MaxEntries: 8, MinEntries: 2,
		Chooser: hot.Chooser(), Splitter: hot.Splitter(),
	}), WAL: w1, Policy: hot})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	oracle := make(map[string]bool)
	rng := rand.New(rand.NewSource(9))
	ack := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := fmt.Sprintf("obj-%d", i)
			postJSON(t, ts.URL+"/set", map[string]any{"key": id, "rect": policyRectSlice(rng)}, nil)
			oracle[id] = true
		}
	}
	ack(0, 120)
	// Mid-stream backend swap: half the log is written under each backend.
	if resp := postJSON(t, ts.URL+"/policy", policyRequest{Kind: "mlp"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d", resp.StatusCode)
	}
	ack(120, 240)

	// Abandon the server (simulated crash): no snapshot, no shutdown.
	// Replay the log into one fresh tree per backend flavour; each must
	// hold exactly the acknowledged keys.
	recoverInto := func(chooser rtree.SubtreeChooser, splitter rtree.Splitter) []string {
		t.Helper()
		opts := rtree.Options{MaxEntries: 8, MinEntries: 2}
		if chooser != nil {
			opts.Chooser, opts.Splitter = chooser, splitter
		}
		idx := newIndex(t, opts)
		w2, err := wal.Open(walOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if _, err := Recover(w2, 0, collection.New(idx), nil); err != nil {
			t.Fatal(err)
		}
		return indexIDs(t, idx)
	}

	tableHot, err := core.NewHotPolicy(testBundle(t), "table")
	if err != nil {
		t.Fatal(err)
	}
	mlpHot, err := core.NewHotPolicy(testBundle(t), "mlp")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(oracle))
	for id := range oracle {
		want = append(want, id)
	}
	sort.Strings(want)
	for name, got := range map[string][]string{
		"heuristic": recoverInto(nil, nil),
		"table":     recoverInto(tableHot.Chooser(), tableHot.Splitter()),
		"mlp":       recoverInto(mlpHot.Chooser(), mlpHot.Splitter()),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s replay: %d ids, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s replay: id[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}
