package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// distilledBundle caches one distilled bundle for the hot-policy tests.
func distilledBundle(t *testing.T) *PolicyBundle {
	t.Helper()
	pol := trainTinyPolicy(t)
	bundle, _, err := Distill(pol, DistillConfig{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

func TestHotPolicySwapAndStats(t *testing.T) {
	bundle := distilledBundle(t)
	h, err := NewHotPolicy(bundle, KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Kind(); got != policy.KindMLP {
		t.Fatalf("auto resolved to %q, want %q", got, policy.KindMLP)
	}
	st := h.Stats()
	if st.Swaps != 0 || st.ChooseBackend != policy.KindMLP || st.SplitBackend != heuristicBackend {
		t.Fatalf("initial stats = %+v", st)
	}
	if !st.Distilled {
		t.Fatal("distilled bundle reported as not distilled")
	}

	h.CountInserts(3)
	if err := h.Swap(nil, policy.KindTable); err != nil {
		t.Fatal(err)
	}
	h.CountInserts(5)
	st = h.Stats()
	if st.Kind != policy.KindTable || st.Swaps != 1 {
		t.Fatalf("post-swap stats = %+v", st)
	}
	if st.Inserts[policy.KindMLP] != 3 || st.Inserts[policy.KindTable] != 5 {
		t.Fatalf("insert counters = %v", st.Inserts)
	}

	// Unknown kind is rejected and leaves the active backend untouched.
	if err := h.Swap(nil, "bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if h.Kind() != policy.KindTable {
		t.Fatal("failed swap changed the active kind")
	}

	// A replacement bundle with different featurization parameters is
	// rejected: the serving tree was built with the original capacities.
	other := *bundle
	otherPol := *bundle.Policy
	otherPol.MaxEntries = bundle.MaxEntries * 2
	otherPol.ChooseNet = nil
	otherPol.SplitNet = nil
	other.Policy = &otherPol
	other.ChooseTable = nil
	if err := h.Swap(&other, KindAuto); err == nil {
		t.Fatal("mismatched bundle accepted")
	}

	// A valid full-bundle swap replaces the served bundle.
	if err := h.Swap(bundle, policy.KindMLP); err != nil {
		t.Fatal(err)
	}
	if h.Kind() != policy.KindMLP || h.Bundle() != bundle {
		t.Fatalf("bundle swap: kind %q", h.Kind())
	}
}

func TestHotPolicyHeuristicFallback(t *testing.T) {
	b := &PolicyBundle{Policy: &Policy{K: 2, MaxEntries: 8, MinEntries: 2}}
	h, err := NewHotPolicy(b, KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != heuristicBackend {
		t.Fatalf("no-network policy kind = %q, want %q", h.Kind(), heuristicBackend)
	}
	// The hot tree must behave exactly like the reference heuristics.
	hot := rtree.New(rtree.Options{
		MaxEntries: b.MaxEntries, MinEntries: b.MinEntries,
		Chooser: h.Chooser(), Splitter: h.Splitter(),
	})
	ref := b.Policy.NewTree()
	for i, o := range dataset.MustGenerate(dataset.UNI, 1500, 13) {
		hot.Insert(o, i)
		ref.Insert(o, i)
	}
	var a, c bytes.Buffer
	if err := hot.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("heuristic hot tree differs from the reference tree")
	}
}

// TestHotPolicyTreeMatchesStatic pins that serving through HotPolicy with
// the MLP backend builds the same tree as the plain Policy path.
func TestHotPolicyTreeMatchesStatic(t *testing.T) {
	bundle := distilledBundle(t)
	h, err := NewHotPolicy(bundle, policy.KindMLP)
	if err != nil {
		t.Fatal(err)
	}
	hot := rtree.New(rtree.Options{
		MaxEntries: bundle.MaxEntries, MinEntries: bundle.MinEntries,
		Chooser: h.Chooser(), Splitter: h.Splitter(),
	})
	plain := bundle.Policy.NewTree()
	for i, o := range dataset.MustGenerate(dataset.GAU, 2000, 5) {
		hot.Insert(o, i)
		plain.Insert(o, i)
	}
	var a, c bytes.Buffer
	if err := hot.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("hot MLP tree differs from the plain policy tree")
	}
}

// TestHotPolicySwapHammer races concurrent inserts against backend swaps;
// run under -race it pins the publication protocol. Every insert must
// succeed and land in a structurally valid tree regardless of which engine
// each descent decision happened to load.
func TestHotPolicySwapHammer(t *testing.T) {
	bundle := distilledBundle(t)
	h, err := NewHotPolicy(bundle, KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	tr := rtree.New(rtree.Options{
		MaxEntries: bundle.MaxEntries, MinEntries: bundle.MinEntries,
		Chooser: h.Chooser(), Splitter: h.Splitter(),
	})
	items := dataset.MustGenerate(dataset.SKE, 4000, 31)

	// The tree itself is single-writer; the race under test is insert
	// decisions loading engines while Swap publishes new ones.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		kinds := []string{policy.KindTable, policy.KindMLP, KindAuto}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.Swap(nil, kinds[i%len(kinds)]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	for i, o := range items {
		tr.Insert(o, i)
		h.CountInserts(1)
	}
	close(stop)
	wg.Wait()

	if tr.Len() != len(items) {
		t.Fatalf("tree has %d items, want %d", tr.Len(), len(items))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invariants violated after swap hammer: %v", err)
	}
	st := h.Stats()
	var total int64
	for _, v := range st.Inserts {
		total += v
	}
	if total != int64(len(items)) {
		t.Fatalf("insert counters sum to %d, want %d", total, len(items))
	}
	if st.Swaps == 0 {
		t.Fatal("hammer performed no swaps")
	}
}

// BenchmarkPolicyInsert measures insert throughput per inference backend —
// the tentpole's headline number. The heuristic baseline bounds the
// non-inference cost of an insert.
func BenchmarkPolicyInsert(b *testing.B) {
	pol := benchPolicy(b)
	bundle, _, err := Distill(pol, DistillConfig{Samples: 20000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	items := dataset.MustGenerate(dataset.UNI, 1<<16, 41)
	newTree := func(kind string) *rtree.Tree {
		if kind == "heuristic" {
			// Same fallback strategies a nil-network policy serves.
			return (&Policy{K: pol.K, MaxEntries: pol.MaxEntries, MinEntries: pol.MinEntries}).NewTree()
		}
		tr, err := bundle.NewTreeKind(kind)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, kind := range []string{"heuristic", policy.KindMLP, policy.KindTable} {
		b.Run(kind, func(b *testing.B) {
			tr := newTree(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(items) == 0 && i > 0 {
					b.StopTimer()
					tr = newTree(kind)
					b.StartTimer()
				}
				tr.Insert(items[i%len(items)], i)
			}
		})
	}
}

// benchPolicy builds an untrained (random-weight) policy with production
// shape for benchmarking — inference cost does not depend on the weights.
func benchPolicy(b *testing.B) *Policy {
	b.Helper()
	cfg := Config{Seed: 1}.withDefaults()
	pol := &Policy{
		ChooseNet:  newChooseAgent(cfg).Network(),
		K:          cfg.K,
		MaxEntries: cfg.MaxEntries,
		MinEntries: cfg.MinEntries,
	}
	if err := pol.Validate(); err != nil {
		b.Fatal(err)
	}
	return pol
}
