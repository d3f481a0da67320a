package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// HotPolicy serves a bundle's inference engines to a live insert path and
// lets them be swapped atomically while inserts are in flight.
//
// Memory-ordering argument: every engine is immutable once built (the MLP
// engine holds an immutable network plus a sync.Pool, the table is plain
// read-only data), and publication happens through atomic.Pointer
// stores. Go's atomics carry release/acquire semantics — a goroutine that
// Loads the new pointer observes every write that preceded the Store — so
// a reader can never see a partially-built engine. An insert running
// during a swap may mix engines across its node descents (it loads per
// decision); each decision is individually valid, the tree invariants do
// not depend on which policy chose a subtree, and WAL/snapshot state is
// keyed by rect+id, never by the decision path, so durability is
// backend-independent.
type HotPolicy struct {
	// Featurization parameters, fixed for the lifetime of the HotPolicy:
	// the serving tree was built with these capacities, so a bundle that
	// disagrees cannot be swapped in.
	k, maxEntries, minEntries int
	padded, byArea            bool

	choose atomic.Pointer[engineBox]
	split  atomic.Pointer[engineBox]
	kind   atomic.Pointer[string]

	// mu serializes swaps; reads never take it.
	mu     sync.Mutex
	bundle *PolicyBundle

	swaps    atomic.Int64
	counters map[string]*atomic.Int64
}

// engineBox wraps an engine so the atomic pointer can publish "no engine"
// (heuristic fallback) as a non-nil box with a nil Engine.
type engineBox struct {
	eng policy.Engine
}

// heuristicBackend names the fallback in stats and counters.
const heuristicBackend = "heuristic"

// NewHotPolicy builds a hot-swappable policy serving the bundle with the
// requested backend kind (KindAuto resolves to the reference MLP when a
// network exists).
func NewHotPolicy(b *PolicyBundle, kind string) (*HotPolicy, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	h := &HotPolicy{
		k:          b.K,
		maxEntries: b.MaxEntries,
		minEntries: b.MinEntries,
		padded:     b.PaddedState,
		byArea:     b.SplitSortByArea,
		counters:   make(map[string]*atomic.Int64),
	}
	for _, k := range []string{policy.KindMLP, policy.KindTable, heuristicBackend} {
		h.counters[k] = new(atomic.Int64)
	}
	if err := h.install(b, kind); err != nil {
		return nil, err
	}
	h.swaps.Store(0) // construction is not a swap
	return h, nil
}

// resolveKind normalizes the requested kind to the counter/stats name.
func resolveKind(b *PolicyBundle, kind string) (string, error) {
	if !ValidPolicyKind(kind) {
		return "", fmt.Errorf("core: unknown policy kind %q (have %v)", kind, PolicyKinds)
	}
	if kind == KindAuto {
		kind = policy.KindMLP
	}
	if b.ChooseNet == nil && b.SplitNet == nil {
		return heuristicBackend, nil
	}
	return kind, nil
}

// install builds and publishes the engines for (bundle, kind). Caller must
// hold mu or be the constructor.
func (h *HotPolicy) install(b *PolicyBundle, kind string) error {
	resolved, err := resolveKind(b, kind)
	if err != nil {
		return err
	}
	engKind := resolved
	if engKind == heuristicBackend {
		engKind = KindAuto
	}
	ce, err := b.ChooseEngine(engKind)
	if err != nil {
		return err
	}
	se, err := b.SplitEngine(engKind)
	if err != nil {
		return err
	}
	h.bundle = b
	// Publication points: everything built above becomes visible to
	// concurrent readers via these release stores.
	h.choose.Store(&engineBox{eng: ce})
	h.split.Store(&engineBox{eng: se})
	h.kind.Store(&resolved)
	h.swaps.Add(1)
	return nil
}

// Swap atomically switches the active backend kind, optionally replacing
// the whole bundle (pass nil to keep the current one, e.g. for a kind-only
// flip). A replacement bundle must match the featurization parameters the
// serving tree was built with.
func (h *HotPolicy) Swap(b *PolicyBundle, kind string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if b == nil {
		b = h.bundle
	} else {
		if err := b.Validate(); err != nil {
			return err
		}
		if b.K != h.k || b.MaxEntries != h.maxEntries || b.MinEntries != h.minEntries ||
			b.PaddedState != h.padded || b.SplitSortByArea != h.byArea {
			return fmt.Errorf("core: bundle parameters (k=%d cap=%d/%d padded=%v byArea=%v) do not match serving tree (k=%d cap=%d/%d padded=%v byArea=%v)",
				b.K, b.MinEntries, b.MaxEntries, b.PaddedState, b.SplitSortByArea,
				h.k, h.minEntries, h.maxEntries, h.padded, h.byArea)
		}
	}
	return h.install(b, kind)
}

// Bundle returns the currently served bundle.
func (h *HotPolicy) Bundle() *PolicyBundle {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bundle
}

// Kind returns the active backend kind ("mlp", "table", or "heuristic" for
// a policy with no networks).
func (h *HotPolicy) Kind() string { return *h.kind.Load() }

// backendName reports the per-operation backend actually serving.
func backendName(box *engineBox) string {
	if box.eng == nil {
		return heuristicBackend
	}
	return box.eng.Kind()
}

// CountInserts attributes n inserted objects to the active backend kind.
// The server calls it once per acknowledged insert batch.
func (h *HotPolicy) CountInserts(n int) {
	if c, ok := h.counters[h.Kind()]; ok {
		c.Add(int64(n))
	}
}

// PolicyStats is the /stats "policy" section.
type PolicyStats struct {
	// Kind is the active backend kind.
	Kind string `json:"kind"`
	// ChooseBackend / SplitBackend are the per-operation backends ("mlp",
	// "table", or "heuristic" when that operation has no network).
	ChooseBackend string `json:"choose_backend"`
	SplitBackend  string `json:"split_backend"`
	// Distilled reports whether the served bundle carries distilled
	// artifacts.
	Distilled bool `json:"distilled"`
	// Swaps counts successful Swap calls since startup.
	Swaps int64 `json:"swaps"`
	// Inserts maps backend kind to objects inserted while it was active.
	Inserts map[string]int64 `json:"inserts"`
}

// Stats snapshots the policy section.
func (h *HotPolicy) Stats() PolicyStats {
	st := PolicyStats{
		Kind:          h.Kind(),
		ChooseBackend: backendName(h.choose.Load()),
		SplitBackend:  backendName(h.split.Load()),
		Swaps:         h.swaps.Load(),
		Inserts:       make(map[string]int64, len(h.counters)),
	}
	h.mu.Lock()
	st.Distilled = h.bundle.Distilled()
	h.mu.Unlock()
	for k, c := range h.counters {
		if v := c.Load(); v > 0 {
			st.Inserts[k] = v
		}
	}
	return st
}

// Chooser returns the hot ChooseSubtree strategy: each decision loads the
// currently published engine.
func (h *HotPolicy) Chooser() rtree.SubtreeChooser { return &hotChooser{h: h} }

// Splitter returns the hot Split strategy.
func (h *HotPolicy) Splitter() rtree.Splitter { return &hotSplitter{h: h} }

type hotChooser struct{ h *HotPolicy }

// Name implements rtree.SubtreeChooser.
func (c *hotChooser) Name() string { return "rl-choose-hot" }

// Choose implements rtree.SubtreeChooser.
func (c *hotChooser) Choose(t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	if box := c.h.choose.Load(); box.eng != nil {
		return chooseViaEngine(box.eng, c.h.k, c.h.padded, t, n, r)
	}
	return (rtree.GuttmanChooser{}).Choose(t, n, r)
}

type hotSplitter struct{ h *HotPolicy }

// Name implements rtree.Splitter.
func (s *hotSplitter) Name() string { return "rl-split-hot" }

// Split implements rtree.Splitter.
func (s *hotSplitter) Split(t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	if box := s.h.split.Load(); box.eng != nil {
		return splitViaEngine(box.eng, s.h.k, s.h.byArea, t, n)
	}
	return (rtree.MinOverlapSplit{}).Split(t, n)
}
