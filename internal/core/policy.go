package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Policy holds the trained artifacts of an RLR-Tree: the two Q-networks
// and the hyperparameters needed to featurize states at insertion time. A
// Policy with a nil network falls back to the reference heuristic for that
// operation, so policies trained for a single operation (the paper's "RL
// ChooseSubtree" and "RL Split" models) are represented naturally.
type Policy struct {
	// ChooseNet decides ChooseSubtree; nil selects Guttman least
	// enlargement (the reference rule).
	ChooseNet *mlp.Network
	// SplitNet decides Split; nil selects the minimum-overlap partition
	// (the reference rule).
	SplitNet *mlp.Network
	// K is the action-space size both networks were trained with.
	K int
	// MaxEntries / MinEntries are the node capacity bounds the policy was
	// trained for.
	MaxEntries, MinEntries int
	// PaddedState records whether ChooseNet consumes the padded
	// all-children state (ablation variant).
	PaddedState bool
	// SplitSortByArea records whether SplitNet was trained on the
	// area-ordered candidate shortlist (ablation variant).
	SplitSortByArea bool
}

// Validate checks that the networks (when present) match the policy's
// featurization parameters.
func (p *Policy) Validate() error {
	if p.K < 2 {
		return fmt.Errorf("core: policy K = %d, want >= 2", p.K)
	}
	if p.MaxEntries < 4 || p.MinEntries < 2 || p.MinEntries > p.MaxEntries/2 {
		return fmt.Errorf("core: policy capacities %d/%d invalid", p.MinEntries, p.MaxEntries)
	}
	if p.ChooseNet != nil {
		wantIn := 4 * p.K
		if p.PaddedState {
			wantIn = 4 * p.MaxEntries
		}
		if p.ChooseNet.InputSize() != wantIn {
			return fmt.Errorf("core: ChooseNet input %d, want %d", p.ChooseNet.InputSize(), wantIn)
		}
	}
	if p.SplitNet != nil {
		if p.SplitNet.InputSize() != 4*p.K {
			return fmt.Errorf("core: SplitNet input %d, want %d", p.SplitNet.InputSize(), 4*p.K)
		}
		if p.SplitNet.OutputSize() != p.K {
			return fmt.Errorf("core: SplitNet outputs %d, want %d", p.SplitNet.OutputSize(), p.K)
		}
	}
	return nil
}

// NewTree returns an empty R-Tree wired to this policy: insertions use the
// learned ChooseSubtree and Split decisions (greedy, maximum Q-value), and
// every query algorithm of internal/rtree works on it unchanged.
func (p *Policy) NewTree() *rtree.Tree {
	return rtree.New(rtree.Options{
		MaxEntries: p.MaxEntries,
		MinEntries: p.MinEntries,
		Chooser:    p.Chooser(),
		Splitter:   p.Splitter(),
	})
}

// Chooser returns the policy's ChooseSubtree strategy: the greedy learned
// policy when ChooseNet is present, otherwise the reference heuristic.
func (p *Policy) Chooser() rtree.SubtreeChooser {
	if p.ChooseNet == nil {
		return rtree.GuttmanChooser{}
	}
	return newPolicyChooser(policy.NewMLP(p.ChooseNet), p.K, p.PaddedState)
}

// Splitter returns the policy's Split strategy: the greedy learned policy
// when SplitNet is present, otherwise the reference heuristic.
func (p *Policy) Splitter() rtree.Splitter {
	if p.SplitNet == nil {
		return rtree.MinOverlapSplit{}
	}
	return newPolicySplitter(policy.NewMLP(p.SplitNet), p.K, p.SplitSortByArea)
}

// policyChooser descends by the engine's action over the top-k children,
// honoring the containment shortcut. With an MLP engine the decision is
// arithmetically identical to the pre-engine code path (forward pass +
// masked argmax), which is what keeps the golden workload digests stable;
// the table engine approximates it.
type policyChooser struct {
	eng    policy.Engine
	k      int
	padded bool
}

// newPolicyChooser wraps an inference engine as the tree's ChooseSubtree
// strategy.
func newPolicyChooser(eng policy.Engine, k int, padded bool) *policyChooser {
	return &policyChooser{eng: eng, k: k, padded: padded}
}

// Name implements rtree.SubtreeChooser.
func (c *policyChooser) Name() string { return "rl-choose" }

// Choose implements rtree.SubtreeChooser.
func (c *policyChooser) Choose(t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	return chooseViaEngine(c.eng, c.k, c.padded, t, n, r)
}

// chooseScratchPool recycles featurization buffers across ChooseSubtree
// decisions. Pooled (rather than stored per chooser) because one chooser
// instance may serve goroutines concurrently during training's overlapped
// reference-tree cloning; engines never retain the state slice, so the
// buffers are free the moment the decision returns.
var chooseScratchPool = sync.Pool{New: func() any { return new(chooseScratch) }}

// chooseViaEngine is the shared ChooseSubtree decision: featurize, honor
// the containment shortcut, ask the engine, map the action back to a child
// index. Both the static policyChooser and the server's hot-swappable
// chooser route through it.
func chooseViaEngine(eng policy.Engine, k int, padded bool, t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	sc := chooseScratchPool.Get().(*chooseScratch)
	defer chooseScratchPool.Put(sc)
	cc := chooseStateInto(sc, n, r, k, t.MaxEntries(), padded)
	if cc.Contained >= 0 {
		return cc.Contained
	}
	valid := len(cc.Children)
	if !padded && valid > k {
		valid = k
	}
	return cc.Children[eng.ChooseAction(cc.State, valid)]
}

// policySplitter splits by the engine's action over the top-k overlap-free
// candidate splits, falling back to the minimum-overlap partition when
// fewer than two such candidates exist.
type policySplitter struct {
	eng    policy.Engine
	k      int
	byArea bool
}

// newPolicySplitter wraps an inference engine as the tree's Split strategy.
func newPolicySplitter(eng policy.Engine, k int, byArea bool) *policySplitter {
	return &policySplitter{eng: eng, k: k, byArea: byArea}
}

// Name implements rtree.Splitter.
func (s *policySplitter) Name() string { return "rl-split" }

// Split implements rtree.Splitter.
func (s *policySplitter) Split(t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	return splitViaEngine(s.eng, s.k, s.byArea, t, n)
}

// splitViaEngine is the shared Split decision, the splitter analogue of
// chooseViaEngine.
func splitViaEngine(eng policy.Engine, k int, byArea bool, t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	sc := splitState(n.Entries(), t.MinEntries(), k, byArea)
	if !sc.UseModel {
		return (rtree.MinOverlapSplit{}).Split(t, n)
	}
	return sc.Enum.Materialize(sc.Cands[eng.ChooseAction(sc.State, len(sc.Cands))])
}

// policyFile is the on-disk JSON form of a Policy (format v1) or a
// PolicyBundle (format v2, which adds the optional distilled artifacts —
// see bundle.go). v1 files decode under v2 readers unchanged; a plain
// Policy still saves as v1 so pre-distillation files stay byte-compatible.
type policyFile struct {
	Format          string        `json:"format"`
	K               int           `json:"k"`
	MaxEntries      int           `json:"max_entries"`
	MinEntries      int           `json:"min_entries"`
	PaddedState     bool          `json:"padded_state,omitempty"`
	SplitSortByArea bool          `json:"split_sort_by_area,omitempty"`
	ChooseNet       *mlp.Network  `json:"choose_net,omitempty"`
	SplitNet        *mlp.Network  `json:"split_net,omitempty"`
	ChooseTable     *policy.Table `json:"choose_table,omitempty"`
	SplitTable      *policy.Table `json:"split_table,omitempty"`
}

const (
	policyFormatPrefix = "rlrtree-policy-v"
	policyFormat       = policyFormatPrefix + "1"
	policyFormatV2     = policyFormatPrefix + "2"
	// maxPolicyVersion is the newest format this build can decode.
	maxPolicyVersion = 2
)

// ErrPolicyVersionTooNew reports a policy file written by a newer build
// than this one. Callers (rlr-serve startup in particular) match it with
// errors.Is to print an actionable upgrade message instead of a generic
// parse failure.
var ErrPolicyVersionTooNew = errors.New("policy file format newer than this build supports")

// checkPolicyFormat validates a policy file's format string against the
// versions this build decodes.
func checkPolicyFormat(format string) error {
	if format == policyFormat || format == policyFormatV2 {
		return nil
	}
	if v, err := strconv.Atoi(strings.TrimPrefix(format, policyFormatPrefix)); err == nil && strings.HasPrefix(format, policyFormatPrefix) && v > maxPolicyVersion {
		return fmt.Errorf("core: policy format %q (this build reads up to v%d): %w",
			format, maxPolicyVersion, ErrPolicyVersionTooNew)
	}
	return fmt.Errorf("core: unsupported policy format %q", format)
}

// writePolicyFile encodes and writes a policy file.
func writePolicyFile(path string, pf policyFile) error {
	data, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return fmt.Errorf("core: encode policy: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: write policy: %w", err)
	}
	return nil
}

// readPolicyFile reads and decodes a policy file of any supported version.
func readPolicyFile(path string) (*policyFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read policy: %w", err)
	}
	// Peek at the format before decoding the body: a too-new file may hold
	// artifacts whose decoders this build lacks, and the version error must
	// win over whatever JSON error those would produce.
	var header struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return nil, fmt.Errorf("core: decode policy: %w", err)
	}
	if err := checkPolicyFormat(header.Format); err != nil {
		return nil, err
	}
	var pf policyFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("core: decode policy: %w", err)
	}
	return &pf, nil
}

// Save writes the policy to path as JSON (format v1; distilled bundles are
// saved by PolicyBundle.Save as v2).
func (p *Policy) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return writePolicyFile(path, policyFile{
		Format:          policyFormat,
		K:               p.K,
		MaxEntries:      p.MaxEntries,
		MinEntries:      p.MinEntries,
		PaddedState:     p.PaddedState,
		SplitSortByArea: p.SplitSortByArea,
		ChooseNet:       p.ChooseNet,
		SplitNet:        p.SplitNet,
	})
}

// LoadPolicy reads the Policy part of a policy file of any supported
// version, dropping distilled artifacts; use LoadBundle to keep them.
func LoadPolicy(path string) (*Policy, error) {
	b, err := LoadBundle(path)
	if err != nil {
		return nil, err
	}
	return b.Policy, nil
}
