package core

import (
	"fmt"

	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// PolicyBundle is a Policy plus its optional distilled inference
// artifacts: a branch-table policy per operation. The bundle — not the Policy — carries them so the Policy
// struct's gob encoding (pinned by the golden-policy digest) is untouched.
// Artifacts are derived views of the networks: LoadBundle validates that
// each one's shape matches the network it was distilled from.
type PolicyBundle struct {
	*Policy
	// ChooseTable / SplitTable are distilled branch-table policies
	// (policy.KindTable), nil when not distilled.
	ChooseTable *policy.Table
	SplitTable  *policy.Table
}

// Validate extends Policy.Validate with artifact shape checks.
func (b *PolicyBundle) Validate() error {
	if b.Policy == nil {
		return fmt.Errorf("core: bundle has no policy")
	}
	if err := b.Policy.Validate(); err != nil {
		return err
	}
	check := func(op string, net *mlp.Network, tbl *policy.Table) error {
		if tbl == nil {
			return nil
		}
		if net == nil {
			return fmt.Errorf("core: bundle has a %s table but no %s network", op, op)
		}
		if err := tbl.Validate(); err != nil {
			return fmt.Errorf("core: %s table: %w", op, err)
		}
		if tbl.Dim != net.InputSize() || tbl.Actions != net.OutputSize() {
			return fmt.Errorf("core: %s table shape %dx%d does not match network %dx%d",
				op, tbl.Dim, tbl.Actions, net.InputSize(), net.OutputSize())
		}
		return nil
	}
	if err := check("choose", b.ChooseNet, b.ChooseTable); err != nil {
		return err
	}
	return check("split", b.SplitNet, b.SplitTable)
}

// Distilled reports whether the bundle carries any distilled artifact.
func (b *PolicyBundle) Distilled() bool {
	return b.ChooseTable != nil || b.SplitTable != nil
}

// Save writes the bundle to path. Bundles with distilled artifacts write
// format v2; a bare bundle writes v1, byte-identical to Policy.Save.
func (b *PolicyBundle) Save(path string) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if !b.Distilled() {
		return b.Policy.Save(path)
	}
	return writePolicyFile(path, policyFile{
		Format:          policyFormatV2,
		K:               b.K,
		MaxEntries:      b.MaxEntries,
		MinEntries:      b.MinEntries,
		PaddedState:     b.PaddedState,
		SplitSortByArea: b.SplitSortByArea,
		ChooseNet:       b.ChooseNet,
		SplitNet:        b.SplitNet,
		ChooseTable:     b.ChooseTable,
		SplitTable:      b.SplitTable,
	})
}

// LoadBundle reads a policy file of any supported version as a bundle (v1
// files load with no artifacts). Too-new files fail with an error matching
// ErrPolicyVersionTooNew.
func LoadBundle(path string) (*PolicyBundle, error) {
	pf, err := readPolicyFile(path)
	if err != nil {
		return nil, err
	}
	b := &PolicyBundle{
		Policy: &Policy{
			ChooseNet:       pf.ChooseNet,
			SplitNet:        pf.SplitNet,
			K:               pf.K,
			MaxEntries:      pf.MaxEntries,
			MinEntries:      pf.MinEntries,
			PaddedState:     pf.PaddedState,
			SplitSortByArea: pf.SplitSortByArea,
		},
		ChooseTable: pf.ChooseTable,
		SplitTable:  pf.SplitTable,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// PolicyKinds are the recognized backend selectors, in CLI order. KindAuto
// picks the reference MLP when a network exists (byte-identical trees to
// pre-bundle builds); the named kinds demand their artifact.
var PolicyKinds = []string{KindAuto, policy.KindMLP, policy.KindTable}

// KindAuto selects the best exact backend automatically.
const KindAuto = "auto"

// ValidPolicyKind reports whether kind names a recognized backend.
func ValidPolicyKind(kind string) bool {
	for _, k := range PolicyKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// engineFor builds the inference engine of the requested kind for one
// operation. A nil network yields a nil engine (heuristic fallback) for
// every kind. Requesting a distilled kind whose artifact is missing is an
// error — silently serving the slow path would defeat the point of asking.
func engineFor(op, kind string, net *mlp.Network, tbl *policy.Table) (policy.Engine, error) {
	if net == nil {
		return nil, nil
	}
	switch kind {
	case KindAuto, policy.KindMLP:
		return policy.NewMLP(net), nil
	case policy.KindTable:
		if tbl == nil {
			return nil, fmt.Errorf("core: policy has no distilled %s table (re-run rlr-train with -distill)", op)
		}
		return tbl, nil
	default:
		return nil, fmt.Errorf("core: unknown policy kind %q (have %v)", kind, PolicyKinds)
	}
}

// ChooseEngine returns the ChooseSubtree engine for kind (nil when the
// bundle has no choose network).
func (b *PolicyBundle) ChooseEngine(kind string) (policy.Engine, error) {
	return engineFor("choose", kind, b.ChooseNet, b.ChooseTable)
}

// SplitEngine returns the Split engine for kind (nil when the bundle has
// no split network).
func (b *PolicyBundle) SplitEngine(kind string) (policy.Engine, error) {
	return engineFor("split", kind, b.SplitNet, b.SplitTable)
}

// NewTreeKind returns an empty tree whose insert path runs the requested
// backend kind, falling back to the reference heuristics for operations
// without a network — the bundle analogue of Policy.NewTree.
func (b *PolicyBundle) NewTreeKind(kind string) (*rtree.Tree, error) {
	ce, err := b.ChooseEngine(kind)
	if err != nil {
		return nil, err
	}
	se, err := b.SplitEngine(kind)
	if err != nil {
		return nil, err
	}
	var chooser rtree.SubtreeChooser = rtree.GuttmanChooser{}
	if ce != nil {
		chooser = newPolicyChooser(ce, b.K, b.PaddedState)
	}
	var splitter rtree.Splitter = rtree.MinOverlapSplit{}
	if se != nil {
		splitter = newPolicySplitter(se, b.K, b.SplitSortByArea)
	}
	return rtree.New(rtree.Options{
		MaxEntries: b.MaxEntries,
		MinEntries: b.MinEntries,
		Chooser:    chooser,
		Splitter:   splitter,
	}), nil
}
