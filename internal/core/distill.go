package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/mlp"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rl"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// DistillConfig controls Distill.
type DistillConfig struct {
	// MaxDepth / MinLeaf bound the fitted branch tables (policy.FitConfig
	// defaults apply when zero).
	MaxDepth int
	MinLeaf  int
	// Samples is the number of synthetic states per operation added to
	// the harvested ones (default 20000). Synthetic states are drawn to
	// match the featurizer's invariants (max-normalized, sorted blocks,
	// zero padding) so they cover regions a single workload's harvest
	// misses without leaving the served distribution.
	Samples int
	// MaxHarvest caps the states harvested by replaying Data (default
	// 200000 per operation).
	MaxHarvest int
	// Data, when non-empty, is replayed through the MLP policy to harvest
	// the states the policy actually visits; the fit then optimizes
	// agreement where it matters. Typically the training dataset.
	Data []geom.Rect
	// Seed drives the synthetic sampler (and nothing else).
	Seed int64
}

func (c DistillConfig) withDefaults() DistillConfig {
	if c.Samples <= 0 {
		c.Samples = 20000
	}
	if c.MaxHarvest <= 0 {
		c.MaxHarvest = 200000
	}
	return c
}

// DistillReport summarizes one distillation: how many states each fit saw
// and the action-agreement rate of each table against the reference MLP
// on those states. Agreement is the number rlr-train prints and the
// parity tests bound.
type DistillReport struct {
	ChooseStates, SplitStates       int
	ChooseAgreement, SplitAgreement float64
}

// chooseHarvester is a SubtreeChooser that decides through an engine while
// recording the featurized states it saw — the distiller's tap. It repeats
// policyChooser's decision logic around the recording, so harvest inserts
// build the same tree the MLP policy would.
type chooseHarvester struct {
	eng     policy.Engine
	k       int
	padded  bool
	dim     int
	maxRows int
	states  []float64
}

// Name implements rtree.SubtreeChooser.
func (c *chooseHarvester) Name() string { return "rl-choose-harvest" }

// Choose implements rtree.SubtreeChooser.
func (c *chooseHarvester) Choose(t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	cc := chooseState(n, r, c.k, t.MaxEntries(), c.padded)
	if cc.Contained >= 0 {
		return cc.Contained
	}
	if len(c.states)/c.dim < c.maxRows {
		c.states = append(c.states, cc.State...)
	}
	valid := len(cc.Children)
	if !c.padded && valid > c.k {
		valid = c.k
	}
	return cc.Children[c.eng.ChooseAction(cc.State, valid)]
}

// splitHarvester is the Split-side tap.
type splitHarvester struct {
	eng     policy.Engine
	k       int
	byArea  bool
	dim     int
	maxRows int
	states  []float64
}

// Name implements rtree.Splitter.
func (s *splitHarvester) Name() string { return "rl-split-harvest" }

// Split implements rtree.Splitter.
func (s *splitHarvester) Split(t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	sc := splitState(n.Entries(), t.MinEntries(), s.k, s.byArea)
	if !sc.UseModel {
		return (rtree.MinOverlapSplit{}).Split(t, n)
	}
	if len(s.states)/s.dim < s.maxRows {
		s.states = append(s.states, sc.State...)
	}
	return sc.Enum.Materialize(sc.Cands[s.eng.ChooseAction(sc.State, len(sc.Cands))])
}

// labelWithDQN labels every state row with the trained Q-network's greedy
// action, read through the rl package's stable QValues accessor — the
// distillation targets come from the DQN itself, not a re-implementation
// of its forward pass.
func labelWithDQN(net *mlp.Network, states []float64, dim int, seed int64) []int {
	agent := rl.NewDQNFromNetwork(rl.Config{
		StateDim:   dim,
		NumActions: net.OutputSize(),
		Seed:       seed,
	}, net)
	rows := len(states) / dim
	labels := make([]int, rows)
	for r := 0; r < rows; r++ {
		q := agent.QValues(states[r*dim : (r+1)*dim])
		best := 0
		for i := 1; i < len(q); i++ {
			if q[i] > q[best] {
				best = i
			}
		}
		labels[r] = best
	}
	return labels
}

// sampleChooseState appends one synthetic ChooseSubtree state shaped like
// the featurizer's real output: per-candidate [ΔArea, ΔPeri, ΔOvlp, OR]
// blocks, each delta dimension max-normalized across candidates (so some
// block hits 1.0 unless the dimension degenerates to all-zero, which the
// zero-probability branches reproduce — frequent in practice when an
// insert enlarges nothing), blocks sorted by ΔArea the way chooseState
// sorts its shortlist, and zero padding beyond the active candidates.
// Uniform cube sampling misses all of these invariants and leaves the fit
// blind exactly where the served states live.
func sampleChooseState(rng *rand.Rand, blocks, active int, dst []float64) []float64 {
	type cand struct{ dA, dP, dO, occ float64 }
	cs := make([]cand, active)
	zeroA := rng.Float64() < 0.25
	zeroO := rng.Float64() < 0.4
	var maxA, maxP, maxO float64
	for i := range cs {
		if !zeroA {
			cs[i].dA = rng.Float64()
		}
		cs[i].dP = rng.Float64()
		if !zeroO {
			cs[i].dO = rng.Float64()
		}
		cs[i].occ = rng.Float64()
		maxA = maxf(maxA, cs[i].dA)
		maxP = maxf(maxP, cs[i].dP)
		maxO = maxf(maxO, cs[i].dO)
	}
	for i := range cs {
		cs[i].dA = norm(cs[i].dA, maxA)
		cs[i].dP = norm(cs[i].dP, maxP)
		cs[i].dO = norm(cs[i].dO, maxO)
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].dA < cs[b].dA })
	for _, c := range cs {
		dst = append(dst, c.dA, c.dP, c.dO, c.occ)
	}
	for i := active; i < blocks; i++ {
		dst = append(dst, 0, 0, 0, 0)
	}
	return dst
}

// sampleSplitState appends one synthetic Split state: per-candidate
// [area1, area2, peri1, peri2] with areas and perimeters max-normalized
// across the whole shortlist and candidates ordered by the sort key
// splitState uses (total perimeter by default, total area for the byArea
// ablation).
func sampleSplitState(rng *rand.Rand, k int, byArea bool, dst []float64) []float64 {
	type cand struct{ a1, a2, p1, p2 float64 }
	cs := make([]cand, k)
	var maxA, maxP float64
	for i := range cs {
		cs[i] = cand{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		maxA = maxf(maxA, maxf(cs[i].a1, cs[i].a2))
		maxP = maxf(maxP, maxf(cs[i].p1, cs[i].p2))
	}
	for i := range cs {
		cs[i].a1, cs[i].a2 = norm(cs[i].a1, maxA), norm(cs[i].a2, maxA)
		cs[i].p1, cs[i].p2 = norm(cs[i].p1, maxP), norm(cs[i].p2, maxP)
	}
	sort.Slice(cs, func(a, b int) bool {
		if byArea {
			return cs[a].a1+cs[a].a2 < cs[b].a1+cs[b].a2
		}
		return cs[a].p1+cs[a].p2 < cs[b].p1+cs[b].p2
	})
	for _, c := range cs {
		dst = append(dst, c.a1, c.a2, c.p1, c.p2)
	}
	return dst
}

// distillOne fits the table for one operation from harvested + synthetic
// states and returns it with the agreement rate on those states.
func distillOne(net *mlp.Network, harvested []float64, dim int, sample func(*rand.Rand, []float64) []float64, cfg DistillConfig, rng *rand.Rand) (*policy.Table, float64, int, error) {
	states := append([]float64(nil), harvested...)
	for i := 0; i < cfg.Samples; i++ {
		states = sample(rng, states)
	}
	labels := labelWithDQN(net, states, dim, cfg.Seed)
	tbl, err := policy.Fit(states, dim, labels, net.OutputSize(), policy.FitConfig{
		MaxDepth: cfg.MaxDepth,
		MinLeaf:  cfg.MinLeaf,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	agree := policy.AgreementRate(policy.NewMLP(net), tbl, states, dim)
	return tbl, agree, len(states) / dim, nil
}

// Distill derives the fast inference artifacts from a trained policy: a
// branch-table policy per operation (CART fit over DQN-labeled states). The
// returned bundle shares pol; pol itself is not modified.
func Distill(pol *Policy, cfg DistillConfig) (*PolicyBundle, *DistillReport, error) {
	if err := pol.Validate(); err != nil {
		return nil, nil, err
	}
	if pol.ChooseNet == nil && pol.SplitNet == nil {
		return nil, nil, fmt.Errorf("core: policy has no networks to distill")
	}
	cfg = cfg.withDefaults()
	b := &PolicyBundle{Policy: pol}
	rep := &DistillReport{}

	// Harvest real states by replaying the workload through the MLP policy.
	var ch *chooseHarvester
	var sh *splitHarvester
	if len(cfg.Data) > 0 {
		var chooser rtree.SubtreeChooser = rtree.GuttmanChooser{}
		if pol.ChooseNet != nil {
			ch = &chooseHarvester{
				eng: policy.NewMLP(pol.ChooseNet), k: pol.K, padded: pol.PaddedState,
				dim: pol.ChooseNet.InputSize(), maxRows: cfg.MaxHarvest,
			}
			chooser = ch
		}
		var splitter rtree.Splitter = rtree.MinOverlapSplit{}
		if pol.SplitNet != nil {
			sh = &splitHarvester{
				eng: policy.NewMLP(pol.SplitNet), k: pol.K, byArea: pol.SplitSortByArea,
				dim: pol.SplitNet.InputSize(), maxRows: cfg.MaxHarvest,
			}
			splitter = sh
		}
		tr := rtree.New(rtree.Options{
			MaxEntries: pol.MaxEntries,
			MinEntries: pol.MinEntries,
			Chooser:    chooser,
			Splitter:   splitter,
		})
		for i, o := range cfg.Data {
			tr.Insert(o, i)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	if pol.ChooseNet != nil {
		var harvested []float64
		if ch != nil {
			harvested = ch.states
		}
		blocks := pol.K
		if pol.PaddedState {
			blocks = pol.MaxEntries
		}
		sample := func(rng *rand.Rand, dst []float64) []float64 {
			active := blocks
			if pol.PaddedState {
				active = 2 + rng.Intn(blocks-1)
			}
			return sampleChooseState(rng, blocks, active, dst)
		}
		tbl, agree, rows, err := distillOne(pol.ChooseNet, harvested, pol.ChooseNet.InputSize(), sample, cfg, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("core: distill choose: %w", err)
		}
		b.ChooseTable, rep.ChooseAgreement, rep.ChooseStates = tbl, agree, rows
	}
	if pol.SplitNet != nil {
		var harvested []float64
		if sh != nil {
			harvested = sh.states
		}
		sample := func(rng *rand.Rand, dst []float64) []float64 {
			return sampleSplitState(rng, pol.K, pol.SplitSortByArea, dst)
		}
		tbl, agree, rows, err := distillOne(pol.SplitNet, harvested, pol.SplitNet.InputSize(), sample, cfg, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("core: distill split: %w", err)
		}
		b.SplitTable, rep.SplitAgreement, rep.SplitStates = tbl, agree, rows
	}
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	return b, rep, nil
}
