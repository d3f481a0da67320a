// Package policy makes RLR-Tree policy inference pluggable. Training
// produces a dense MLP Q-network (internal/mlp, internal/rl); serving an
// insert through it pays a full forward pass per node descent. This package
// defines the Engine interface the insert path calls through and two
// interchangeable backends:
//
//   - MLP: the trained float network, bit-identical to calling the network
//     directly. The reference backend — tree structure under it is pinned
//     by the golden workload digests.
//   - Table: a depth-bounded decision tree distilled from the Q-network
//     (CART-style greedy splits over the 4-feature candidate state, labels
//     from the DQN's argmax), stored as flat heap-ordered arrays and
//     scanned branch-free in the style of the rtree package's hitRect.
//
// All engines are immutable after construction and safe for concurrent
// ChooseAction calls, which is what lets internal/server hot-swap them
// under live inserts with a single atomic pointer store.
package policy

// Backend kind names, used in serialized policies, CLI flags and /stats.
const (
	KindMLP   = "mlp"
	KindTable = "table"
)

// Engine selects an action from a featurized candidate state. numActions
// masks the decision to the first numActions actions (the insert path
// passes the number of real candidates when fewer than k exist);
// implementations clamp it to [1, NumActions()]. Engines must be safe for
// concurrent ChooseAction/ChooseBatch calls.
type Engine interface {
	// Kind returns the backend kind (KindMLP, KindTable).
	Kind() string
	// InputDim returns the expected state dimensionality.
	InputDim() int
	// NumActions returns the number of actions the engine scores.
	NumActions() int
	// ChooseAction returns the selected action for one state, masked to
	// the first numActions actions (<= 0 means all).
	ChooseAction(state []float64, numActions int) int
	// ChooseBatch selects actions for len(states)/InputDim() row-major
	// states under one shared mask, appending to dst and returning it.
	// The batched form exists so training-style consumers (the distiller,
	// parity harnesses) reuse one scratch acquisition per batch.
	ChooseBatch(states []float64, numActions int, dst []int) []int
}

// clampActions normalizes a caller-supplied mask against an engine's
// action count.
func clampActions(numActions, max int) int {
	if numActions <= 0 || numActions > max {
		return max
	}
	return numActions
}

// argmaxPrefix returns the index of the maximum over q[:n]. Ties keep the
// lowest index; NaN entries never win (every comparison is false), matching
// the rl package's action selection exactly.
func argmaxPrefix(q []float64, n int) int {
	best := 0
	for i := 1; i < n; i++ {
		if q[i] > q[best] {
			best = i
		}
	}
	return best
}

// AgreementRate returns the fraction of the row-major states (each dim
// wide) on which the two engines pick the same action with the full action
// set unmasked. It is the parity metric reported by the distiller and
// pinned by the differential tests.
func AgreementRate(ref, eng Engine, states []float64, dim int) float64 {
	if dim <= 0 || len(states) == 0 {
		return 1
	}
	rows := len(states) / dim
	agree := 0
	for r := 0; r < rows; r++ {
		s := states[r*dim : (r+1)*dim]
		if ref.ChooseAction(s, 0) == eng.ChooseAction(s, 0) {
			agree++
		}
	}
	return float64(agree) / float64(rows)
}
