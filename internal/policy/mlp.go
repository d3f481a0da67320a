package policy

import (
	"sync"

	"github.com/rlr-tree/rlrtree/internal/mlp"
)

// MLP is the reference engine: the trained float network with a masked
// argmax over its Q-values, arithmetically identical to the pre-refactor
// insert path (mlp.ForwardBatch is bit-identical per row to Forward). A
// sync.Pool of batch scratches makes concurrent ChooseAction calls safe
// and allocation-free in steady state; the network itself is never
// mutated.
type MLP struct {
	net  *mlp.Network
	pool sync.Pool
}

// NewMLP wraps a network as an Engine. The caller must not train the
// network afterwards.
func NewMLP(net *mlp.Network) *MLP {
	m := &MLP{net: net}
	m.pool.New = func() any { return new(mlp.BatchScratch) }
	return m
}

// Network returns the wrapped float network.
func (m *MLP) Network() *mlp.Network { return m.net }

// Kind implements Engine.
func (m *MLP) Kind() string { return KindMLP }

// InputDim implements Engine.
func (m *MLP) InputDim() int { return m.net.InputSize() }

// NumActions implements Engine.
func (m *MLP) NumActions() int { return m.net.OutputSize() }

// ChooseAction implements Engine.
func (m *MLP) ChooseAction(state []float64, numActions int) int {
	sc := m.pool.Get().(*mlp.BatchScratch)
	a := argmaxPrefix(m.net.ForwardBatch(state, sc), clampActions(numActions, m.net.OutputSize()))
	m.pool.Put(sc)
	return a
}

// ChooseBatch implements Engine, amortizing one scratch acquisition and
// one batched forward over all rows.
func (m *MLP) ChooseBatch(states []float64, numActions int, dst []int) []int {
	in, out := m.net.InputSize(), m.net.OutputSize()
	n := clampActions(numActions, out)
	sc := m.pool.Get().(*mlp.BatchScratch)
	q := m.net.ForwardBatch(states, sc)
	for r := 0; r*in+in <= len(states); r++ {
		dst = append(dst, argmaxPrefix(q[r*out:(r+1)*out], n))
	}
	m.pool.Put(sc)
	return dst
}
