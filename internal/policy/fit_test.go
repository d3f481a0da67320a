package policy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/mlp"
)

func TestFitSeparable(t *testing.T) {
	// Axis-aligned separable labels: action = (x > 0.5) XOR-free simple
	// quadrant rule; a depth-2 tree represents it exactly.
	var states []float64
	var labels []int
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		x, y := rng.Float64(), rng.Float64()
		states = append(states, x, y)
		switch {
		case x <= 0.5 && y <= 0.5:
			labels = append(labels, 0)
		case x <= 0.5:
			labels = append(labels, 1)
		case y <= 0.5:
			labels = append(labels, 2)
		default:
			labels = append(labels, 3)
		}
	}
	tbl, err := Fit(states, 2, labels, 4, FitConfig{MaxDepth: 4, MinLeaf: 1})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	for i := 0; i < 400; i++ {
		if got := tbl.Eval(states[2*i : 2*i+2]); got != labels[i] {
			t.Fatalf("row %d (%v): fit predicts %d, want %d",
				i, states[2*i:2*i+2], got, labels[i])
		}
	}
}

func TestFitPureAndTiny(t *testing.T) {
	// A pure node never splits: the whole table collapses to one action.
	states := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	labels := []int{2, 2, 2}
	tbl, err := Fit(states, 2, labels, 3, FitConfig{MaxDepth: 3})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if tbl.InternalNodes() != 0 {
		t.Fatalf("pure fit has %d internal nodes, want 0", tbl.InternalNodes())
	}
	for _, a := range tbl.Leaf {
		if a != 2 {
			t.Fatalf("pure fit leaf %d, want 2", a)
		}
	}
	// Fewer than 2*MinLeaf samples: majority leaf, no split.
	tbl, err = Fit([]float64{0.1, 0.9, 0.2}, 1, []int{0, 0, 1}, 2, FitConfig{MaxDepth: 2, MinLeaf: 2})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if tbl.InternalNodes() != 0 {
		t.Fatalf("tiny fit split anyway (%d internal nodes)", tbl.InternalNodes())
	}
	if tbl.Leaf[0] != 0 {
		t.Fatalf("tiny fit leaf %d, want majority 0", tbl.Leaf[0])
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var states []float64
	var labels []int
	for i := 0; i < 500; i++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		states = append(states, x, y, z)
		labels = append(labels, rng.Intn(3))
	}
	a, err := Fit(states, 3, labels, 3, FitConfig{MaxDepth: 5, MinLeaf: 3})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	b, err := Fit(states, 3, labels, 3, FitConfig{MaxDepth: 5, MinLeaf: 3})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fit is not deterministic for identical input")
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, 2, nil, 2, FitConfig{}); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := Fit([]float64{1, 2, 3}, 2, []int{0}, 2, FitConfig{}); err == nil {
		t.Fatal("ragged states accepted")
	}
	if _, err := Fit([]float64{1, 2}, 2, []int{5}, 2, FitConfig{}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Fit([]float64{1, math.NaN()}, 2, []int{0}, 2, FitConfig{}); err == nil {
		t.Fatal("NaN state accepted")
	}
	if _, err := Fit([]float64{1, math.Inf(1)}, 2, []int{0}, 2, FitConfig{}); err == nil {
		t.Fatal("Inf state accepted")
	}
}

// gridStates enumerates the res^dim lattice over [0,1]^dim row-major.
func gridStates(dim, res int) []float64 {
	total := 1
	for i := 0; i < dim; i++ {
		total *= res
	}
	states := make([]float64, 0, total*dim)
	idx := make([]int, dim)
	for n := 0; n < total; n++ {
		for d := 0; d < dim; d++ {
			states = append(states, float64(idx[d])/float64(res-1))
		}
		for d := dim - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < res {
				break
			}
			idx[d] = 0
		}
	}
	return states
}

// TestFitDistillsMLPGridDifferential is the satellite pin: distill a table
// from an MLP's argmax labels over the exhaustive 4-feature state cube,
// then replay the full grid through both engines and require ≥95%
// agreement (the ISSUE's golden-workload bar, applied to the densest
// enumerable state set). Held-out generalization is checked on an offset
// grid that shares no points with the training lattice.
func TestFitDistillsMLPGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	const dim, res = 4, 9
	net := mlp.New(rng, mlp.SELU, dim, 32, 2)
	ref := NewMLP(net)

	train := gridStates(dim, res) // 9^4 = 6561 states
	labels := ref.ChooseBatch(train, 0, nil)
	tbl, err := Fit(train, dim, labels, 2, FitConfig{MaxDepth: 8, MinLeaf: 2})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}

	rate := AgreementRate(ref, tbl, train, dim)
	t.Logf("grid agreement (train, %d states): %.4f", len(train)/dim, rate)
	if rate < 0.95 {
		t.Fatalf("grid agreement %.4f below 0.95", rate)
	}

	holdout := make([]float64, 0, len(train))
	for i := 0; i < 4000*dim; i++ {
		holdout = append(holdout, rng.Float64())
	}
	hRate := AgreementRate(ref, tbl, holdout, dim)
	t.Logf("held-out agreement (%d random states): %.4f", len(holdout)/dim, hRate)
	if hRate < 0.90 {
		t.Fatalf("held-out agreement %.4f below 0.90", hRate)
	}

	// The fitted table must stay safe and in-range under poisoned slots,
	// like the hand-built table pin.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for slot := 0; slot < dim; slot++ {
			state := []float64{0.3, 0.6, 0.2, 0.8}
			state[slot] = bad
			got := tbl.Eval(state)
			if got != refEval(tbl, state) {
				t.Fatalf("bad=%v slot=%d: branch-free and reference walks disagree", bad, slot)
			}
			if got < 0 || got >= tbl.Actions {
				t.Fatalf("bad=%v slot=%d: action %d out of range", bad, slot, got)
			}
		}
	}
}

// TestFitDistillsRealStateShape runs the differential at the real serving
// state shape (4 features × k=2 candidates = dim 8) with sampled states —
// the 8-cube is not enumerable.
func TestFitDistillsRealStateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	const dim = 8
	net := mlp.New(rng, mlp.SELU, dim, 64, 2)
	ref := NewMLP(net)

	train := make([]float64, 0, 20000*dim)
	for i := 0; i < 20000*dim; i++ {
		train = append(train, rng.Float64())
	}
	labels := ref.ChooseBatch(train, 0, nil)
	tbl, err := Fit(train, dim, labels, 2, FitConfig{MaxDepth: 8, MinLeaf: 4})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	rate := AgreementRate(ref, tbl, train, dim)
	t.Logf("dim-8 table agreement: %.4f", rate)
	if rate < 0.95 {
		t.Fatalf("dim-8 table agreement %.4f below 0.95", rate)
	}
}

// TestEnginesMaskedSelection pins the masked semantics across both
// backends: with numActions=1 every engine must return 0 regardless of
// state, matching the insert path's single-candidate case.
func TestEnginesMaskedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := mlp.New(rng, mlp.SELU, 4, 8, 3)
	engines := []Engine{NewMLP(net)}
	tbl, err := Fit(gridStates(4, 5), 4, NewMLP(net).ChooseBatch(gridStates(4, 5), 0, nil), 3, FitConfig{MaxDepth: 4, MinLeaf: 1})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	engines = append(engines, tbl)
	for _, eng := range engines {
		for trial := 0; trial < 200; trial++ {
			state := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			if a := eng.ChooseAction(state, 1); a != 0 {
				t.Fatalf("%s: mask 1 returned %d", eng.Kind(), a)
			}
			if a := eng.ChooseAction(state, 2); a > 1 {
				t.Fatalf("%s: mask 2 returned %d", eng.Kind(), a)
			}
			if a := eng.ChooseAction(state, 0); a < 0 || a > 2 {
				t.Fatalf("%s: unmasked returned %d", eng.Kind(), a)
			}
		}
		// Batched and single-state forms must agree.
		states := make([]float64, 0, 50*4)
		for i := 0; i < 50*4; i++ {
			states = append(states, rng.Float64())
		}
		batch := eng.ChooseBatch(states, 2, nil)
		for r := 0; r < 50; r++ {
			if one := eng.ChooseAction(states[r*4:(r+1)*4], 2); one != batch[r] {
				t.Fatalf("%s row %d: batch %d vs single %d", eng.Kind(), r, batch[r], one)
			}
		}
	}
}

func BenchmarkTableEval(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	const dim = 8
	net := mlp.New(rng, mlp.SELU, dim, 64, 2)
	ref := NewMLP(net)
	train := make([]float64, 0, 5000*dim)
	for i := 0; i < 5000*dim; i++ {
		train = append(train, rng.Float64())
	}
	tbl, err := Fit(train, dim, ref.ChooseBatch(train, 0, nil), 2, FitConfig{MaxDepth: 8, MinLeaf: 4})
	if err != nil {
		b.Fatalf("fit: %v", err)
	}
	state := train[:dim]
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += tbl.ChooseAction(state, 2)
	}
	_ = sink
}

func BenchmarkEngineChooseAction(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const dim = 8
	net := mlp.New(rng, mlp.SELU, dim, 64, 2)
	ref := NewMLP(net)
	train := make([]float64, 0, 5000*dim)
	for i := 0; i < 5000*dim; i++ {
		train = append(train, rng.Float64())
	}
	tbl, err := Fit(train, dim, ref.ChooseBatch(train, 0, nil), 2, FitConfig{MaxDepth: 8, MinLeaf: 4})
	if err != nil {
		b.Fatalf("fit: %v", err)
	}
	engines := map[string]Engine{
		"mlp":   ref,
		"table": tbl,
	}
	state := train[:dim]
	for _, name := range []string{"mlp", "table"} {
		eng := engines[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += eng.ChooseAction(state, 2)
			}
			_ = sink
		})
	}
}
