package sfc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

func TestHilbertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := rng.Uint32() % gridSize
		y := rng.Uint32() % gridSize
		d := HilbertXY2D(x, y)
		gx, gy := HilbertD2XY(d)
		if gx != x || gy != y {
			t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
		}
	}
}

func TestHilbertIsBijectionOnSmallGrid(t *testing.T) {
	// Exhaustively verify an 8x8 sub-grid embeds injectively.
	seen := map[uint64]bool{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			d := HilbertXY2D(x, y)
			if seen[d] {
				t.Fatalf("duplicate key %d for (%d,%d)", d, x, y)
			}
			seen[d] = true
		}
	}
}

// TestHilbertAdjacencyLocality verifies the defining curve property:
// consecutive curve positions are grid neighbors (Manhattan distance 1).
func TestHilbertAdjacencyLocality(t *testing.T) {
	prevX, prevY := HilbertD2XY(0)
	for d := uint64(1); d < 1<<12; d++ {
		x, y := HilbertD2XY(d)
		dx := int64(x) - int64(prevX)
		dy := int64(y) - int64(prevY)
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("positions %d and %d are not adjacent: (%d,%d) vs (%d,%d)", d-1, d, prevX, prevY, x, y)
		}
		prevX, prevY = x, y
	}
}

func TestZOrderInterleaving(t *testing.T) {
	if got := ZOrderXY2D(0, 0); got != 0 {
		t.Fatalf("Z(0,0) = %d", got)
	}
	// x occupies even bits, y odd bits.
	if got := ZOrderXY2D(1, 0); got != 1 {
		t.Fatalf("Z(1,0) = %d, want 1", got)
	}
	if got := ZOrderXY2D(0, 1); got != 2 {
		t.Fatalf("Z(0,1) = %d, want 2", got)
	}
	if got := ZOrderXY2D(3, 3); got != 15 {
		t.Fatalf("Z(3,3) = %d, want 15", got)
	}
	f := func(x, y uint32) bool {
		a := ZOrderXY2D(x, y)
		b := ZOrderXY2D(y, x)
		// Interleaving is injective: swapping distinct coords changes the key.
		return x == y || a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeBounds(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	cases := []struct {
		p        geom.Point
		wantX    uint32
		wantYMax bool
	}{
		{geom.Pt(0, 0), 0, false},
		{geom.Pt(-5, 2), 0, true}, // clamped
		{geom.Pt(1, 1), gridSize - 1, true},
		{geom.Pt(0.5, 0.999999), gridSize / 2, true},
	}
	for _, c := range cases {
		x, y := Quantize(c.p, world)
		if x != c.wantX {
			t.Fatalf("Quantize(%v).x = %d, want %d", c.p, x, c.wantX)
		}
		if c.wantYMax && y >= gridSize {
			t.Fatalf("y out of grid: %d", y)
		}
	}
	// Degenerate world collapses to cell 0.
	if x, y := Quantize(geom.Pt(3, 3), geom.NewRect(3, 3, 3, 3)); x != 0 || y != 0 {
		t.Fatalf("degenerate world: (%d,%d)", x, y)
	}
}

// TestQuantizeFarOutClampsToNearestEdge pins that coordinates beyond the
// int64 range clamp to the near edge of the grid, the same on every CPU:
// a far-right point must land in the last column, never wrap to cell 0.
func TestQuantizeFarOutClampsToNearestEdge(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	for _, v := range []float64{1e14, 1.5e14, 1e300, math.MaxFloat64, math.Inf(1)} {
		if x, y := Quantize(geom.Pt(v, v), world); x != gridSize-1 || y != gridSize-1 {
			t.Errorf("Quantize(%g, %g) = (%d, %d), want (%d, %d)", v, v, x, y, gridSize-1, gridSize-1)
		}
	}
	for _, v := range []float64{-1e300, -math.MaxFloat64, math.Inf(-1), math.NaN()} {
		if x, y := Quantize(geom.Pt(v, v), world); x != 0 || y != 0 {
			t.Errorf("Quantize(%g, %g) = (%d, %d), want (0, 0)", v, v, x, y)
		}
	}
}

// TestHilbertKeyLocality checks the statistical locality that makes
// Hilbert packing work: nearby points receive nearer keys than far points,
// on average.
func TestHilbertKeyLocality(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(3))
	var nearGap, farGap float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		near := geom.Pt(clamp01(p.X+0.001), clamp01(p.Y+0.001))
		far := geom.Pt(rng.Float64(), rng.Float64())
		kp := float64(HilbertKey(p, world))
		nearGap += absf(float64(HilbertKey(near, world)) - kp)
		farGap += absf(float64(HilbertKey(far, world)) - kp)
	}
	if nearGap >= farGap/10 {
		t.Fatalf("Hilbert keys show no locality: near %g vs far %g", nearGap/trials, farGap/trials)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
