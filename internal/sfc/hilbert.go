// Package sfc implements the space-filling curves used by packing R-Tree
// builders and mapping-based spatial indexes: the Hilbert curve and the
// Z-order (Morton) curve. The RLR-Tree paper's related-work section
// classifies both packing-by-curve R-Trees (Kamel–Faloutsos Hilbert
// packing) and curve-mapped B-Tree indexes; this package provides the
// curve substrate for the packing builders in internal/rtree.
package sfc

import (
	"math"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// Order is the curve resolution in bits per dimension: coordinates are
// quantized to a 2^Order × 2^Order grid, and keys fit in 2·Order bits.
const Order = 16

// gridSize is the number of cells per dimension.
const gridSize = 1 << Order

// HilbertD2XY converts a distance along the order-Order Hilbert curve to
// grid coordinates (the standard bit-manipulation construction).
func HilbertD2XY(d uint64) (x, y uint32) {
	var rx, ry uint64
	t := d
	var xx, yy uint64
	for s := uint64(1); s < gridSize; s *= 2 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				xx = s - 1 - xx
				yy = s - 1 - yy
			}
			xx, yy = yy, xx
		}
		xx += s * rx
		yy += s * ry
		t /= 4
	}
	return uint32(xx), uint32(yy)
}

// HilbertXY2D converts grid coordinates to the distance along the
// order-Order Hilbert curve.
func HilbertXY2D(x, y uint32) uint64 {
	var rx, ry, d uint64
	xx, yy := uint64(x), uint64(y)
	for s := uint64(gridSize / 2); s > 0; s /= 2 {
		if xx&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if yy&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate.
		if ry == 0 {
			if rx == 1 {
				xx = s - 1 - xx
				yy = s - 1 - yy
			}
			xx, yy = yy, xx
		}
	}
	return d
}

// ZOrderXY2D interleaves the bits of x and y into a Morton key.
func ZOrderXY2D(x, y uint32) uint64 {
	return interleave(uint64(x)) | interleave(uint64(y))<<1
}

// interleave spreads the low 32 bits of v into the even bit positions.
func interleave(v uint64) uint64 {
	v &= 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Quantize maps a point inside world onto the curve grid, clamping points
// on or outside the boundary into the outermost cells.
func Quantize(p geom.Point, world geom.Rect) (x, y uint32) {
	qx := quantize1(p.X, world.MinX, world.MaxX)
	qy := quantize1(p.Y, world.MinY, world.MaxY)
	return qx, qy
}

func quantize1(v, lo, hi float64) uint32 {
	span := hi - lo
	if span <= 0 {
		return 0
	}
	// Clamp in float64: converting a float outside the int64 range is
	// implementation-defined in Go (amd64 yields MinInt64, arm64
	// saturates), so a far-out coordinate must never reach the
	// conversion. NaN fails f >= 0 and lands in cell 0.
	f := math.Floor((v - lo) / span * gridSize)
	if !(f >= 0) {
		return 0
	}
	if f >= gridSize {
		return gridSize - 1
	}
	return uint32(f)
}

// HilbertKey returns the Hilbert distance of a point relative to world.
func HilbertKey(p geom.Point, world geom.Rect) uint64 {
	x, y := Quantize(p, world)
	return HilbertXY2D(x, y)
}

// ZOrderKey returns the Morton key of a point relative to world.
func ZOrderKey(p geom.Point, world geom.Rect) uint64 {
	x, y := Quantize(p, world)
	return ZOrderXY2D(x, y)
}
