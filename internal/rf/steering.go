// Steering tables: the precomputed half of the P-MUSIC hot path.
//
// Every spectrum scan evaluates the same steering vectors a(θ) at the
// same grid angles — a pure function of the array geometry and the
// grid size, which never change during a session. SteeringTable
// computes them once into one flat row-major matrix so the
// per-spectrum inner loops are pure table walks with zero cmplx.Exp
// calls and zero allocation per angle. Tables are immutable after
// construction and safe to share across goroutines; SteeringTableFor
// memoizes them process-wide by array geometry.
package rf

import (
	"fmt"
	"math/cmplx"
	"sync"

	"dwatch/internal/geom"
)

// SteeringTable holds one full-array steering row a(θᵢ) per grid
// angle. The spatially smoothed MUSIC scan reads the first Sub entries
// of a row; the Eq. 13 beamformer uses the whole row, its weights
// e^{+jω(m,θ)} being the row's conjugates (cmplx.Exp is odd in its
// imaginary part, so conj(a_m) equals the directly computed weight bit
// for bit). The table is read-only after construction.
type SteeringTable struct {
	Elements int       // full array size M (row length)
	Sub      int       // subarray length L of the smoothed MUSIC scan
	Angles   []float64 // AngleGrid(n); shared — callers must not mutate

	steer []complex128 // len(Angles)×M, row-major: a(θᵢ)
}

// NewSteeringTable precomputes the table for an array, an angle-grid
// size, and a subarray length. Entries are built with the exact same
// expression as Array.Steering, so consumers are bit-identical to the
// uncached per-angle path.
func NewSteeringTable(arr *Array, gridSize, sub int) (*SteeringTable, error) {
	if sub < 1 || sub > arr.Elements {
		return nil, fmt.Errorf("%w: subarray length %d for %d elements", ErrBadArray, sub, arr.Elements)
	}
	angles := AngleGrid(gridSize)
	t := &SteeringTable{
		Elements: arr.Elements,
		Sub:      sub,
		Angles:   angles,
		steer:    make([]complex128, len(angles)*arr.Elements),
	}
	for i, th := range angles {
		row := t.Steering(i)
		for m := range row {
			row[m] = cmplx.Exp(complex(0, -arr.Omega(m, th)))
		}
	}
	return t, nil
}

// Len returns the number of grid angles.
func (t *SteeringTable) Len() int { return len(t.Angles) }

// Steering returns the full-array steering vector at grid angle i —
// identical to Array.Steering(Angles[i]); its first Sub entries are
// Array.SteeringSub(Angles[i], Sub). The slice aliases the table and
// must not be modified.
func (t *SteeringTable) Steering(i int) []complex128 {
	return t.steer[i*t.Elements : (i+1)*t.Elements]
}

// tableKey identifies a steering table by array geometry (by value, so
// distinct Array instances with equal geometry share one table) plus
// the grid and subarray sizes.
type tableKey struct {
	origin, axis    geom.Point
	elements        int
	spacing, lambda float64
	gridSize, sub   int
}

var tableCache sync.Map // tableKey → *SteeringTable

// SteeringTableFor returns the memoized steering table for the given
// array geometry, grid size, and subarray length, computing it on first
// use. Concurrent callers may race to build the first table; one copy
// wins and the rest are discarded, so the returned table is always safe
// to share read-only across goroutines.
func SteeringTableFor(arr *Array, gridSize, sub int) (*SteeringTable, error) {
	key := tableKey{
		origin: arr.Origin, axis: arr.Axis,
		elements: arr.Elements, spacing: arr.Spacing, lambda: arr.Lambda,
		gridSize: gridSize, sub: sub,
	}
	if v, ok := tableCache.Load(key); ok {
		return v.(*SteeringTable), nil
	}
	t, err := NewSteeringTable(arr, gridSize, sub)
	if err != nil {
		return nil, err
	}
	v, _ := tableCache.LoadOrStore(key, t)
	return v.(*SteeringTable), nil
}
