package rf

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"
)

func TestSteeringTableMatchesSteeringSub(t *testing.T) {
	a := mustArray(t, 8)
	tab, err := NewSteeringTable(a, 181, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 181 || len(tab.Angles) != 181 {
		t.Fatalf("Len = %d, angles = %d", tab.Len(), len(tab.Angles))
	}
	grid := AngleGrid(181)
	for i, th := range grid {
		if tab.Angles[i] != th {
			t.Fatalf("Angles[%d] = %v, want %v", i, tab.Angles[i], th)
		}
		// Exact equality: the table must reproduce Steering and
		// SteeringSub bit for bit so cached spectra are bit-identical to
		// uncached ones.
		got := tab.Steering(i)
		if len(got) != a.Elements {
			t.Fatalf("steering row %d: len = %d", i, len(got))
		}
		for m, want := range a.Steering(th) {
			if got[m] != want {
				t.Fatalf("steering[%d][%d] = %v, want %v", i, m, got[m], want)
			}
		}
		for m, want := range a.SteeringSub(th, 5) {
			if got[m] != want {
				t.Fatalf("steering[%d][%d] = %v, want SteeringSub %v", i, m, got[m], want)
			}
		}
		// The beamformer conjugates the row instead of keeping a weight
		// table; that must equal the directly computed weight.
		for m := range got {
			if want := cmplx.Exp(complex(0, a.Omega(m, th))); cmplx.Conj(got[m]) != want {
				t.Fatalf("conj(steering[%d][%d]) = %v, want weight %v", i, m, cmplx.Conj(got[m]), want)
			}
		}
	}
}

func TestNewSteeringTableValidation(t *testing.T) {
	a := mustArray(t, 4)
	for _, sub := range []int{0, -1, 5} {
		if _, err := NewSteeringTable(a, 91, sub); !errors.Is(err, ErrBadArray) {
			t.Errorf("sub=%d: want ErrBadArray, got %v", sub, err)
		}
	}
	if _, err := NewSteeringTable(a, 91, 4); err != nil {
		t.Errorf("sub=Elements must be accepted: %v", err)
	}
}

func TestSteeringTableForCaches(t *testing.T) {
	a := mustArray(t, 8)
	t1, err := SteeringTableFor(a, 181, 5)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := SteeringTableFor(a, 181, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("same geometry did not hit the cache")
	}
	// A distinct Array value with identical geometry shares the entry:
	// the key is the geometry, not the pointer.
	b := mustArray(t, 8)
	t3, err := SteeringTableFor(b, 181, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t3 != t1 {
		t.Error("equal geometry through a different pointer missed the cache")
	}
	// Different parameters get their own table.
	t4, err := SteeringTableFor(a, 91, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t4 == t1 {
		t.Error("different grid size shared a table")
	}
}

func TestGridBinMatchesLinearScan(t *testing.T) {
	grid := AngleGrid(181)
	nearest := func(theta float64) int {
		best, bestD := 0, math.Inf(1)
		for i, g := range grid {
			if d := math.Abs(g - theta); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	for theta := -0.5; theta <= math.Pi+0.5; theta += 0.013 {
		if got, want := GridBin(theta, 181), nearest(theta); got != want {
			t.Fatalf("GridBin(%v) = %d, linear scan = %d", theta, got, want)
		}
	}
	if GridBin(1.0, 1) != 0 || GridBin(1.0, 0) != 0 {
		t.Error("degenerate grids must map to bin 0")
	}
}
