package music

import (
	"math"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// pair evaluates one folded quadratic form from steering row a exactly
// as Workspace.scan does: X = Σ Re c_d·Re a_d and Y = Σ Im c_d·Im a_d
// in ascending d give aᴴ·H·a = tr + 2(X − Y) at the row's own angle
// and tr + 2(X + Y) at its mirror, whose row is conj(a). It is the
// per-angle reference the scan is pinned against bit for bit.
func (f *diagonalForm) pair(a []complex128) (at, mirror float64) {
	var x, y float64
	for d := 1; d < len(f.sums); d++ {
		x += real(f.sums[d]) * real(a[d])
		y += imag(f.sums[d]) * imag(a[d])
	}
	return f.trace + 2*(x-y), f.trace + 2*(x+y)
}

// scanned evaluates the form at grid index i of angles the way the
// scan does: from the steering vector of the lower angle of i's mirror
// pair, built per angle with SteeringSub (the table's exact
// expression).
func (f *diagonalForm) scanned(arr *rf.Array, angles []float64, i, n int) float64 {
	if j := len(angles) - 1 - i; j < i {
		_, v := f.pair(arr.SteeringSub(angles[j], n))
		return v
	}
	v, _ := f.pair(arr.SteeringSub(angles[i], n))
	return v
}

// The pseudo-spectrum scan's tolerance contract (tier 2): the collapsed
// denominator tr(P) + 2·Σ Re(c_d·a_d) is the direct ‖Uₙᴴa‖² up to
// rounding of tr(P), so it must stay within 1e-13 absolute of
// ProjectionOntoNoise at every grid angle, and peak picking on the
// scanned spectrum must choose the same grid indices as on the direct
// one.
func TestScanMatchesDirectProjection(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(7))
	type fixture struct {
		name string
		opts Options
		x    *cmatrix.Matrix
	}
	noisy := func() *cmatrix.Matrix {
		return synthSnapshots(arr, []float64{0.7, 1.9}, []float64{1, 0.6}, 24, 0.05, true, rng)
	}
	fixtures := []fixture{
		{"default", Options{}, noisy()},
		{"grid181", Options{GridSize: 181}, noisy()},
		{"sources3", Options{Sources: 3}, noisy()},
		{"nosmoothing", Options{NoSmoothing: true}, noisy()},
		{"subarray4", Options{Subarray: 4, Threshold: 5}, noisy()},
		// Noise-free sources on exact grid angles: the true denominator
		// is zero there, the regime where cancellation in the collapsed
		// form is largest relative to the result.
		{"exact-null", Options{Sources: 2}, synthSnapshots(arr, []float64{math.Pi * 100 / 360, math.Pi * 250 / 360}, []float64{1, 0.6}, 24, 0, false, rng)},
	}
	for _, fx := range fixtures {
		ws, err := NewWorkspace(arr, fx.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ws.Compute(fx.x)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		var proj diagonalForm
		proj.foldProjector(res.Noise)
		direct := make([]float64, len(res.Angles))
		worst, smallest := 0.0, math.Inf(1)
		for i, th := range res.Angles {
			collapsed := proj.scanned(arr, res.Angles, i, res.Subarray)
			if res.Spectrum[i] != pseudo(collapsed) {
				t.Fatalf("%s: Spectrum[%d] = %v is not 1/%v", fx.name, i, res.Spectrum[i], collapsed)
			}
			want := ProjectionOntoNoise(arr.SteeringSub(th, res.Subarray), res.Noise)
			if d := math.Abs(collapsed - want); d > worst {
				worst = d
			}
			smallest = math.Min(smallest, want)
			if want < 1e-18 {
				want = 1e-18
			}
			direct[i] = 1 / want
		}
		t.Logf("%s: max |collapsed−direct| %.2g, smallest direct denominator %.2g", fx.name, worst, smallest)
		if worst > 1e-13 {
			t.Errorf("%s: collapsed denominator off the direct form by %g (> 1e-13)", fx.name, worst)
		}
		for _, ratio := range []float64{0.03, 0.3} {
			got, want := FindPeaks(res.Angles, res.Spectrum, ratio), FindPeaks(res.Angles, direct, ratio)
			if len(got) != len(want) {
				t.Fatalf("%s ratio %v: %d peaks, direct form %d", fx.name, ratio, len(got), len(want))
			}
			for k := range want {
				if got[k].Index != want[k].Index {
					t.Fatalf("%s ratio %v: peak %d at index %d, direct form %d", fx.name, ratio, k, got[k].Index, want[k].Index)
				}
			}
		}
	}
}

// fold and pair must agree with the expanded quadratic form aᴴ·H·a on
// an arbitrary Hermitian matrix, at a row's angle θ and at its mirror
// π−θ, and a subarray form must ignore the tail of a full-array row.
func TestDiagonalFoldMatchesQuadraticForm(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(3))
	x := synthSnapshots(arr, []float64{0.9, 2.3}, []float64{1, 0.8}, 16, 0.2, false, rng)
	r, err := Correlation(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 5} {
		h := cmatrix.New(n, n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				h.Set(i, k, r.At(i, k))
			}
		}
		var f diagonalForm
		f.fold(h)
		expanded := func(th float64) float64 {
			a := arr.Steering(th)
			var q complex128
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					q += complex(real(a[i]), -imag(a[i])) * h.At(i, k) * a[k]
				}
			}
			return real(q)
		}
		for _, th := range []float64{0, 0.4, 1.3, 2.2, math.Pi} {
			at, mirror := f.pair(arr.Steering(th))
			if want := expanded(th); math.Abs(at-want) > 1e-12*math.Abs(want) {
				t.Fatalf("n=%d θ=%v: form = %v, expanded form %v", n, th, at, want)
			}
			if want := expanded(math.Pi - th); math.Abs(mirror-want) > 1e-12*math.Abs(want) {
				t.Fatalf("n=%d π−θ for θ=%v: form = %v, expanded form %v", n, th, mirror, want)
			}
		}
	}
}
