package pmusic

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/music"
)

// foldedProjector folds P = U·Uᴴ into its trace and diagonal sums
// c_d = Σᵢ P[i,i+d], the quantities the MUSIC scan reads.
func foldedProjector(u *cmatrix.Matrix) (float64, []complex128) {
	n, q := u.Rows, u.Cols
	var tr float64
	for _, v := range u.Data {
		tr += real(v)*real(v) + imag(v)*imag(v)
	}
	sums := make([]complex128, n)
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			for j := 0; j < q; j++ {
				sums[d] += u.At(i, j) * cmplx.Conj(u.At(i+d, j))
			}
		}
	}
	return tr, sums
}

// The real-valued subspace stage (EigenAuto) against the complex
// Hermitian one (EigenQR) over odd and even subarray lengths, default,
// forced-source and custom-subarray settings, noisy and near-noise-free
// coherent fixtures. The source counts must be identical, eigenvalues
// within 1e-12·λmax, the folded noise projectors within 1e-12, and peak
// picking on the P-MUSIC power must choose the same grid indices.
//
// 32 snapshots keep the noise eigenvalues of every fixture within the
// threshold ratio of each other, so the estimated count is the true
// path count and the noise subspace is separated from the signal by a
// gap: a projector split inside a cluster of near-equal eigenvalues is
// not defined, and no two solvers need agree on it.
func TestRealPathMatchesHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var worstEig, worstProj float64
	for m := 4; m <= 8; m++ {
		arr := testArray(t, m)
		settings := []music.Options{
			{},
			{Sources: 2},
			{Subarray: m - 1},
		}
		for _, noise := range []float64{0.05, 1e-5} {
			for _, mo := range settings {
				name := fmt.Sprintf("M=%d noise=%g %+v", m, noise, mo)
				x := synth(arr, []float64{0.9 + 0.1*float64(m), 2.3}, []float64{1, 0.6}, 32, noise, rng)
				uni, err := music.Compute(x, arr, mo)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := mo
				ref.Eigensolver = music.EigenQR
				herm, err := music.Compute(x, arr, ref)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if uni.Sources != herm.Sources || uni.Sources != 2 {
					t.Fatalf("%s: sources %d (unitary) vs %d (Hermitian), want 2", name, uni.Sources, herm.Sources)
				}
				lmax := herm.Eigen.Values[0]
				for i, v := range herm.Eigen.Values {
					d := math.Abs(uni.Eigen.Values[i] - v)
					worstEig = math.Max(worstEig, d/lmax)
					if d > 1e-12*lmax {
						t.Fatalf("%s: eigenvalue %d = %v, Hermitian %v (|Δ|/λmax %g)", name, i, uni.Eigen.Values[i], v, d/lmax)
					}
				}
				rtr, rs := foldedProjector(uni.Noise)
				htr, hs := foldedProjector(herm.Noise)
				worst := math.Abs(rtr - htr)
				for d := range rs {
					worst = math.Max(worst, cmplx.Abs(rs[d]-hs[d]))
				}
				worstProj = math.Max(worstProj, worst)
				if worst > 1e-12 {
					t.Fatalf("%s: folded noise projectors differ by %g", name, worst)
				}

				rp, err := Compute(x, arr, Options{Music: mo})
				if err != nil {
					t.Fatal(err)
				}
				hp, err := Compute(x, arr, Options{Music: ref})
				if err != nil {
					t.Fatal(err)
				}
				for _, ratio := range []float64{0.03, 0.3} {
					got, want := rp.Peaks(ratio), hp.Peaks(ratio)
					if len(got) != len(want) {
						t.Fatalf("%s ratio %v: %d peaks, Hermitian %d", name, ratio, len(got), len(want))
					}
					for k := range want {
						if got[k].Index != want[k].Index {
							t.Fatalf("%s ratio %v: peak %d at index %d, Hermitian %d", name, ratio, k, got[k].Index, want[k].Index)
						}
					}
				}
			}
		}
	}
	t.Logf("worst |Δλ|/λmax %.2g, worst folded-projector difference %.2g", worstEig, worstProj)
}
