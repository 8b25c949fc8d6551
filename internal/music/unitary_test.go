package music

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
)

// denseQ builds the L×L unitary of unitary.go as a dense matrix from
// its block definition.
func denseQ(l int) *cmatrix.Matrix {
	q := cmatrix.New(l, l)
	s := complex(math.Sqrt2/2, 0)
	k := l / 2
	for i := 0; i < k; i++ {
		q.Set(i, i, s)             // I
		q.Set(i, l-k+i, s*1i)      // jI
		q.Set(l-1-i, i, s)         // J
		q.Set(l-1-i, l-k+i, -s*1i) // −jJ
	}
	if l%2 == 1 {
		q.Set(k, k, 1)
	}
	return q
}

func mustMul(t *testing.T, a, b *cmatrix.Matrix) *cmatrix.Matrix {
	t.Helper()
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The derivation behind the real-valued stage, checked densely for
// even and odd L: Q is unitary with J·Q = Q*, realSmoothed's C equals
// Qᴴ·R_fb·Q for the forward–backward-smoothed R_fb (whose imaginary
// part must vanish), and applyQ is the product Q·E.
func TestUnitaryTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for m := 4; m <= 9; m++ {
		arr := testArray(t, m)
		x := synthSnapshots(arr, []float64{0.8, 2.0}, []float64{1, 0.7}, 12, 0.1, true, rng)
		r, err := Correlation(x)
		if err != nil {
			t.Fatal(err)
		}
		for l := 2; l <= m; l++ {
			q := denseQ(l)
			qh := q.ConjT()
			id := mustMul(t, qh, q)
			for i := 0; i < l; i++ {
				for j := 0; j < l; j++ {
					want := complex(0, 0)
					if i == j {
						want = 1
					}
					if cmplx.Abs(id.At(i, j)-want) > 1e-15 {
						t.Fatalf("L=%d: QᴴQ[%d,%d] = %v", l, i, j, id.At(i, j))
					}
					if q.At(l-1-i, j) != cmplx.Conj(q.At(i, j)) {
						t.Fatalf("L=%d: (J·Q)[%d,%d] = %v, conj(Q) %v", l, i, j, q.At(l-1-i, j), cmplx.Conj(q.At(i, j)))
					}
				}
			}
			fb, err := SmoothForwardBackward(r, l)
			if err != nil {
				t.Fatal(err)
			}
			want := mustMul(t, mustMul(t, qh, fb), q)
			c := make([]float64, l*l)
			realSmoothed(c, cmatrix.New(l, l), r)
			tol := 1e-14 * (1 + fb.FrobNorm())
			for i := 0; i < l; i++ {
				for j := 0; j < l; j++ {
					w := want.At(i, j)
					if math.Abs(imag(w)) > tol || math.Abs(c[i*l+j]-real(w)) > tol {
						t.Fatalf("M=%d L=%d: C[%d,%d] = %v, Qᴴ·R_fb·Q = %v", m, l, i, j, c[i*l+j], w)
					}
				}
			}
			e := randomReal(l*l, rng)
			for col0 := 0; col0 < l; col0++ {
				got := cmatrix.New(l, l-col0)
				applyQ(got, e, col0)
				for i := 0; i < l; i++ {
					for j := 0; j < l-col0; j++ {
						var w complex128
						for p := 0; p < l; p++ {
							w += q.At(i, p) * complex(e[p*l+col0+j], 0)
						}
						if cmplx.Abs(got.At(i, j)-w) > 1e-15 {
							t.Fatalf("L=%d col0=%d: (Q·E)[%d,%d] = %v, want %v", l, col0, i, j, got.At(i, j), w)
						}
					}
				}
			}
		}
	}
}

func randomReal(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The real-valued path keeps the complex path's input check: a
// correlation that is not Hermitian is rejected with ErrNotHermitian,
// not decomposed.
func TestRealPathRejectsNonHermitian(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(23))
	r, err := Correlation(synthSnapshots(arr, []float64{1.1}, []float64{1}, 16, 0.05, false, rng))
	if err != nil {
		t.Fatal(err)
	}
	r.Set(1, 2, r.At(1, 2)+0.5)
	for _, solver := range []Eigensolver{EigenAuto, EigenQR} {
		ws, err := NewWorkspace(arr, Options{Eigensolver: solver})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.ComputeFromCorrelation(r); !errors.Is(err, cmatrix.ErrNotHermitian) {
			t.Fatalf("%v: err = %v, want ErrNotHermitian", solver, err)
		}
	}
}

// If the real QL exhausts its budget the complex solver takes over. A
// NaN in the correlation is one input that makes the real QL give up;
// the workspace must then answer from the complex path (eig non-nil),
// exactly as EigenAuto did before the real-valued stage existed.
func TestRealPathFallsBackToComplex(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(29))
	r, err := Correlation(synthSnapshots(arr, []float64{1.1}, []float64{1}, 16, 0.05, false, rng))
	if err != nil {
		t.Fatal(err)
	}
	r.Set(2, 2, complex(math.NaN(), 0))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	realSmoothed(ws.c, ws.sm, r)
	if err := ws.seig.EigenSymmetric(ws.c, ws.sm.Rows); !errors.Is(err, cmatrix.ErrNoConverge) {
		t.Fatalf("real QL on NaN input: err = %v, want ErrNoConverge", err)
	}
	_, eig, err := ws.decompose(r)
	if err != nil {
		t.Fatal(err)
	}
	if eig == nil {
		t.Fatal("decompose stayed on the real-valued path after the real QL failed")
	}
}
