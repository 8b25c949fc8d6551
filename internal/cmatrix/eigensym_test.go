package cmatrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomSymmetric(n int, rng *rand.Rand) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = rng.NormFloat64()
		for j := i + 1; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j], a[j*n+i] = v, v
		}
	}
	return a
}

// symAsHermitian is a real symmetric matrix as a complex one, for the
// Hermitian reference solver.
func symAsHermitian(a []float64, n int) *Matrix {
	m := New(n, n)
	for i, v := range a {
		m.Data[i] = complex(v, 0)
	}
	return m
}

// checkSymEigen verifies A·v = λ·v, orthonormal vectors and descending
// values for the workspace's last decomposition of a.
func checkSymEigen(t *testing.T, ws *SymEigenWorkspace, a []float64, n int) {
	t.Helper()
	var scale float64
	for _, v := range a {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-12 * float64(n) * (1 + scale)
	vals, vecs := ws.Values, ws.Vectors
	for j := 0; j < n; j++ {
		if j > 0 && vals[j] > vals[j-1] {
			t.Fatalf("n=%d: eigenvalues not descending: %v", n, vals)
		}
		for i := 0; i < n; i++ {
			var av float64
			for k := 0; k < n; k++ {
				av += a[i*n+k] * vecs[k*n+j]
			}
			if d := math.Abs(av - vals[j]*vecs[i*n+j]); d > tol {
				t.Fatalf("n=%d: A·v − λ·v = %g for pair %d", n, d, j)
			}
		}
		for k := j; k < n; k++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += vecs[i*n+j] * vecs[i*n+k]
			}
			want := 0.0
			if k == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12*float64(n) {
				t.Fatalf("n=%d: vᵢ·vⱼ = %v for columns %d,%d", n, dot, j, k)
			}
		}
	}
}

// The real solver must agree with the complex Hermitian solver on the
// same matrix: eigenvalues within 1e-12·(1+‖A‖_F), and equal
// projectors onto every trailing block split at a spectral gap.
func TestEigenSymmetricMatchesHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ws SymEigenWorkspace
	var hw EigenWorkspace
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12} {
		for trial := 0; trial < 8; trial++ {
			a := randomSymmetric(n, rng)
			if err := ws.EigenSymmetric(a, n); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			checkSymEigen(t, &ws, a, n)
			h := symAsHermitian(a, n)
			ref, err := hw.EigenHermitianQR(h)
			if err != nil {
				t.Fatal(err)
			}
			tol := eigTol(h)
			for i, v := range ref.Values {
				if math.Abs(ws.Values[i]-v) > tol {
					t.Fatalf("n=%d: eigenvalue %d = %v, Hermitian solver %v", n, i, ws.Values[i], v)
				}
			}
			got := symAsHermitian(ws.Vectors, n)
			for split := 1; split < n; split++ {
				if ref.Values[split-1]-ref.Values[split] < 1e-3 {
					continue // no gap: the split projector is not defined
				}
				d := projectorDiff(t, subspaceProjector(t, got, split, n), subspaceProjector(t, ref.Vectors, split, n))
				if d > 1e-10 {
					t.Fatalf("n=%d split %d: projectors differ by %g", n, split, d)
				}
			}
		}
	}
}

func TestEigenSymmetricEdgeCases(t *testing.T) {
	var ws SymEigenWorkspace
	for name, tc := range map[string]struct {
		a    []float64
		n    int
		want []float64
	}{
		"one-by-one": {[]float64{-2.5}, 1, []float64{-2.5}},
		"zero":       {make([]float64, 9), 3, []float64{0, 0, 0}},
		"diagonal":   {[]float64{1, 0, 0, 0, 3, 0, 0, 0, 2}, 3, []float64{3, 2, 1}},
		"tridiagonal": {[]float64{
			2, 1, 0, 0,
			1, 2, 1, 0,
			0, 1, 2, 1,
			0, 0, 1, 2,
		}, 4, []float64{2 + 2*math.Cos(math.Pi/5), 2 + 2*math.Cos(2*math.Pi/5), 2 + 2*math.Cos(3*math.Pi/5), 2 + 2*math.Cos(4*math.Pi/5)}},
	} {
		if err := ws.EigenSymmetric(tc.a, tc.n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSymEigen(t, &ws, tc.a, tc.n)
		for i, v := range tc.want {
			if math.Abs(ws.Values[i]-v) > 1e-13 {
				t.Fatalf("%s: eigenvalue %d = %v, want %v", name, i, ws.Values[i], v)
			}
		}
	}
}

func TestEigenSymmetricRejectsAsymmetric(t *testing.T) {
	var ws SymEigenWorkspace
	a := []float64{1, 2, 2.5, 1}
	if err := ws.EigenSymmetric(a, 2); !errors.Is(err, ErrNotHermitian) {
		t.Fatalf("asymmetric input: err = %v, want ErrNotHermitian", err)
	}
	if err := ws.EigenSymmetric(a, 3); !errors.Is(err, ErrNotHermitian) {
		t.Fatalf("wrong-size input: err = %v, want ErrNotHermitian", err)
	}
	// Within the tolerance the symmetric part is decomposed.
	a = []float64{1, 2, 2 + 1e-12, 1}
	if err := ws.EigenSymmetric(a, 2); err != nil {
		t.Fatalf("rounding-level asymmetry: %v", err)
	}
	if math.Abs(ws.Values[0]-(3+5e-13)) > 1e-14 {
		t.Fatalf("eigenvalue %v, want %v", ws.Values[0], 3+5e-13)
	}
}

// A warmed workspace decomposes without allocating: the result stays
// in its scratch.
func TestEigenSymmetricAllocs(t *testing.T) {
	a := randomSymmetric(6, rand.New(rand.NewSource(47)))
	var ws SymEigenWorkspace
	if err := ws.EigenSymmetric(a, 6); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ws.EigenSymmetric(a, 6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EigenSymmetric allocates %v/run, want 0", allocs)
	}
}

func BenchmarkEigenSymmetric(b *testing.B) {
	a := randomSymmetric(6, rand.New(rand.NewSource(61)))
	var ws SymEigenWorkspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ws.EigenSymmetric(a, 6); err != nil {
			b.Fatal(err)
		}
	}
}
