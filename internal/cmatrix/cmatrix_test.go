package cmatrix

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 3+4i)
	if m.At(1, 2) != 3+4i {
		t.Errorf("At = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Error("zero matrix must be zero")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]complex128{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong: %v", m)
	}
	if _, err := FromRows([][]complex128{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged rows: err = %v, want ErrShape", err)
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Errorf("empty FromRows: %v, %v", empty, err)
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}})
	i2 := Identity(2)
	p, err := a.Mul(i2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Data {
		if p.Data[k] != a.Data[k] {
			t.Fatalf("A·I != A")
		}
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 1i}, {0, 2}})
	b, _ := FromRows([][]complex128{{1, 0}, {3, -1i}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]complex128{{1 + 3i, 1}, {6, -2i}})
	for k := range want.Data {
		if cmplx.Abs(p.Data[k]-want.Data[k]) > 1e-12 {
			t.Fatalf("Mul = %v, want %v", p, want)
		}
	}
	if _, err := a.Mul(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch: %v", err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}})
	b, _ := FromRows([][]complex128{{10, 20}})
	s, err := a.Add(b)
	if err != nil || s.At(0, 0) != 11 || s.At(0, 1) != 22 {
		t.Errorf("Add = %v, %v", s, err)
	}
	d, err := b.Sub(a)
	if err != nil || d.At(0, 0) != 9 || d.At(0, 1) != 18 {
		t.Errorf("Sub = %v, %v", d, err)
	}
	sc := a.Scale(2i)
	if sc.At(0, 0) != 2i || sc.At(0, 1) != 4i {
		t.Errorf("Scale = %v", sc)
	}
	if _, err := a.Add(New(2, 2)); !errors.Is(err, ErrShape) {
		t.Error("Add shape mismatch not detected")
	}
	if _, err := a.Sub(New(2, 2)); !errors.Is(err, ErrShape) {
		t.Error("Sub shape mismatch not detected")
	}
}

func TestConjT(t *testing.T) {
	a, _ := FromRows([][]complex128{{1 + 2i, 3}, {4i, 5 - 1i}, {6, 7i}})
	h := a.ConjT()
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatalf("ConjT shape %dx%d", h.Rows, h.Cols)
	}
	if h.At(0, 0) != 1-2i || h.At(1, 1) != 5+1i || h.At(0, 1) != -4i {
		t.Errorf("ConjT wrong: %v", h)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	v, err := a.MulVec([]complex128{1, 1i})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1+2i || v[1] != 3+4i {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]complex128{1}); !errors.Is(err, ErrShape) {
		t.Error("MulVec shape mismatch not detected")
	}
}

func TestColAndClone(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	c := a.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Col = %v", c)
	}
	cl := a.Clone()
	cl.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone is not a deep copy")
	}
}

func TestOuterAdd(t *testing.T) {
	m := New(2, 2)
	if err := m.OuterAdd([]complex128{1, 1i}, 2); err != nil {
		t.Fatal(err)
	}
	// 2·v·vᴴ with v=[1, i]: [[2, -2i], [2i, 2]]
	if m.At(0, 0) != 2 || m.At(0, 1) != -2i || m.At(1, 0) != 2i || m.At(1, 1) != 2 {
		t.Errorf("OuterAdd = %v", m)
	}
	if !m.IsHermitian(1e-12) {
		t.Error("outer product must be Hermitian")
	}
	if err := m.OuterAdd([]complex128{1}, 1); !errors.Is(err, ErrShape) {
		t.Error("OuterAdd shape mismatch not detected")
	}
}

func TestVecDotNorm(t *testing.T) {
	a := []complex128{1, 1i}
	b := []complex128{1i, 1}
	// aᴴ·b = conj(1)·i + conj(i)·1 = i - i = 0
	if d := VecDot(a, b); cmplx.Abs(d) > 1e-12 {
		t.Errorf("VecDot = %v", d)
	}
	if n := VecNorm(a); math.Abs(n-math.Sqrt2) > 1e-12 {
		t.Errorf("VecNorm = %v", n)
	}
}

func TestEigenDiagonal(t *testing.T) {
	a, _ := FromRows([][]complex128{{3, 0}, {0, 1}})
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("Values = %v", e.Values)
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 3 and 1.
	a, _ := FromRows([][]complex128{{2, 1i}, {-1i, 2}})
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
	checkEigenPairs(t, a, e)
}

func checkEigenPairs(t *testing.T, a *Matrix, e *Eigen) {
	t.Helper()
	n := a.Rows
	for j := 0; j < n; j++ {
		v := e.Vectors.Col(j)
		av, err := a.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := complex(e.Values[j], 0) * v[i]
			if cmplx.Abs(av[i]-want) > 1e-8*(1+math.Abs(e.Values[j])) {
				t.Fatalf("A·v != λ·v for pair %d: %v vs %v", j, av[i], want)
			}
		}
	}
	// Orthonormality.
	for i := 0; i < n; i++ {
		vi := e.Vectors.Col(i)
		if math.Abs(VecNorm(vi)-1) > 1e-9 {
			t.Fatalf("eigenvector %d not unit: %v", i, VecNorm(vi))
		}
		for j := i + 1; j < n; j++ {
			if d := VecDot(vi, e.Vectors.Col(j)); cmplx.Abs(d) > 1e-8 {
				t.Fatalf("eigenvectors %d,%d not orthogonal: %v", i, j, d)
			}
		}
	}
}

func randomHermitian(n int, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestEigenRandomHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 4, 6, 8, 12} {
		for trial := 0; trial < 5; trial++ {
			a := randomHermitian(n, rng)
			e, err := EigenHermitian(a)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			checkEigenPairs(t, a, e)
			// Eigenvalues must be sorted descending.
			for i := 1; i < n; i++ {
				if e.Values[i] > e.Values[i-1]+1e-12 {
					t.Fatalf("eigenvalues not sorted: %v", e.Values)
				}
			}
			// Trace preservation.
			var tr, sum float64
			for i := 0; i < n; i++ {
				tr += real(a.At(i, i))
				sum += e.Values[i]
			}
			if math.Abs(tr-sum) > 1e-8*(1+math.Abs(tr)) {
				t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
			}
		}
	}
}

func TestEigenRankDeficient(t *testing.T) {
	// R = v·vᴴ has one nonzero eigenvalue equal to |v|² and the rest zero —
	// exactly the structure of a single-source correlation matrix.
	v := []complex128{1, cmplx.Exp(1i * 0.7), cmplx.Exp(1i * 1.4), cmplx.Exp(1i * 2.1)}
	m := New(4, 4)
	if err := m.OuterAdd(v, 1); err != nil {
		t.Fatal(err)
	}
	e, err := EigenHermitian(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-4) > 1e-9 {
		t.Errorf("dominant eigenvalue = %v, want 4", e.Values[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(e.Values[i]) > 1e-9 {
			t.Errorf("eigenvalue %d = %v, want 0", i, e.Values[i])
		}
	}
	// Noise eigenvectors must be orthogonal to v.
	for j := 1; j < 4; j++ {
		if d := VecDot(e.Vectors.Col(j), v); cmplx.Abs(d) > 1e-8 {
			t.Errorf("noise vector %d not orthogonal to source: %v", j, d)
		}
	}
}

func TestEigenNotHermitian(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	if _, err := EigenHermitian(a); !errors.Is(err, ErrNotHermitian) {
		t.Errorf("err = %v, want ErrNotHermitian", err)
	}
	if _, err := EigenHermitian(New(2, 3)); !errors.Is(err, ErrNotHermitian) {
		t.Errorf("non-square err = %v", err)
	}
}

func TestIsHermitian(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2 + 1i}, {2 - 1i, 5}})
	if !a.IsHermitian(1e-12) {
		t.Error("should be Hermitian")
	}
	b, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	if b.IsHermitian(1e-12) {
		t.Error("should not be Hermitian")
	}
	if New(2, 3).IsHermitian(1) {
		t.Error("non-square cannot be Hermitian")
	}
}

func TestFrobNorm(t *testing.T) {
	a, _ := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobNorm = %v", got)
	}
}

func BenchmarkEigenHermitian8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomHermitian(8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigenHermitian(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRowViews(t *testing.T) {
	m, err := FromRows([][]complex128{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	rows := m.RowViews(make([][]complex128, 5))
	if len(rows) != 2 || len(rows[0]) != 3 || rows[1][2] != 6 {
		t.Fatalf("RowViews = %v", rows)
	}
	rows[1][0] = 9 // views alias the matrix
	if m.At(1, 0) != 9 {
		t.Fatal("row view does not alias the matrix")
	}
	if got := append(rows[0], 7); m.At(1, 0) != 9 || len(got) != 4 {
		t.Fatal("appending to a row view overwrote the next row")
	}
}
