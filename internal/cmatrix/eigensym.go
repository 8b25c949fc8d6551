package cmatrix

import "math"

// The real symmetric eigensolver: the real-arithmetic twin of the
// complex Householder + implicit-QL solver in eigenqr.go, for the
// subspace stages whose matrix a fixed unitary transform makes real
// (unitary MUSIC on a forward–backward-smoothed correlation). Same two
// stages — Householder tridiagonalization, then implicit-shift QL with
// Wilkinson shifts via tridiagQL — but on float64 throughout, so each
// flop does a quarter of the complex work, and the result stays in
// workspace scratch instead of escaping.

// SymEigenWorkspace holds the scratch and the last result of
// EigenSymmetric. The zero value is ready to use; a workspace is not
// safe for concurrent use.
type SymEigenWorkspace struct {
	// Values holds the eigenvalues of the last decomposition in
	// descending order, and Vectors the matching unit eigenvectors as
	// the columns of an n×n row-major matrix. Both alias scratch that
	// the next EigenSymmetric call overwrites.
	Values  []float64
	Vectors []float64

	a, q   []float64 // n×n working copy (reduced in place) and accumulated transform, transposed
	d, e   []float64 // tridiagonal diagonal / sub-diagonal
	hv, hp []float64 // Householder reflector and p-vector scratch
	idx    []int
	rots   []givens
}

func (ws *SymEigenWorkspace) size(n int) {
	if len(ws.d) == n {
		return
	}
	ws.a, ws.q, ws.Vectors = make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	ws.d, ws.e, ws.Values = make([]float64, n), make([]float64, n), make([]float64, n)
	ws.hv, ws.hp = make([]float64, n), make([]float64, n)
	ws.idx = make([]int, n)
	ws.rots = make([]givens, 0, 4*n*n)
}

// EigenSymmetric diagonalizes the real symmetric n×n row-major matrix
// a into ws.Values and ws.Vectors; a is not modified. A real matrix is
// Hermitian exactly when it is symmetric, so input that is not
// symmetric within the tolerance EigenHermitian applies,
// 1e-8·(1+‖a‖_F) per entry pair, is rejected with ErrNotHermitian;
// within it, the symmetric part is decomposed. ErrNoConverge reports
// an exhausted QL budget — there is no fallback here, callers choose
// their own.
func (ws *SymEigenWorkspace) EigenSymmetric(a []float64, n int) error {
	if n < 1 || len(a) != n*n {
		return ErrNotHermitian
	}
	var fro float64
	for _, v := range a {
		fro += v * v
	}
	tol := 1e-8 * (1 + math.Sqrt(fro))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a[i*n+j]-a[j*n+i]) > tol {
				return ErrNotHermitian
			}
		}
	}
	ws.size(n)
	w, z := ws.a, ws.q
	for i := 0; i < n; i++ {
		w[i*n+i] = a[i*n+i]
		for j := i + 1; j < n; j++ {
			avg := (a[i*n+j] + a[j*n+i]) / 2
			w[i*n+j], w[j*n+i] = avg, avg
		}
	}
	for i := range z {
		z[i] = 0
	}
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	d, e, hv, hp := ws.d, ws.e, ws.hv, ws.hp

	// The orthogonal transform is accumulated transposed, z = Qᵀ, so
	// that every update below walks whole rows: Q·H is H·z, and a
	// rotation of columns i, i+1 of Q is one of rows i, i+1 of z.

	// Stage 1: Householder reduction A = Q·T·Qᵀ. Column k of the
	// trailing submatrix is reflected onto a multiple of e₁ by
	// H = I − τ·v·vᵀ, applied two-sided as a symmetric rank-2 update
	// and accumulated into z.
	for k := 0; k < n-2; k++ {
		var xnorm2 float64
		for i := k + 1; i < n; i++ {
			xnorm2 += w[i*n+k] * w[i*n+k]
		}
		if xnorm2 == 0 {
			continue // column already tridiagonal
		}
		x0 := w[(k+1)*n+k]
		// alpha takes the opposite sign of x0 so v = x − alpha·e₁
		// never cancels.
		alpha := -math.Copysign(math.Sqrt(xnorm2), x0)
		for i := k + 1; i < n; i++ {
			hv[i] = w[i*n+k]
		}
		hv[k+1] = x0 - alpha
		var vnorm2 float64
		for i := k + 1; i < n; i++ {
			vnorm2 += hv[i] * hv[i]
		}
		if vnorm2 == 0 {
			continue
		}
		tau := 2 / vnorm2

		// p = τ·B·v, then p ← p − (τ/2)(vᵀp)·v and B ← B − v·pᵀ − p·vᵀ.
		v := hv[k+1 : n]
		var vhp float64
		for i := k + 1; i < n; i++ {
			row := w[i*n+k+1 : (i+1)*n]
			var s float64
			for j, x := range row {
				s += x * v[j]
			}
			hp[i] = tau * s
			vhp += hv[i] * hp[i]
		}
		kc := tau / 2 * vhp
		for i := k + 1; i < n; i++ {
			hp[i] -= kc * hv[i]
		}
		p := hp[k+1 : n]
		for i := k + 1; i < n; i++ {
			row := w[i*n+k+1 : (i+1)*n]
			vi, pi := hv[i], hp[i]
			for j := range row {
				row[j] -= vi*p[j] + pi*v[j]
			}
		}
		w[(k+1)*n+k], w[k*n+k+1] = alpha, alpha
		for i := k + 2; i < n; i++ {
			w[i*n+k], w[k*n+i] = 0, 0
		}
		// z ← H·z: rows k+1.. lose τ·vᵢ·(vᵀz).
		u := hp[:n] // p is spent; reuse its storage for vᵀz
		for c := range u {
			u[c] = 0
		}
		for i := k + 1; i < n; i++ {
			row := z[i*n : (i+1)*n]
			vi := hv[i]
			for c, x := range row {
				u[c] += vi * x
			}
		}
		for i := k + 1; i < n; i++ {
			row := z[i*n : (i+1)*n]
			t := tau * hv[i]
			for c := range row {
				row[c] -= t * u[c]
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = w[i*n+i]
	}
	for k := 0; k < n-1; k++ {
		e[k] = w[(k+1)*n+k]
	}
	e[n-1] = 0

	// Stage 2: QL on (d, e), its rotations replayed onto rows of z.
	rots, err := tridiagQL(d, e, ws.rots[:0])
	ws.rots = rots
	if err != nil {
		return err
	}
	for _, g := range rots {
		lo := z[g.i*n : (g.i+1)*n]
		hi := z[(g.i+1)*n : (g.i+2)*n]
		hi = hi[:len(lo)]
		for r, x := range lo {
			f := hi[r]
			hi[r] = g.s*x + g.c*f
			lo[r] = g.c*x - g.s*f
		}
	}

	// Sort descending (insertion sort; n is tiny) into Values/Vectors.
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j]] > d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for j, k := range idx {
		ws.Values[j] = d[k]
		for i, x := range z[k*n : (k+1)*n] {
			ws.Vectors[i*n+j] = x
		}
	}
	return nil
}
