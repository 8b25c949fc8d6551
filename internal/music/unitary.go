package music

import (
	"math"

	"dwatch/internal/cmatrix"
)

// The real-valued subspace stage: unitary MUSIC (Huarng & Yeh, IEEE
// Trans. ASSP 1991; Linebarger, DeGroat & Dowling, IEEE Trans. SP
// 1994) applied to D-Watch's forward–backward smoothing.
//
// The smoothed matrix R_fb = (R_f + J·R_f*·J)/2, with R_f the
// forward-only subarray average and J the exchange matrix, is
// centro-Hermitian. The sparse unitary
//
//	L = 2k:   Q = (1/√2)·[ I   jI ]     L = 2k+1:   Q = (1/√2)·[ I   0   jI ]
//	                     [ J  −jJ ]                            [ 0ᵀ  √2  0ᵀ ]
//	                                                           [ J   0  −jJ ]
//
// satisfies J·Q = Q*, so Qᴴ·(J·R_f*·J)·Q = conj(Qᴴ·R_f·Q) and
//
//	C = Qᴴ·R_fb·Q = Re(Qᴴ·R_f·Q)
//
// is real symmetric with R_fb's eigenvalues; R_fb's eigenvectors are
// Q·E for C's eigenvectors E. Q is never stored: with k = ⌊L/2⌋,
// column i < k of Q holds 1/√2 at rows i and ī = L−1−i, column
// L−k+i holds j/√2 at row i and −j/√2 at row ī, and for odd L column
// k is e_k. Writing a = R_f[i,j], b = R_f[i,j̄], c = R_f[ī,j],
// d = R_f[ī,j̄] for i, j < k, the four blocks of C are
//
//	C[i, j]         =  ½·Re(a + b + c + d)    C[i, L−k+j]     = −½·Im(a − b + c − d)
//	C[L−k+i, j]     =  ½·Im(a + b − c − d)    C[L−k+i, L−k+j] =  ½·Re(a − b − c + d)
//
// plus, for odd L, C[k,k] = Re R_f[k,k] and the middle row and column
// from R_f[i,k] ± R_f[ī,k] and R_f[k,j] ± R_f[k,j̄] scaled by 1/√2. So
// C costs O(L²) index arithmetic on R_f, and the eigensolve runs in
// real arithmetic (cmatrix.SymEigenWorkspace).

// realSmoothed writes C = Re(Qᴴ·R_f·Q) into c (L×L row-major) for the
// M×M correlation r, with R_f the forward-only subarray average,
// accumulated unscaled in fwd (L×L scratch).
func realSmoothed(c []float64, fwd, r *cmatrix.Matrix) {
	l, m := fwd.Rows, r.Rows
	ns := m - l + 1 // subarrays
	for i := range fwd.Data {
		fwd.Data[i] = 0
	}
	for s := 0; s < ns; s++ {
		for i := 0; i < l; i++ {
			src := r.Data[(s+i)*m+s : (s+i)*m+s+l]
			dst := fwd.Data[i*l : (i+1)*l]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	f := fwd.Data
	half := 0.5 / float64(ns)
	h := l / 2
	o := l - h // first anti-symmetric column
	for i := 0; i < h; i++ {
		ib := l - 1 - i
		for j := 0; j < h; j++ {
			jb := l - 1 - j
			a, b, cc, d := f[i*l+j], f[i*l+jb], f[ib*l+j], f[ib*l+jb]
			c[i*l+j] = half * real(a+b+cc+d)
			c[i*l+o+j] = -half * imag(a-b+cc-d)
			c[(o+i)*l+j] = half * imag(a+b-cc-d)
			c[(o+i)*l+o+j] = half * real(a-b-cc+d)
		}
	}
	if l%2 == 1 {
		mid := 1 / (math.Sqrt2 * float64(ns))
		for i := 0; i < h; i++ {
			ib := l - 1 - i
			c[i*l+h] = mid * real(f[i*l+h]+f[ib*l+h])
			c[(o+i)*l+h] = mid * imag(f[i*l+h]-f[ib*l+h])
			c[h*l+i] = mid * real(f[h*l+i]+f[h*l+ib])
			c[h*l+o+i] = -mid * imag(f[h*l+i]-f[h*l+ib])
		}
		c[h*l+h] = real(f[h*l+h]) / float64(ns)
	}
}

// applyQ writes dst[:, j] = Q·E[:, col0+j] for every column j of dst,
// E being L×L real row-major: eigenvectors of R_fb from those of C.
// Rows i and L−1−i of the result are (E[i,·] ± j·E[L−k+i,·])/√2, and
// the middle row of odd L is E[k,·].
func applyQ(dst *cmatrix.Matrix, e []float64, col0 int) {
	l, q := dst.Rows, dst.Cols
	h := l / 2
	o := l - h
	s := math.Sqrt2 / 2
	for i := 0; i < h; i++ {
		top := dst.Data[i*q : (i+1)*q]
		bot := dst.Data[(l-1-i)*q : (l-i)*q]
		sym := e[i*l+col0 : i*l+col0+q]
		anti := e[(o+i)*l+col0 : (o+i)*l+col0+q]
		for j := range top {
			re, im := s*sym[j], s*anti[j]
			top[j] = complex(re, im)
			bot[j] = complex(re, -im)
		}
	}
	if l%2 == 1 {
		mid := dst.Data[h*q : (h+1)*q]
		for j := range mid {
			mid[j] = complex(e[h*l+col0+j], 0)
		}
	}
}
