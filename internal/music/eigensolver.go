package music

import "fmt"

// Eigensolver selects the eigendecomposition backend for the subspace
// stage. The solvers agree on eigenvalues to ~1e-12·‖R‖ and on the
// noise-subspace projector Uₙ·Uₙᴴ (the quantity the pseudo-spectrum
// depends on) wherever the signal/noise eigenvalue gap exists;
// individual eigenvectors differ by per-column phase. The selector
// exists for A/B comparison (dwatch-replay -eigensolver) — production
// uses the default.
type Eigensolver int

const (
	// EigenAuto (the default) runs the real-valued subspace stage on
	// every smoothed correlation: the unitary transform of the
	// forward–backward-smoothed matrix, diagonalized by the real
	// symmetric QL solver (see unitary.go). If that QL fails to
	// converge, and always without smoothing, it runs the complex
	// tridiagonal QL/QR with an automatic Jacobi fallback.
	EigenAuto Eigensolver = iota
	// EigenQR runs only the complex Hermitian Householder
	// tridiagonalization + implicit-shift QL/QR; non-convergence is an
	// error. It is the reference for the real-valued default.
	EigenQR
	// EigenJacobi runs only the classical cyclic complex Jacobi sweep —
	// the pre-QR solver, retained as the A/B reference.
	EigenJacobi
)

func (e Eigensolver) String() string {
	switch e {
	case EigenAuto:
		return "auto"
	case EigenQR:
		return "qr"
	case EigenJacobi:
		return "jacobi"
	default:
		return fmt.Sprintf("Eigensolver(%d)", int(e))
	}
}

// ParseEigensolver maps the flag spellings to a solver; "" and "auto"
// both select the default.
func ParseEigensolver(s string) (Eigensolver, error) {
	switch s {
	case "", "auto":
		return EigenAuto, nil
	case "qr", "ql":
		return EigenQR, nil
	case "jacobi":
		return EigenJacobi, nil
	default:
		return 0, fmt.Errorf("music: unknown eigensolver %q (want auto, qr or jacobi)", s)
	}
}
