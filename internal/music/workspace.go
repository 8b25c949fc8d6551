package music

import (
	"errors"
	"fmt"
	"math/cmplx"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// Workspace is the reusable per-worker state for repeated MUSIC runs
// against one array with fixed options: the shared steering table plus
// correlation, smoothing, eigensolver and scan scratch. SpectrumInto
// writes a spectrum into caller buffers and keeps every other stage in
// that scratch; Compute and ComputeFromCorrelation instead return an
// owned Result (spectrum, beam, noise subspace, eigendecomposition)
// that stays valid forever and may be retained by callers.
//
// With smoothing on and the default EigenAuto, the subspace stage is
// real-valued (see unitary.go); EigenQR and EigenJacobi, and the
// unsmoothed ablation, whose raw correlation is not centro-Hermitian,
// run the complex Hermitian solvers.
//
// A Workspace is not safe for concurrent use; give each goroutine its
// own. The steering table underneath is shared process-wide and
// read-only.
type Workspace struct {
	arr  *rf.Array
	opts Options // resolved: GridSize/Subarray/Threshold are concrete
	tab  *rf.SteeringTable

	rows [][]complex128  // row views of a snapshot matrix (Compute)
	corr *cmatrix.Matrix // M×M correlation accumulator
	sm   *cmatrix.Matrix // L×L smoothed matrix (nil when NoSmoothing)
	eig  cmatrix.EigenWorkspace

	// The real-valued stage; c is nil when it does not apply.
	c    []float64 // L×L real symmetric C = Qᴴ·R_fb·Q
	seig cmatrix.SymEigenWorkspace

	noise    cmatrix.Matrix // L×Q noise subspace view of noiseBuf
	noiseBuf []complex128
	proj     diagonalForm // noise projector UₙUₙᴴ, folded per spectrum
	beam     diagonalForm // correlation R̂, folded per spectrum
}

// NewWorkspace resolves the options for the array and precomputes (or
// fetches the shared) steering table.
func NewWorkspace(arr *rf.Array, opts Options) (*Workspace, error) {
	opts = opts.withDefaults(arr.Elements)
	if opts.NoSmoothing {
		opts.Subarray = arr.Elements
	}
	if opts.Subarray < 2 || opts.Subarray > arr.Elements {
		return nil, fmt.Errorf("%w: subarray size %d for %d elements", ErrBadInput, opts.Subarray, arr.Elements)
	}
	tab, err := rf.SteeringTableFor(arr, opts.GridSize, opts.Subarray)
	if err != nil {
		return nil, err
	}
	l := opts.Subarray
	w := &Workspace{
		arr:      arr,
		opts:     opts,
		tab:      tab,
		corr:     cmatrix.New(arr.Elements, arr.Elements),
		noiseBuf: make([]complex128, l*l),
	}
	if !opts.NoSmoothing {
		w.sm = cmatrix.New(l, l)
		if opts.Eigensolver == EigenAuto {
			w.c = make([]float64, l*l)
		}
	}
	return w, nil
}

// Len returns the number of scan angles.
func (w *Workspace) Len() int { return w.tab.Len() }

// Angles returns the scan grid, shared and immutable.
func (w *Workspace) Angles() []float64 { return w.tab.Angles }

// Compute runs MUSIC on an N×M snapshot matrix, reusing the workspace
// for the correlation stage.
func (w *Workspace) Compute(x *cmatrix.Matrix) (*Result, error) {
	if x.Cols != w.arr.Elements {
		return nil, fmt.Errorf("%w: %d columns for %d-element array", ErrBadInput, x.Cols, w.arr.Elements)
	}
	w.rows = x.RowViews(w.rows)
	if err := w.correlate(w.rows); err != nil {
		return nil, err
	}
	return w.ComputeFromCorrelation(w.corr)
}

// SpectrumInto runs MUSIC on N snapshot rows of M samples each and
// writes the pseudo-spectrum into spec and the Eq. 13 beamformer power
// into beam (both Len() long). On the real-valued path it allocates
// nothing: every other stage stays in workspace scratch. The
// arithmetic is Compute's, so spec and beam equal its Result.Spectrum
// and Result.Beam bit for bit.
func (w *Workspace) SpectrumInto(spec, beam []float64, rows [][]complex128) error {
	if len(spec) != w.Len() || len(beam) != w.Len() {
		return fmt.Errorf("%w: spectrum buffers of %d and %d for a %d-angle grid", ErrBadInput, len(spec), len(beam), w.Len())
	}
	if err := w.correlate(rows); err != nil {
		return err
	}
	vals, eig, err := w.decompose(w.corr)
	if err != nil {
		return err
	}
	w.scan(spec, beam, w.corr, w.noiseInto(w.sources(vals), eig))
	return nil
}

// correlate validates the snapshot rows and accumulates
// R = (1/N)·Σ xₙ·xₙᴴ into w.corr straight from them, matching
// Correlation's arithmetic exactly.
func (w *Workspace) correlate(rows [][]complex128) error {
	if len(rows) == 0 {
		return fmt.Errorf("%w: empty snapshot matrix", ErrBadInput)
	}
	for _, row := range rows {
		if len(row) != w.arr.Elements {
			return fmt.Errorf("%w: %d columns for %d-element array", ErrBadInput, len(row), w.arr.Elements)
		}
	}
	for i := range w.corr.Data {
		w.corr.Data[i] = 0
	}
	s := 1 / float64(len(rows))
	for _, row := range rows {
		// OuterAdd cannot fail: dimensions were checked above.
		_ = w.corr.OuterAdd(row, s)
	}
	return nil
}

// ComputeFromCorrelation runs the MUSIC stages after correlation. The
// returned Result owns its memory (its Angles alias the immutable
// shared grid) and stays valid across further workspace calls. On the
// real-valued path its Eigen.Vectors are Q·E, the eigenvectors of the
// forward–backward-smoothed matrix.
func (w *Workspace) ComputeFromCorrelation(r *cmatrix.Matrix) (*Result, error) {
	if r.Rows != w.arr.Elements || r.Cols != w.arr.Elements {
		return nil, fmt.Errorf("%w: %dx%d correlation for %d-element array", ErrBadInput, r.Rows, r.Cols, w.arr.Elements)
	}
	vals, eig, err := w.decompose(r)
	if err != nil {
		return nil, err
	}
	p := w.sources(vals)
	noise := w.noiseInto(p, eig)
	l := w.opts.Subarray
	if eig == nil {
		vecs := cmatrix.New(l, l)
		applyQ(vecs, w.seig.Vectors, 0)
		eig = &cmatrix.Eigen{Values: append([]float64(nil), vals...), Vectors: vecs}
	}
	res := &Result{
		Angles:   w.tab.Angles,
		Spectrum: make([]float64, w.Len()),
		Beam:     make([]float64, w.Len()),
		Sources:  p,
		Noise:    noise.Clone(),
		Eigen:    eig,
		Subarray: l,
	}
	w.scan(res.Spectrum, res.Beam, r, noise)
	return res, nil
}

// decompose smooths r and diagonalizes the result, returning the
// eigenvalues in descending order. On the real-valued path the
// eigenvectors are C's, left in w.seig, and eig is nil; if its QL
// iteration ever fails to converge the complex solver runs instead.
// Otherwise eig is the complex Hermitian decomposition of the
// smoothed matrix.
func (w *Workspace) decompose(r *cmatrix.Matrix) (vals []float64, eig *cmatrix.Eigen, err error) {
	if w.c != nil {
		realSmoothed(w.c, w.sm, r)
		err := w.seig.EigenSymmetric(w.c, w.sm.Rows)
		if err == nil {
			return w.seig.Values, nil, nil
		}
		if !errors.Is(err, cmatrix.ErrNoConverge) {
			return nil, nil, err
		}
	}
	sm := r
	if !w.opts.NoSmoothing {
		smoothInto(w.sm, r, w.opts.Subarray)
		sm = w.sm
	}
	switch w.opts.Eigensolver {
	case EigenQR:
		eig, err = w.eig.EigenHermitianQR(sm)
	case EigenJacobi:
		eig, err = w.eig.EigenHermitianJacobi(sm)
	default:
		eig, err = w.eig.EigenHermitian(sm)
	}
	if err != nil {
		return nil, nil, err
	}
	return eig.Values, eig, nil
}

// sources is the signal-subspace dimension P: forced or estimated,
// clamped to [1, L−1].
func (w *Workspace) sources(vals []float64) int {
	p := w.opts.Sources
	if p <= 0 {
		p = EstimateSources(vals, w.opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	if l := w.opts.Subarray; p >= l {
		p = l - 1
	}
	return p
}

// noiseInto loads the noise subspace Uₙ — eigenvectors P..L−1, as
// columns — into workspace scratch: Q·E on the real-valued path (eig
// nil), the complex eigenvectors otherwise. The matrix is valid until
// the next call.
func (w *Workspace) noiseInto(p int, eig *cmatrix.Eigen) *cmatrix.Matrix {
	l := w.opts.Subarray
	q := l - p
	w.noise = cmatrix.Matrix{Rows: l, Cols: q, Data: w.noiseBuf[:l*q]}
	if eig == nil {
		applyQ(&w.noise, w.seig.Vectors, p)
		return &w.noise
	}
	for i := 0; i < l; i++ {
		copy(w.noise.Data[i*q:(i+1)*q], eig.Vectors.Data[i*l+p:(i+1)*l])
	}
	return &w.noise
}

// scan evaluates the MUSIC pseudo-spectrum 1/(aᴴ·Uₙ·Uₙᴴ·a) and the
// beamformer power aᴴ·R̂·a/M² at every grid angle. Both quadratic
// forms are folded to their diagonal sums first (see diagonalForm), so
// a form at steering row a costs real pairs off the row:
// Re(c_d·a_d) = X_d − Y_d with X_d = Re c_d·Re a_d and
// Y_d = Im c_d·Im a_d. The grid is symmetric about π/2 and
// cos(π−θ) = −cos θ, so row n−1−i is the conjugate of row i, where
// Re(c_d·conj a_d) = X_d + Y_d: one read of row i gives both angles of
// the pair from the sums X = Σ X_d and Y = Σ Y_d, halving the scan.
// The MUSIC form reads the row's first L entries, the beamformer the
// whole row; each sum runs in ascending d.
func (w *Workspace) scan(spec, beam []float64, r, noise *cmatrix.Matrix) {
	w.proj.foldProjector(noise)
	w.beam.fold(r)
	inv := 1 / float64(r.Rows*r.Rows)
	pc, bc := w.proj.sums, w.beam.sums // L and M entries
	for i, j := 0, len(spec)-1; i <= j; i, j = i+1, j-1 {
		a := w.tab.Steering(i)
		var px, py, bx, by float64
		for d := 1; d < len(pc); d++ { // the head both forms share
			ar, ai := real(a[d]), imag(a[d])
			px += real(pc[d]) * ar
			py += imag(pc[d]) * ai
			bx += real(bc[d]) * ar
			by += imag(bc[d]) * ai
		}
		for d := len(pc); d < len(bc); d++ {
			bx += real(bc[d]) * real(a[d])
			by += imag(bc[d]) * imag(a[d])
		}
		// The mirror angle is written first so that at the middle of an
		// odd grid, where i == j, row i's own value is the one kept.
		spec[j] = pseudo(w.proj.trace + 2*(px+py))
		beam[j] = (w.beam.trace + 2*(bx+by)) * inv
		spec[i] = pseudo(w.proj.trace + 2*(px-py))
		beam[i] = (w.beam.trace + 2*(bx-by)) * inv
	}
}

// pseudo is the MUSIC pseudo-spectrum value for a projection
// denominator, floored so an exact null stays finite.
func pseudo(den float64) float64 {
	if den < 1e-18 {
		den = 1e-18
	}
	return 1 / den
}

// smoothInto is SmoothForwardBackward accumulating into dst (already
// sized L×L) — identical arithmetic, zero allocation.
func smoothInto(dst, r *cmatrix.Matrix, l int) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	m := r.Rows
	k := m - l + 1
	for s := 0; s < k; s++ {
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				dst.Data[i*l+j] += r.At(s+i, s+j)
				dst.Data[i*l+j] += cmplx.Conj(r.At(s+l-1-i, s+l-1-j))
			}
		}
	}
	scale := complex(1/float64(2*k), 0)
	for i := range dst.Data {
		dst.Data[i] *= scale
	}
}
