package music

import (
	"fmt"
	"math/cmplx"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// Workspace is the reusable per-worker state for repeated MUSIC runs
// against one array with fixed options: the shared steering table plus
// correlation, smoothing, eigensolver and scan scratch. A steady-state
// spectrum computes with near-zero heap allocation — only the escaping
// Result (spectrum, beam, noise subspace, eigendecomposition) is
// freshly allocated, so results stay valid forever and may be retained
// by callers.
//
// A Workspace is not safe for concurrent use; give each goroutine its
// own. The steering table underneath is shared process-wide and
// read-only.
type Workspace struct {
	arr  *rf.Array
	opts Options // resolved: GridSize/Subarray/Threshold are concrete
	tab  *rf.SteeringTable

	corr *cmatrix.Matrix // M×M correlation accumulator (Compute)
	row  []complex128    // snapshot row scratch
	sm   *cmatrix.Matrix // L×L smoothed matrix (nil when NoSmoothing)
	eig  cmatrix.EigenWorkspace

	proj diagonalForm // noise projector UₙUₙᴴ, folded per spectrum
	beam diagonalForm // correlation R̂, folded per spectrum
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
	w := &Workspace{
		arr:  arr,
		opts: opts,
		tab:  tab,
		corr: cmatrix.New(arr.Elements, arr.Elements),
		row:  make([]complex128, arr.Elements),
	}
	if !opts.NoSmoothing {
		w.sm = cmatrix.New(opts.Subarray, opts.Subarray)
	}
	return w, nil
}

// Len returns the number of scan angles.
func (w *Workspace) Len() int { return w.tab.Len() }

// Compute runs MUSIC on an N×M snapshot matrix, reusing the workspace
// for the correlation stage.
func (w *Workspace) Compute(x *cmatrix.Matrix) (*Result, error) {
	if x.Cols != w.arr.Elements {
		return nil, fmt.Errorf("%w: %d columns for %d-element array", ErrBadInput, x.Cols, w.arr.Elements)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("%w: empty snapshot matrix", ErrBadInput)
	}
	w.correlate(x)
	return w.ComputeFromCorrelation(w.corr)
}

// correlate accumulates R = (1/N)·Σ xₙ·xₙᴴ into w.corr, matching
// Correlation's arithmetic exactly.
func (w *Workspace) correlate(x *cmatrix.Matrix) {
	m := x.Cols
	for i := range w.corr.Data {
		w.corr.Data[i] = 0
	}
	for n := 0; n < x.Rows; n++ {
		copy(w.row, x.Data[n*m:(n+1)*m])
		// OuterAdd cannot fail: dimensions were fixed at construction.
		_ = w.corr.OuterAdd(w.row, 1/float64(x.Rows))
	}
}

// ComputeFromCorrelation runs the MUSIC stages after correlation. The
// returned Result owns its memory (its Angles alias the immutable
// shared grid) and stays valid across further workspace calls.
func (w *Workspace) ComputeFromCorrelation(r *cmatrix.Matrix) (*Result, error) {
	if r.Rows != w.arr.Elements || r.Cols != w.arr.Elements {
		return nil, fmt.Errorf("%w: %dx%d correlation for %d-element array", ErrBadInput, r.Rows, r.Cols, w.arr.Elements)
	}
	sm := r
	if !w.opts.NoSmoothing {
		smoothInto(w.sm, r, w.opts.Subarray)
		sm = w.sm
	}
	var eig *cmatrix.Eigen
	var err error
	switch w.opts.Eigensolver {
	case EigenQR:
		eig, err = w.eig.EigenHermitianQR(sm)
	case EigenJacobi:
		eig, err = w.eig.EigenHermitianJacobi(sm)
	default:
		eig, err = w.eig.EigenHermitian(sm)
	}
	if err != nil {
		return nil, err
	}
	p := w.opts.Sources
	if p <= 0 {
		p = EstimateSources(eig.Values, w.opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	l := w.opts.Subarray
	if p >= l {
		p = l - 1
	}
	q := l - p
	noise := cmatrix.New(l, q)
	for j := 0; j < q; j++ {
		for i := 0; i < l; i++ {
			noise.Set(i, j, eig.Vectors.At(i, p+j))
		}
	}
	spec, beam := w.scan(r, noise)
	return &Result{
		Angles:   w.tab.Angles,
		Spectrum: spec,
		Beam:     beam,
		Sources:  p,
		Noise:    noise,
		Eigen:    eig,
		Subarray: l,
	}, nil
}

// scan evaluates the MUSIC pseudo-spectrum 1/(aᴴ·Uₙ·Uₙᴴ·a) and the
// beamformer power aᴴ·R̂·a/M² at every grid angle in one pass over the
// steering table. Both quadratic forms are folded to their diagonal
// sums first (see diagonalForm), so an angle costs L−1 plus M−1 real
// pairs off one table row: the MUSIC form reads the row's first L
// entries, the beamformer the whole row. The shared head d < L runs in
// one loop; each form still sums its terms in ascending d.
func (w *Workspace) scan(r, noise *cmatrix.Matrix) (spec, beam []float64) {
	w.proj.foldProjector(noise)
	w.beam.fold(r)
	inv := 1 / float64(r.Rows*r.Rows)
	spec = make([]float64, w.tab.Len())
	beam = make([]float64, len(spec))
	pc, bc := w.proj.sums, w.beam.sums // L and M entries
	for i := range spec {
		a := w.tab.Steering(i)
		var po, bo float64
		for d := 1; d < len(pc); d++ { // the head both forms share
			ar, ai := real(a[d]), imag(a[d])
			po += real(pc[d])*ar - imag(pc[d])*ai
			bo += real(bc[d])*ar - imag(bc[d])*ai
		}
		for d := len(pc); d < len(bc); d++ {
			bo += real(bc[d])*real(a[d]) - imag(bc[d])*imag(a[d])
		}
		den := w.proj.trace + 2*po
		if den < 1e-18 {
			den = 1e-18
		}
		spec[i] = 1 / den
		beam[i] = (w.beam.trace + 2*bo) * inv
	}
	return spec, beam
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
