package pmusic

import (
	"dwatch/internal/cmatrix"
	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// Workspace is the reusable per-worker state for repeated P-MUSIC runs
// against one array with fixed options. It wraps a music.Workspace (so
// the subspace and beamformer scan reuses its correlation/smoothing/
// eigensolver scratch and the shared steering table) and adds the
// MUSIC-spectrum and normalization scratch of the power stage. Only
// the returned Spectrum escapes: its Power and Beam share one fresh
// allocation and its Angles alias the immutable shared grid, so it may
// be retained by callers (baselines, sequence groups) across further
// workspace calls.
//
// Not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	opts Options
	mw   *music.Workspace
	rows [][]complex128 // row views of a snapshot matrix (Compute)
	spec []float64      // MUSIC pseudo-spectrum, overwritten per run
	nor  normScratch
}

// NewWorkspace resolves the options and builds the underlying MUSIC
// workspace (which fetches or computes the shared steering table).
func NewWorkspace(arr *rf.Array, opts Options) (*Workspace, error) {
	opts = opts.withDefaults()
	mw, err := music.NewWorkspace(arr, opts.Music)
	if err != nil {
		return nil, err
	}
	return &Workspace{
		opts: opts,
		mw:   mw,
		spec: make([]float64, mw.Len()),
	}, nil
}

// Compute runs the full P-MUSIC pipeline of Eq. 14 on an N×M snapshot
// matrix — bit-identical to the package-level Compute, with the
// steady-state allocations reduced to the escaping Spectrum.
//
// The beamformer stage evaluates Eq. 13 in the correlation domain
// (PB = aᴴ·R̂·a / M²) inside the subspace stage's angle scan
// (music.Workspace.SpectrumInto): both quadratic forms are folded to
// per-diagonal sums and read one steering row per pair of mirror
// angles. It is the same value as the snapshot-domain BeamPower up to
// floating-point association, with no second pass over the snapshots
// or the grid.
func (w *Workspace) Compute(x *cmatrix.Matrix) (*Spectrum, error) {
	w.rows = x.RowViews(w.rows)
	return w.ComputeRows(w.rows)
}

// ComputeRows is Compute on N snapshot rows of M samples each, read in
// place — the shape a decoded RO_ACCESS_REPORT carries.
func (w *Workspace) ComputeRows(rows [][]complex128) (*Spectrum, error) {
	n := w.mw.Len()
	slab := make([]float64, 2*n)
	power, beam := slab[:n:n], slab[n:]
	if err := w.mw.SpectrumInto(w.spec, beam, rows); err != nil {
		return nil, err
	}
	angles := w.mw.Angles()
	w.nor.normalizeInto(power, angles, w.spec, w.opts.PeakRatio)
	for i := range power {
		power[i] *= beam[i]
	}
	return &Spectrum{Angles: angles, Power: power, Beam: beam}, nil
}
