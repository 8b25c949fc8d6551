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
// normalization scratch of the power stage. The returned Spectrum owns
// its memory — its Angles alias the immutable shared grid — and may be
// retained by callers (baselines, sequence groups) across further
// workspace calls.
//
// Not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	opts Options
	mw   *music.Workspace
	nor  []float64 // normalization scratch, fully overwritten per run
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
		nor:  make([]float64, mw.Len()),
	}, nil
}

// Compute runs the full P-MUSIC pipeline of Eq. 14 on an N×M snapshot
// matrix — bit-identical to the package-level Compute, with the
// steady-state allocations reduced to the escaping Spectrum.
//
// The beamformer stage evaluates Eq. 13 in the correlation domain
// (PB = aᴴ·R̂·a / M²) inside the subspace stage's angle scan
// (music.Result.Beam): both quadratic forms are folded to per-diagonal
// sums and read one steering row per angle. It is the same value as the
// snapshot-domain BeamPower up to floating-point association, and
// costs M−1 real pairs per angle with no second pass over the
// snapshots or the grid.
func (w *Workspace) Compute(x *cmatrix.Matrix) (*Spectrum, error) {
	mres, err := w.mw.Compute(x)
	if err != nil {
		return nil, err
	}
	NormalizeInto(w.nor, mres.Angles, mres.Spectrum, w.opts.PeakRatio)
	power := make([]float64, len(mres.Beam))
	for i := range power {
		power[i] = mres.Beam[i] * w.nor[i]
	}
	return &Spectrum{Angles: mres.Angles, Power: power, Beam: mres.Beam, Music: mres}, nil
}
