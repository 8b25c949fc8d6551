package music

import (
	"errors"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// preTableCompute replicates the pre-steering-table MUSIC pipeline
// without the workspace's subspace helpers (decompose, sources,
// noiseInto), so it pins them as well as the scan. The complex path
// (NoSmoothing, EigenQR, EigenJacobi) runs SmoothForwardBackward and
// the package-level cmatrix solvers; the real-valued path (smoothing on,
// EigenAuto) runs realSmoothed, a fresh SymEigenWorkspace and the dense
// product Q·E with denseQ. The source count is clamped inline and the
// collapsed quadratic forms are evaluated per angle on steering vectors
// built with Array.SteeringSub, paired as the scan pairs them. It is
// the reference the table-backed entry points must match bit for bit.
func preTableCompute(t *testing.T, x *cmatrix.Matrix, arr *rf.Array, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults(arr.Elements)
	r, err := Correlation(x)
	if err != nil {
		t.Fatal(err)
	}
	if opts.NoSmoothing {
		opts.Subarray = arr.Elements
	}
	l := opts.Subarray
	var eig *cmatrix.Eigen
	if !opts.NoSmoothing && opts.Eigensolver == EigenAuto {
		c := make([]float64, l*l)
		realSmoothed(c, cmatrix.New(l, l), r)
		var ws cmatrix.SymEigenWorkspace
		if err := ws.EigenSymmetric(c, l); err != nil {
			t.Fatal(err)
		}
		e := cmatrix.New(l, l)
		for i, v := range ws.Vectors {
			e.Data[i] = complex(v, 0)
		}
		eig = &cmatrix.Eigen{Values: ws.Values, Vectors: mustMul(t, denseQ(l), e)}
	} else {
		sm := r
		if !opts.NoSmoothing {
			if sm, err = SmoothForwardBackward(r, l); err != nil {
				t.Fatal(err)
			}
		}
		switch opts.Eigensolver {
		case EigenQR:
			eig, err = cmatrix.EigenHermitianQR(sm)
		case EigenJacobi:
			eig, err = cmatrix.EigenHermitianJacobi(sm)
		default:
			eig, err = cmatrix.EigenHermitian(sm)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	p := opts.Sources
	if p <= 0 {
		p = EstimateSources(eig.Values, opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	if p >= l {
		p = l - 1
	}
	q := l - p
	noise := cmatrix.New(l, q)
	for j := 0; j < q; j++ {
		col := eig.Vectors.Col(p + j)
		for i := 0; i < l; i++ {
			noise.Set(i, j, col[i])
		}
	}
	var proj, corr diagonalForm
	proj.foldProjector(noise)
	corr.fold(r)
	m := arr.Elements
	angles := rf.AngleGrid(opts.GridSize)
	spec := make([]float64, len(angles))
	beam := make([]float64, len(angles))
	for i := range angles {
		spec[i] = pseudo(proj.scanned(arr, angles, i, l))
		beam[i] = corr.scanned(arr, angles, i, m) * (1 / float64(m*m))
	}
	return &Result{Angles: angles, Spectrum: spec, Beam: beam, Sources: p, Noise: noise, Eigen: eig, Subarray: l}
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Sources != want.Sources || got.Subarray != want.Subarray {
		t.Fatalf("%s: sources/subarray = %d/%d, want %d/%d",
			tag, got.Sources, got.Subarray, want.Sources, want.Subarray)
	}
	if len(got.Angles) != len(want.Angles) || len(got.Spectrum) != len(want.Spectrum) || len(got.Beam) != len(want.Beam) {
		t.Fatalf("%s: grid sizes differ", tag)
	}
	for i := range want.Spectrum {
		if got.Angles[i] != want.Angles[i] {
			t.Fatalf("%s: Angles[%d] = %v, want %v", tag, i, got.Angles[i], want.Angles[i])
		}
		// Exact float equality: the cached path claims bit-identity.
		if got.Spectrum[i] != want.Spectrum[i] {
			t.Fatalf("%s: Spectrum[%d] = %v, want %v", tag, i, got.Spectrum[i], want.Spectrum[i])
		}
		if got.Beam[i] != want.Beam[i] {
			t.Fatalf("%s: Beam[%d] = %v, want %v", tag, i, got.Beam[i], want.Beam[i])
		}
	}
	for i := range want.Noise.Data {
		if got.Noise.Data[i] != want.Noise.Data[i] {
			t.Fatalf("%s: noise subspace differs at %d", tag, i)
		}
	}
	for i := range want.Eigen.Values {
		if got.Eigen.Values[i] != want.Eigen.Values[i] {
			t.Fatalf("%s: eigenvalue %d differs", tag, i)
		}
	}
	for i := range want.Eigen.Vectors.Data {
		if got.Eigen.Vectors.Data[i] != want.Eigen.Vectors.Data[i] {
			t.Fatalf("%s: eigenvector entry %d differs", tag, i)
		}
	}
}

func TestWorkspaceBitIdenticalToPreTablePath(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(7))
	for _, opts := range []Options{
		{},
		{GridSize: 181},
		{Sources: 3},
		{Sources: 8},      // clamped to L−1
		{Threshold: 1e12}, // estimates 0, clamped to 1
		{NoSmoothing: true},
		{NoSmoothing: true, Sources: 8},
		{Subarray: 4, Threshold: 5},
		{Subarray: 5},
		{Eigensolver: EigenQR},
		{Eigensolver: EigenJacobi},
	} {
		x := synthSnapshots(arr, []float64{0.7, 1.9}, []float64{1, 0.6}, 24, 0.05, true, rng)
		want := preTableCompute(t, x, arr, opts)

		got, err := Compute(x, arr, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		sameResult(t, "Compute", got, want)

		ws, err := NewWorkspace(arr, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "Workspace.Compute", got, want)
	}
}

func TestWorkspaceReuseDoesNotCrossContaminate(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(9))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*cmatrix.Matrix, 4)
	for i := range inputs {
		inputs[i] = synthSnapshots(arr, []float64{0.4 + 0.5*float64(i)}, []float64{1}, 20, 0.1, true, rng)
	}
	// Results computed through one reused workspace must match fresh
	// per-call computation, and earlier results must stay intact after
	// later calls overwrite the scratch.
	results := make([]*Result, len(inputs))
	for i, x := range inputs {
		r, err := ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i, x := range inputs {
		want, err := Compute(x, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "reused workspace", results[i], want)
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(11))
	x := synthSnapshots(arr, []float64{1.2}, []float64{1}, 20, 0.05, true, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Compute(x); err != nil {
		t.Fatal(err)
	}
	// Only the escaping Result (spectrum, noise subspace, eigendecomp)
	// may allocate; all scan/smoothing/Jacobi scratch is reused.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("steady-state Workspace.Compute allocates %.0f times per run, want ≤16", allocs)
	}
}

// SpectrumInto is Compute without the owned Result: the same spectrum
// and beam bit for bit, on both the real-valued and the complex
// subspace paths, with no allocation once warm on the real-valued one.
func TestSpectrumIntoMatchesCompute(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(13))
	x := synthSnapshots(arr, []float64{0.8, 2.0}, []float64{1, 0.6}, 10, 0.05, true, rng)
	for _, opts := range []Options{
		{},
		{Subarray: 5},
		{Eigensolver: EigenQR},
		{Eigensolver: EigenJacobi},
		{NoSmoothing: true},
	} {
		ws, err := NewWorkspace(arr, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		rows := x.RowViews(nil)
		spec, beam := make([]float64, ws.Len()), make([]float64, ws.Len())
		if err := ws.SpectrumInto(spec, beam, rows); err != nil {
			t.Fatal(err)
		}
		for i := range spec {
			if spec[i] != want.Spectrum[i] || beam[i] != want.Beam[i] {
				t.Fatalf("%+v: angle %d differs from Compute", opts, i)
			}
		}
		if opts.Eigensolver != EigenAuto || opts.NoSmoothing {
			continue // the complex solvers return an allocated Eigen
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := ws.SpectrumInto(spec, beam, rows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%+v: SpectrumInto allocates %v/run, want 0", opts, allocs)
		}
	}
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.SpectrumInto(make([]float64, 3), make([]float64, ws.Len()), x.RowViews(nil)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short spectrum buffer: err = %v, want ErrBadInput", err)
	}
}
