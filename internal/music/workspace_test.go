package music

import (
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// preTableCompute replicates the pre-steering-table MUSIC pipeline from
// primitives that did not change, evaluating the collapsed quadratic
// forms on steering vectors built per angle with Array.SteeringSub: it
// is the reference the cached path must match bit for bit.
func preTableCompute(t *testing.T, x *cmatrix.Matrix, arr *rf.Array, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults(arr.Elements)
	r, err := Correlation(x)
	if err != nil {
		t.Fatal(err)
	}
	sm := r
	if opts.NoSmoothing {
		opts.Subarray = arr.Elements
	} else {
		if sm, err = SmoothForwardBackward(r, opts.Subarray); err != nil {
			t.Fatal(err)
		}
	}
	eig, err := cmatrix.EigenHermitian(sm)
	if err != nil {
		t.Fatal(err)
	}
	p := opts.Sources
	if p <= 0 {
		p = EstimateSources(eig.Values, opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	l := opts.Subarray
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
	for i, th := range angles {
		den := proj.at(arr.SteeringSub(th, l))
		if den < 1e-18 {
			den = 1e-18
		}
		spec[i] = 1 / den
		beam[i] = corr.at(arr.SteeringSub(th, m)) * (1 / float64(m*m))
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
}

func TestWorkspaceBitIdenticalToPreTablePath(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(7))
	for _, opts := range []Options{
		{},
		{GridSize: 181},
		{Sources: 3},
		{NoSmoothing: true},
		{Subarray: 4, Threshold: 5},
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
