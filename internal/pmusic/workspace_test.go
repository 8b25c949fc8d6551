package pmusic

import (
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// preTableBeamPower is the pre-steering-table Eq. 13 loop: weights
// recomputed with cmplx.Exp at every angle. The table path must match
// it bit for bit.
func preTableBeamPower(x *cmatrix.Matrix, arr *rf.Array, angles []float64) []float64 {
	m := arr.Elements
	out := make([]float64, len(angles))
	for ai, th := range angles {
		w := make([]complex128, m)
		for mi := 0; mi < m; mi++ {
			w[mi] = cmplx.Exp(complex(0, arr.Omega(mi, th)))
		}
		out[ai] = beamPowerAt(x, w)
	}
	return out
}

// beamPowerCorr is the correlation-domain beam stage standalone:
// PB(θ)·M² = tr(R̂) + 2·Σ_d Re(c_d·a_d) with the diagonal sums
// c_d = Σᵢ R̂[i,i+d], evaluated the way the shared MUSIC and beamformer
// scan fills Spectrum.Beam: from X = Σ Re c_d·Re a_d and
// Y = Σ Im c_d·Im a_d in ascending d, row i of the table gives angle i
// as X − Y and its mirror n−1−i, whose row is the conjugate, as X + Y.
// beamcorr_test pins this arithmetic against the time-domain
// BeamPower.
func beamPowerCorr(out []float64, r *cmatrix.Matrix, tab *rf.SteeringTable) {
	m := r.Rows
	var tr float64
	for i := 0; i < m; i++ {
		tr += real(r.At(i, i))
	}
	diag := make([]complex128, m)
	for d := 1; d < m; d++ {
		for i := 0; i+d < m; i++ {
			diag[d] += r.Data[i*m+i+d]
		}
	}
	inv := 1 / float64(m*m)
	for i, j := 0, len(out)-1; i <= j; i, j = i+1, j-1 {
		a := tab.Steering(i)
		var x, y float64
		for d := 1; d < m; d++ {
			x += real(diag[d]) * real(a[d])
			y += imag(diag[d]) * imag(a[d])
		}
		out[j] = (tr + 2*(x+y)) * inv
		out[i] = (tr + 2*(x-y)) * inv
	}
}

// Spectrum.Beam from the shared scan must be the standalone
// correlation-domain beam bit for bit.
func TestWorkspaceBeamIsCorrelationDomainBeam(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(4))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		x := synth(arr, []float64{0.5 + 0.6*float64(trial), 2.3}, []float64{1, 0.5}, 16, 0.05, rng)
		sp, err := ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		r, err := music.Correlation(x)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := rf.SteeringTableFor(arr, len(sp.Angles), music.DefaultSubarray(arr.Elements))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(sp.Angles))
		beamPowerCorr(want, r, tab)
		for i := range want {
			if sp.Beam[i] != want[i] {
				t.Fatalf("trial %d: Beam[%d] = %v, want %v", trial, i, sp.Beam[i], want[i])
			}
		}
	}
}

func TestBeamPowerTablePathBitIdentical(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(5))
	x := synth(arr, []float64{0.8, 2.1}, []float64{1, 0.5}, 24, 0.05, rng)
	for _, n := range []int{91, 181, 361} {
		grid := rf.AngleGrid(n)
		got, err := BeamPower(x, arr, grid)
		if err != nil {
			t.Fatal(err)
		}
		want := preTableBeamPower(x, arr, grid)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: BeamPower[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
	// A non-uniform grid takes the fallback path and must still agree.
	odd := []float64{0.1, 0.5, 0.6, 2.9}
	got, err := BeamPower(x, arr, odd)
	if err != nil {
		t.Fatal(err)
	}
	want := preTableBeamPower(x, arr, odd)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback BeamPower[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWorkspaceComputeBitIdentical(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(6))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		x := synth(arr, []float64{0.6 + 0.4*float64(trial), 2.2}, []float64{1, 0.7}, 20, 0.05, rng)
		want, err := Compute(x, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Power {
			if got.Power[i] != want.Power[i] {
				t.Fatalf("trial %d: Power[%d] = %v, want %v", trial, i, got.Power[i], want.Power[i])
			}
			if got.Beam[i] != want.Beam[i] {
				t.Fatalf("trial %d: Beam[%d] = %v, want %v", trial, i, got.Beam[i], want.Beam[i])
			}
			if got.Angles[i] != want.Angles[i] {
				t.Fatalf("trial %d: Angles[%d] differ", trial, i)
			}
		}
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(8))
	x := synth(arr, []float64{1.3}, []float64{1}, 20, 0.05, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Compute(x); err != nil {
		t.Fatal(err)
	}
	// Only the Spectrum escapes: one slab for Power and Beam plus the
	// struct. The MUSIC spectrum, noise subspace, eigendecomposition and
	// normalization peaks all stay in workspace scratch.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Workspace.Compute allocates %.0f times per run, want ≤2", allocs)
	}
}

// A returned Spectrum owns its Power and Beam: a later Compute on the
// same workspace, with different input, must leave it untouched.
func TestWorkspaceSpectrumNotAliased(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(10))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ws.Compute(synth(arr, []float64{0.7, 2.1}, []float64{1, 0.5}, 16, 0.05, rng))
	if err != nil {
		t.Fatal(err)
	}
	power := append([]float64(nil), first.Power...)
	beam := append([]float64(nil), first.Beam...)
	second, err := ws.Compute(synth(arr, []float64{1.4}, []float64{2}, 12, 0.1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if &second.Power[0] == &first.Power[0] || &second.Beam[0] == &first.Beam[0] {
		t.Fatal("second spectrum shares storage with the first")
	}
	for i := range power {
		if first.Power[i] != power[i] || first.Beam[i] != beam[i] {
			t.Fatalf("first spectrum changed at %d after a second Compute", i)
		}
	}
}

// ComputeRows reads snapshot rows in place with the arithmetic of
// Compute on the equivalent matrix, and rejects rows of the wrong
// width.
func TestWorkspaceComputeRowsMatchesCompute(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(12))
	x := synth(arr, []float64{0.9, 2.4}, []float64{1, 0.6}, 10, 0.05, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ws.Compute(x)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]complex128, x.Rows)
	for r := range rows {
		rows[r] = append([]complex128(nil), x.Data[r*x.Cols:(r+1)*x.Cols]...)
	}
	got, err := ws.ComputeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Power {
		if got.Power[i] != want.Power[i] || got.Beam[i] != want.Beam[i] {
			t.Fatalf("ComputeRows differs from Compute at %d", i)
		}
	}
	rows[3] = rows[3][:7]
	if _, err := ws.ComputeRows(rows); !errors.Is(err, music.ErrBadInput) {
		t.Fatalf("short row: err = %v, want music.ErrBadInput", err)
	}
	if _, err := ws.ComputeRows(nil); !errors.Is(err, music.ErrBadInput) {
		t.Fatalf("no rows: err = %v, want music.ErrBadInput", err)
	}
}

func TestPowerAtUniformGridMatchesLinearScan(t *testing.T) {
	grid := rf.AngleGrid(181)
	power := make([]float64, len(grid))
	for i := range power {
		power[i] = float64(i) * 0.5
	}
	s := &Spectrum{Angles: grid, Power: power}
	for theta := -0.3; theta < 3.5; theta += 0.017 {
		best, bestD := 0, 1e300
		for i, g := range grid {
			d := g - theta
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		if got := s.PowerAt(theta); got != power[best] {
			t.Fatalf("PowerAt(%v) = %v, want %v (bin %d)", theta, got, power[best], best)
		}
	}
}

// Workspaces on different goroutines share one steering table, read
// only: concurrent spectra must equal the serial ones bit for bit
// (and, under -race, show no data race).
func TestWorkspacesShareTableConcurrently(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(14))
	inputs := make([]*cmatrix.Matrix, 6)
	want := make([]*Spectrum, len(inputs))
	for i := range inputs {
		inputs[i] = synth(arr, []float64{0.5 + 0.3*float64(i), 2.2}, []float64{1, 0.6}, 10, 0.05, rng)
		sp, err := Compute(inputs[i], arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sp
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ws, err := NewWorkspace(arr, Options{})
			if err != nil {
				errs <- err
				return
			}
			for round := 0; round < 10; round++ {
				for i, x := range inputs {
					sp, err := ws.Compute(x)
					if err != nil {
						errs <- err
						return
					}
					for k := range sp.Power {
						if sp.Power[k] != want[i].Power[k] || sp.Beam[k] != want[i].Beam[k] {
							errs <- fmt.Errorf("input %d angle %d differs from the serial spectrum", i, k)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
