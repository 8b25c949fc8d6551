package pmusic

import (
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
// c_d = Σᵢ R̂[i,i+d], summed in the same order as the shared MUSIC and
// beamformer scan that fills Spectrum.Beam, so beamcorr_test can pin
// that arithmetic against the time-domain BeamPower.
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
	for ai := range out {
		a := tab.Steering(ai)
		var off float64
		for d := 1; d < m; d++ {
			off += real(diag[d])*real(a[d]) - imag(diag[d])*imag(a[d])
		}
		out[ai] = (tr + 2*off) * inv
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
		if got.Music.Sources != want.Music.Sources {
			t.Fatalf("trial %d: sources = %d, want %d", trial, got.Music.Sources, want.Music.Sources)
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
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("steady-state Workspace.Compute allocates %.0f times per run, want ≤32", allocs)
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
