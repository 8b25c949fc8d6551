// Package bench is the D-Watch benchmark harness: one testing.B per
// paper figure (there are no numbered tables in the paper — every
// evaluation result is a figure), plus the design-choice ablations of
// DESIGN.md. Each benchmark regenerates its figure's data and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Use cmd/dwatch-bench for the full
// human-readable tables.
package bench

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/cmatrix"
	"dwatch/internal/experiments"
	"dwatch/internal/geom"
	"dwatch/internal/health"
	"dwatch/internal/llrp"
	"dwatch/internal/loc"
	"dwatch/internal/music"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/pmusic"
	"dwatch/internal/reader"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
)

// benchOpts keeps per-iteration cost moderate; the figures' shapes are
// stable at these sizes.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, Reps: 3, MaxLocations: 8}
}

func BenchmarkFig3PhaseOffsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3PhaseOffsets(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxDeg-r.MinDeg, "spread-deg")
	}
}

func BenchmarkFig4MusicSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4MusicBlocking(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: relative change of an unblocked peak when one path
		// is blocked (should be ≈0 for a reliable detector; MUSIC's is
		// large — that is the figure's point).
		var worst float64
		for i := range r.PathAnglesDeg {
			if i == r.BlockedIndex || r.BaselinePeaks[i] == 0 {
				continue
			}
			if d := abs(r.OneBlockedPeaks[i] - 1); d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "false-change")
	}
}

func BenchmarkFig9Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9Calibration(experiments.Options{Seed: 42, Reps: 2, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Tags) - 1
		b.ReportMetric(r.DWatch[last], "dwatch-rad")
		b.ReportMetric(r.Phaser[last], "phaser-rad")
	}
}

func BenchmarkFig10AoAError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10AoAError(experiments.Options{Seed: 42, Reps: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MedianDWatch, "dwatch-deg")
		b.ReportMetric(r.MedianNone, "none-deg")
	}
}

func BenchmarkFig12PMusicSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12PMusicBlocking(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1-r.OneBlockedPeaks[r.BlockedIndex], "blocked-drop")
	}
}

func BenchmarkFig13DetectionRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13DetectionRate(experiments.Options{Seed: 42, Reps: 2, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.DistancesM) - 1
		b.ReportMetric(100*r.PMusicOne[last], "pmusic-%")
		b.ReportMetric(100*r.MusicOne[last], "music-%")
	}
}

func BenchmarkFig14Localization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14Localization(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range r.Envs {
			if e.Summary.N > 0 {
				b.ReportMetric(100*e.Summary.Median, e.Name+"-median-cm")
			}
		}
	}
}

func BenchmarkFig15Antennas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15Antennas(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		// Library row: error with min vs max antennas.
		b.ReportMetric(100*r.MeanErr[0][0], "lib-4ant-cm")
		b.ReportMetric(100*r.MeanErr[0][len(r.Antennas)-1], "lib-8ant-cm")
	}
}

func BenchmarkFig16Reflectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16Reflectors(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Coverage[0], "cov0-%")
		b.ReportMetric(100*r.Coverage[len(r.Reflectors)-1], "covN-%")
	}
}

func BenchmarkFig17Tags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17Tags(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Coverage[0], "cov-few-%")
		b.ReportMetric(100*r.Coverage[len(r.Tags)-1], "cov-many-%")
	}
}

func BenchmarkFig18Height(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18Height(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MeanErr[0], "err-0cm")
		b.ReportMetric(100*r.MeanErr[len(r.HeightDiffCm)-1], "err-high")
	}
}

func BenchmarkFig19MultiTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19MultiTarget(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Cases[0].Found), "wide-found")
		b.ReportMetric(r.Cases[0].MaxErrCm, "wide-maxerr-cm")
	}
}

func BenchmarkFig21FistTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig21FistTracking(experiments.Options{Seed: 42, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Glyphs[0].MedianCm, "median-cm")
	}
}

func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Latency(experiments.Options{Seed: 42, Reps: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Processing.Microseconds())/1000, "proc-ms")
		b.ReportMetric(float64(r.EndToEnd.Microseconds())/1000, "e2e-ms")
	}
}

func BenchmarkAblationSmoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSmoothing(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ResolvedWith)/float64(r.Trials), "with")
		b.ReportMetric(float64(r.ResolvedWithout)/float64(r.Trials), "without")
	}
}

func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationNormalization(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RatioErrWith, "with")
		b.ReportMetric(r.RatioErrWithout, "without")
	}
}

func BenchmarkAblationOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationOptimizer(experiments.Options{Seed: 42, Reps: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Hybrid, "hybrid-rad")
		b.ReportMetric(r.GDOnly, "gd-rad")
	}
}

func BenchmarkAblationGridSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGridSize(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MedianCm[0], "fine-cm")
		b.ReportMetric(r.MedianCm[len(r.CellCm)-1], "coarse-cm")
	}
}

func BenchmarkAblationOutlierRejection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationOutlierRejection(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LikelihoodMedianCm, "likelihood-cm")
		b.ReportMetric(r.NaiveMedianCm, "naive-cm")
	}
}

func BenchmarkAblationSecondOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSecondOrder(experiments.Options{Seed: 42, Reps: 2, MaxLocations: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.CoverageFirst[0], "hall-1st-cov%")
		b.ReportMetric(100*r.CoverageBoth[0], "hall-2nd-cov%")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// genPipelineReports synthesizes one recorded session for the table
// scenario: 2 baseline rounds plus onlineRounds with a moving target,
// exactly what dwatchd's simulated readers stream.
func genPipelineReports(tb testing.TB, sc *sim.Scenario, onlineRounds, snapshots int) []*llrp.ROAccessReport {
	tb.Helper()
	var reports []*llrp.ROAccessReport
	seq := uint32(0)
	send := func(targets []channel.Target) {
		seq++
		for _, rd := range sc.Readers {
			snaps, err := rd.Acquire(sc.Env, sc.Tags, targets, reader.AcquireOptions{Snapshots: snapshots})
			if err != nil {
				tb.Fatal(err)
			}
			rep := &llrp.ROAccessReport{ReaderID: rd.ID, Seq: seq}
			for _, sn := range snaps {
				x, err := calib.Apply(sn.Data, rd.Offsets)
				if err != nil {
					tb.Fatal(err)
				}
				snapshot := make([][]complex128, x.Rows)
				for r := 0; r < x.Rows; r++ {
					snapshot[r] = append([]complex128(nil), x.Data[r*x.Cols:(r+1)*x.Cols]...)
				}
				rep.Reports = append(rep.Reports, llrp.TagReport{EPC: sn.Tag.EPC, Snapshot: snapshot})
			}
			reports = append(reports, rep)
		}
	}
	send(nil)
	send(nil)
	for k := 0; k < onlineRounds; k++ {
		f := float64(k+1) / float64(onlineRounds+1)
		pos := geom.Pt(sc.Cfg.Width*(0.3+0.4*f), sc.Cfg.Depth/2, sc.Cfg.ArrayZ)
		send([]channel.Target{channel.HumanTarget(pos)})
	}
	return reports
}

// benchSnapshotMatrix acquires one realistic calibrated snapshot matrix
// from the table scenario — the exact input shape the spectrum hot path
// sees in production.
func benchSnapshotMatrix(tb testing.TB) (*cmatrix.Matrix, *rf.Array) {
	tb.Helper()
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		tb.Fatal(err)
	}
	rd := sc.Readers[0]
	snaps, err := rd.Acquire(sc.Env, sc.Tags, nil, reader.AcquireOptions{Snapshots: 10})
	if err != nil {
		tb.Fatal(err)
	}
	x, err := calib.Apply(snaps[0].Data, rd.Offsets)
	if err != nil {
		tb.Fatal(err)
	}
	return x, rd.Array
}

// BenchmarkMusicSpectrum measures one MUSIC spectrum on a realistic
// snapshot matrix. nocache replays the pre-steering-table pipeline
// (per-angle SteeringSub, the direct ‖Uₙᴴa‖² denominator, fresh scratch
// everywhere) from the public primitives; cached is the table-backed
// entry point with the diagonal-collapsed scan; workspace adds scratch
// reuse on top. cached and workspace are bit-identical; nocache agrees
// with them within the scan's tier-2 tolerance (DESIGN.md).
func BenchmarkMusicSpectrum(b *testing.B) {
	x, arr := benchSnapshotMatrix(b)
	l := music.DefaultSubarray(arr.Elements)
	b.Run("nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := music.Correlation(x)
			if err != nil {
				b.Fatal(err)
			}
			sm, err := music.SmoothForwardBackward(r, l)
			if err != nil {
				b.Fatal(err)
			}
			eig, err := cmatrix.EigenHermitian(sm)
			if err != nil {
				b.Fatal(err)
			}
			p := music.EstimateSources(eig.Values, music.DefaultSourceThreshold)
			if p < 1 {
				p = 1
			}
			if p >= l {
				p = l - 1
			}
			noise := cmatrix.New(l, l-p)
			for j := 0; j < l-p; j++ {
				col := eig.Vectors.Col(p + j)
				for ii := 0; ii < l; ii++ {
					noise.Set(ii, j, col[ii])
				}
			}
			angles := rf.AngleGrid(361)
			spec := make([]float64, len(angles))
			for ii, th := range angles {
				denom := music.ProjectionOntoNoise(arr.SteeringSub(th, l), noise)
				if denom < 1e-18 {
					denom = 1e-18
				}
				spec[ii] = 1 / denom
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := music.Compute(x, arr, music.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws, err := music.NewWorkspace(arr, music.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Compute(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The path= pair is the scratch-only spectrum the P-MUSIC workspace
	// runs (SpectrumInto): current is the default real-valued subspace
	// stage, hermitian forces the complex Hermitian QL solver on the
	// same scan. Their ratio is the unitary transform's share.
	for _, tc := range []struct {
		name   string
		solver music.Eigensolver
	}{{"current", music.EigenAuto}, {"hermitian", music.EigenQR}} {
		b.Run("path="+tc.name, func(b *testing.B) {
			ws, err := music.NewWorkspace(arr, music.Options{Eigensolver: tc.solver})
			if err != nil {
				b.Fatal(err)
			}
			rows := x.RowViews(nil)
			spec, beam := make([]float64, ws.Len()), make([]float64, ws.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ws.SpectrumInto(spec, beam, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The solver= pair isolates the complex eigendecomposition backend
	// on the otherwise-identical workspace path: jacobi replays the
	// pre-PR-7 cyclic sweep, qr the tridiagonal implicit-shift solver
	// that was the default before the real-valued stage.
	for _, solver := range []music.Eigensolver{music.EigenJacobi, music.EigenQR} {
		b.Run("solver="+solver.String(), func(b *testing.B) {
			ws, err := music.NewWorkspace(arr, music.Options{Eigensolver: solver})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Compute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBeamPower measures the Eq. 13 beamformer scan. nocache
// recomputes the weight vector with cmplx.Exp at every angle (the
// pre-table inner loop); cached walks the shared steering table.
func BenchmarkBeamPower(b *testing.B) {
	x, arr := benchSnapshotMatrix(b)
	angles := rf.AngleGrid(361)
	b.Run("nocache", func(b *testing.B) {
		b.ReportAllocs()
		m := arr.Elements
		out := make([]float64, len(angles))
		for i := 0; i < b.N; i++ {
			for ai, th := range angles {
				w := make([]complex128, m)
				for mi := 0; mi < m; mi++ {
					w[mi] = cmplx.Exp(complex(0, arr.Omega(mi, th)))
				}
				var acc float64
				for n := 0; n < x.Rows; n++ {
					var sum complex128
					row := x.Data[n*m : (n+1)*m]
					for mi, xv := range row {
						sum += xv * w[mi]
					}
					acc += real(sum)*real(sum) + imag(sum)*imag(sum)
				}
				out[ai] = acc / float64(x.Rows) / float64(m*m)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pmusic.BeamPower(x, arr, angles); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPMusicSpectrum measures one full P-MUSIC spectrum (Eq. 13
// beamformer + MUSIC subspace + Eq. 14 merge) — the per-snapshot unit
// of work the pipeline's spectrum stage executes. path=pre-qr replays
// the pre-PR-7 composition from the public primitives: Jacobi
// eigensolver plus the snapshot-domain beamformer (a second full pass
// over the snapshots per angle). path=current is today's workspace:
// the real-valued (unitary) subspace stage plus the correlation-domain
// beamformer in the same paired half-grid scan, with only Power and
// Beam escaping. path=hermitian is the same workspace forced onto the
// complex Hermitian QL solver (EigenQR), the previous default kernel.
// current over pre-qr is the single-spectrum speedup acceptance
// number; current over hermitian is the unitary transform's share.
func BenchmarkPMusicSpectrum(b *testing.B) {
	x, arr := benchSnapshotMatrix(b)
	b.Run("path=pre-qr", func(b *testing.B) {
		mw, err := music.NewWorkspace(arr, music.Options{Eigensolver: music.EigenJacobi})
		if err != nil {
			b.Fatal(err)
		}
		nor := make([]float64, 361)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mres, err := mw.Compute(x)
			if err != nil {
				b.Fatal(err)
			}
			beam, err := pmusic.BeamPower(x, arr, mres.Angles)
			if err != nil {
				b.Fatal(err)
			}
			pmusic.NormalizeInto(nor, mres.Angles, mres.Spectrum, 0.03)
			power := make([]float64, len(beam))
			for k := range power {
				power[k] = beam[k] * nor[k]
			}
		}
	})
	for _, tc := range []struct {
		name   string
		solver music.Eigensolver
	}{{"current", music.EigenAuto}, {"hermitian", music.EigenQR}} {
		b.Run("path="+tc.name, func(b *testing.B) {
			ws, err := pmusic.NewWorkspace(arr, pmusic.Options{Music: music.Options{Eigensolver: tc.solver}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Compute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLocViews builds two synthetic drop views looking at one target —
// the fusion stage's input shape.
func benchLocViews(tb testing.TB) ([]*loc.View, loc.Grid) {
	tb.Helper()
	grid := loc.Grid{XMin: 0, XMax: 4, YMin: 0, YMax: 4, Cell: 0.05, Z: 1.25}
	target := geom.Pt(2.6, 1.9, 1.25)
	mk := func(origin, axis geom.Point) *loc.View {
		arr, err := rf.NewArray(origin, axis, 8)
		if err != nil {
			tb.Fatal(err)
		}
		angles := rf.AngleGrid(361)
		drop := make([]float64, len(angles))
		at := arr.AngleTo(target)
		for i, th := range angles {
			d := th - at
			drop[i] = math.Exp(-d * d / (2 * 0.05 * 0.05))
		}
		return &loc.View{Array: arr, Angles: angles, Drop: drop}
	}
	views := []*loc.View{
		mk(geom.Pt(1, 0, 1.25), geom.Pt2(1, 0)),
		mk(geom.Pt(0, 1, 1.25), geom.Pt2(0, 1)),
	}
	return views, grid
}

// BenchmarkLocalizeGrid measures the Eq. 15 grid search: direct
// recomputes each cell's AoA per call, indexed walks cached GridIndex
// tables (built once, as the pipeline's fusion stage does).
func BenchmarkLocalizeGrid(b *testing.B) {
	views, grid := benchLocViews(b)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loc.Localize(views, grid, loc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		indexes := make([]*loc.GridIndex, len(views))
		for i, v := range views {
			g, err := loc.NewGridIndex(v.Array, grid, len(v.Angles))
			if err != nil {
				b.Fatal(err)
			}
			indexes[i] = g
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := loc.LocalizeIndexed(views, indexes, grid, loc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineThroughput is the scaling baseline for the
// streaming pipeline: the same report stream pushed through 1, 2, and
// 4 spectrum workers, reporting end-to-end reports/sec and spectra/sec.
// The fusion stage is sharded to match the worker count so both
// parallel stages widen together; dispatch is batched (one queue op
// per report). On multi-core hardware throughput should scale
// near-linearly with the worker count (the spectrum stage dominates);
// on a single core the worker counts should tie, which is itself the
// "no pipeline overhead" check — record the core count alongside the
// numbers when comparing.
func BenchmarkPipelineThroughput(b *testing.B) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		b.Fatal(err)
	}
	reports := genPipelineReports(b, sc, 6, 6)
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	var spectra int
	for _, rep := range reports {
		spectra += len(rep.Reports)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runPipelineThroughput(b, sc, arrays, reports, spectra, workers,
				pipeline.WithAssemblerShards(workers))
		})
	}
}

// BenchmarkPipelineThroughputInstrumented repeats the workers=4 run
// with the full observability stack attached — an obs.Registry (the
// pipeline's own counters and stage histograms, which it keeps either
// way, attached to the Prometheus-facing families), a per-sequence
// tracer (spans and events on every stage), and the RF-health monitor
// (EWMA updates per spectrum). Compare against
// BenchmarkPipelineThroughput/workers=4: the budget for the whole
// stack is 10% of the uninstrumented spectra/s. The registry adds
// nothing per event; the tracer and the health monitor are the cost.
func BenchmarkPipelineThroughputInstrumented(b *testing.B) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		b.Fatal(err)
	}
	reports := genPipelineReports(b, sc, 6, 6)
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	var spectra int
	for _, rep := range reports {
		spectra += len(rep.Reports)
	}
	b.Run("workers=4", func(b *testing.B) {
		reg := obs.NewRegistry()
		runPipelineThroughput(b, sc, arrays, reports, spectra, 4,
			pipeline.WithObs(reg),
			pipeline.WithTracer(tracing.New()),
			pipeline.WithHealth(health.New(reg, health.Options{})))
	})
}

func runPipelineThroughput(b *testing.B, sc *sim.Scenario, arrays map[string]*rf.Array, reports []*llrp.ROAccessReport, spectra, workers int, extra ...pipeline.Option) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := append([]pipeline.Option{pipeline.WithWorkers(workers)}, extra...)
		p, err := pipeline.New(pipeline.Deployment{Arrays: arrays, Grid: sc.Grid}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		p.Start()
		done := make(chan int, 1)
		go func() {
			n := 0
			for f := range p.Fixes() {
				if f.Err == nil {
					n++
				}
			}
			done <- n
		}()
		for _, rep := range reports {
			if err := p.Ingest(rep); err != nil {
				b.Fatal(err)
			}
		}
		p.Drain()
		if fixes := <-done; fixes == 0 {
			b.Fatal("pipeline produced no fixes")
		}
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(len(reports)*b.N)/secs, "reports/s")
		b.ReportMetric(float64(spectra*b.N)/secs, "spectra/s")
	}
}
