package experiments

import (
	"io"
	"math"

	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/doppler"
	"dwatch/internal/dwatch"
	"dwatch/internal/geom"
	"dwatch/internal/loc"
	"dwatch/internal/music"
	"dwatch/internal/optimize"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/stats"
)

// Ablations probe the design choices DESIGN.md calls out; they are not
// paper figures but quantify why each mechanism exists.

// ---------------------------------------------------------------------
// Smoothing ablation: coherent multipath without spatial smoothing.

// AblationSmoothingResult compares path resolution with and without
// forward-backward spatial smoothing.
type AblationSmoothingResult struct {
	Trials          int
	ResolvedWith    int // trials where all 3 paths produced peaks
	ResolvedWithout int
}

// AblationSmoothing shows why Section 4.2 adopts spatial smoothing: the
// multipath copies of one tag's backscatter are fully coherent, and
// without smoothing the correlation matrix is rank-1, collapsing MUSIC.
func AblationSmoothing(opts Options) (*AblationSmoothingResult, error) {
	opts = opts.withDefaults()
	sc, err := newMicroScene(6)
	if err != nil {
		return nil, err
	}
	out := &AblationSmoothingResult{Trials: 4 * opts.Reps}
	for trial := 0; trial < out.Trials; trial++ {
		rng := rngFor(opts.Seed, int64(5000+trial))
		x, _, err := sc.env.Synthesize(sc.tagPos, sc.arr, nil, channel.SynthOpts{
			Snapshots: 10, NoiseStd: microNoiseStd, Rng: rng,
		})
		if err != nil {
			return nil, err
		}
		resolves := func(noSmoothing bool) (bool, error) {
			res, err := music.Compute(x, sc.arr, music.Options{Sources: 3, NoSmoothing: noSmoothing})
			if err != nil {
				return false, err
			}
			peaks := music.FindPeaks(res.Angles, res.Spectrum, 0.02)
			// Resolved means the three true paths are the spectrum's
			// dominant structure: each matched tightly by a peak, with
			// no more than one spurious extra peak.
			if len(peaks) > len(sc.paths)+1 {
				return false, nil
			}
			for _, p := range sc.paths {
				if _, ok := music.NearestPeak(peaks, p.AoA, rf.Rad(5)); !ok {
					return false, nil
				}
			}
			return true, nil
		}
		w, err := resolves(false)
		if err != nil {
			return nil, err
		}
		wo, err := resolves(true)
		if err != nil {
			return nil, err
		}
		if w {
			out.ResolvedWith++
		}
		if wo {
			out.ResolvedWithout++
		}
	}
	return out, nil
}

// Print renders the result.
func (r *AblationSmoothingResult) Print(w io.Writer) {
	printf(w, "Ablation — spatial smoothing (3 coherent paths resolved)\n")
	printf(w, "with smoothing    : %d/%d trials\n", r.ResolvedWith, r.Trials)
	printf(w, "without smoothing : %d/%d trials\n\n", r.ResolvedWithout, r.Trials)
}

// ---------------------------------------------------------------------
// Normalization ablation: P-MUSIC with and without Nor(B).

// AblationNormalizationResult compares power-estimation fidelity of the
// full P-MUSIC (Eq. 14) against the raw product PB·B without peak
// normalization.
type AblationNormalizationResult struct {
	// RatioErrWith/Without: mean |estimated/true − 1| of the power
	// ratio between path 1 and path 2 across trials.
	RatioErrWith    float64
	RatioErrWithout float64
	Trials          int
}

// AblationNormalization quantifies Eq. 14's Nor(·) term: without it,
// MUSIC's pseudo-probability peak heights distort per-path power.
func AblationNormalization(opts Options) (*AblationNormalizationResult, error) {
	opts = opts.withDefaults()
	sc, err := newMicroScene(6)
	if err != nil {
		return nil, err
	}
	if len(sc.paths) < 2 {
		return nil, errMicroPaths(len(sc.paths))
	}
	trueRatio := (sc.paths[0].Gain * sc.paths[0].Gain) / (sc.paths[1].Gain * sc.paths[1].Gain)
	out := &AblationNormalizationResult{Trials: 4 * opts.Reps}
	for trial := 0; trial < out.Trials; trial++ {
		rng := rngFor(opts.Seed, int64(6000+trial))
		x, _, err := sc.env.Synthesize(sc.tagPos, sc.arr, nil, channel.SynthOpts{
			Snapshots: 10, NoiseStd: microNoiseStd, Rng: rng,
		})
		if err != nil {
			return nil, err
		}
		sp, err := pmusic.Compute(x, sc.arr, pmusic.Options{Music: microMusicOpts})
		if err != nil {
			return nil, err
		}
		mres, err := music.Compute(x, sc.arr, microMusicOpts)
		if err != nil {
			return nil, err
		}
		ratioAt := func(power []float64) float64 {
			peaks := music.FindPeaks(sp.Angles, power, 0.001)
			p0, ok0 := music.NearestPeak(peaks, sc.paths[0].AoA, pathMatchTol)
			p1, ok1 := music.NearestPeak(peaks, sc.paths[1].AoA, pathMatchTol)
			if !ok0 || !ok1 || p1.Amplitude == 0 {
				return math.Inf(1)
			}
			return p0.Amplitude / p1.Amplitude
		}
		// Full P-MUSIC.
		rw := ratioAt(sp.Power)
		// Without normalization: PB(θ)·B(θ) raw.
		raw := make([]float64, len(sp.Angles))
		for i := range raw {
			raw[i] = sp.Beam[i] * mres.Spectrum[i]
		}
		rwo := ratioAt(raw)
		out.RatioErrWith += relErr(rw, trueRatio)
		out.RatioErrWithout += relErr(rwo, trueRatio)
	}
	out.RatioErrWith /= float64(out.Trials)
	out.RatioErrWithout /= float64(out.Trials)
	return out, nil
}

func relErr(got, want float64) float64 {
	if math.IsInf(got, 0) {
		return 10
	}
	return math.Abs(got/want - 1)
}

// Print renders the result.
func (r *AblationNormalizationResult) Print(w io.Writer) {
	printf(w, "Ablation — P-MUSIC peak normalization (power-ratio fidelity)\n")
	printf(w, "with Nor(B)    : mean ratio error %.2f\n", r.RatioErrWith)
	printf(w, "without Nor(B) : mean ratio error %.2f\n\n", r.RatioErrWithout)
}

// ---------------------------------------------------------------------
// Optimizer ablation: GD-only vs GA-only vs hybrid for Eq. 11.

// AblationOptimizerResult compares calibration error per optimizer.
type AblationOptimizerResult struct {
	GDOnly float64 // mean abs phase error, rad
	GAOnly float64
	Hybrid float64
	Trials int
}

// AblationOptimizer shows why Section 4.1 uses the GA+GD hybrid: the
// Eq. 11 objective is multimodal, so gradient descent from a random
// start stalls in local minima, while GA alone lacks final precision.
func AblationOptimizer(opts Options) (*AblationOptimizerResult, error) {
	opts = opts.withDefaults()
	arr, err := rf.NewArray(geom.Pt(0, 0, 1.25), geom.Pt2(1, 0), 8)
	if err != nil {
		return nil, err
	}
	// Multipath makes the Eq. 11 objective multimodal; in a clean LoS
	// room plain gradient descent already lands in the right basin.
	env := channel.NewEnv([]channel.Reflector{
		{Wall: geom.NewWall(-6, 9, 6, 9, 0, 2.5), Coeff: 0.6},
		{Wall: geom.NewWall(7, 0, 7, 9, 0, 2.5), Coeff: 0.6},
	})
	out := &AblationOptimizerResult{Trials: opts.Reps * 2}
	for trial := 0; trial < out.Trials; trial++ {
		rng := rngFor(opts.Seed, int64(7000+trial))
		truth := calib.RandomOffsets(arr.Elements, rng)
		var obs []calib.TagObs
		for i := 0; i < 6; i++ {
			pos := geom.Pt(-2+4*rng.Float64(), 2+6*rng.Float64(), 1.25)
			x, _, err := env.Synthesize(pos, arr, nil, channel.SynthOpts{
				Snapshots: 12, NoiseStd: 0.002, PhaseOffsets: truth, Rng: rng,
			})
			if err != nil {
				return nil, err
			}
			o, err := calib.NewTagObs(x, arr.SteeringAt(pos))
			if err != nil {
				return nil, err
			}
			obs = append(obs, o)
		}
		f := calib.Objective(arr, obs)
		n := arr.Elements - 1

		// GD-only from a random start.
		start := make([]float64, n)
		for i := range start {
			start[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		gdX, _ := optimize.GradientDescent(f, start, optimize.GDOptions{})
		out.GDOnly += offsetsErr(gdX, truth)

		// GA-only.
		gaX, _, err := optimize.Genetic(f, n, optimize.GAOptions{Lo: -math.Pi, Hi: math.Pi, Rng: rng})
		if err != nil {
			return nil, err
		}
		out.GAOnly += offsetsErr(gaX, truth)

		// Hybrid.
		hyX, _, err := optimize.Hybrid(f, n, optimize.HybridOptions{
			GA: optimize.GAOptions{Lo: -math.Pi, Hi: math.Pi, Rng: rng},
		})
		if err != nil {
			return nil, err
		}
		out.Hybrid += offsetsErr(hyX, truth)
	}
	out.GDOnly /= float64(out.Trials)
	out.GAOnly /= float64(out.Trials)
	out.Hybrid /= float64(out.Trials)
	return out, nil
}

// offsetsErr converts an optimizer solution (β₂…β_M) to the Fig. 9 error
// metric against the true per-antenna offsets.
func offsetsErr(x, truth []float64) float64 {
	est := make([]float64, len(truth))
	for i := 1; i < len(truth); i++ {
		est[i] = rf.WrapPhase(x[i-1])
	}
	return calib.MeanAbsError(est, truth)
}

// Print renders the result.
func (r *AblationOptimizerResult) Print(w io.Writer) {
	printf(w, "Ablation — Eq. 11 optimizer (mean phase error, rad)\n")
	printf(w, "gradient descent only : %.4f\n", r.GDOnly)
	printf(w, "genetic only          : %.4f\n", r.GAOnly)
	printf(w, "hybrid GA+GD          : %.4f\n\n", r.Hybrid)
}

// ---------------------------------------------------------------------
// Grid-size ablation (footnote 3 of the paper).

// AblationGridResult compares localization accuracy and cost per grid
// cell size.
type AblationGridResult struct {
	CellCm   []float64
	MedianCm []float64
	Coverage []float64
}

// AblationGridSize sweeps the localization grid cell (the paper picks
// 5 cm for rooms as its accuracy/latency balance).
func AblationGridSize(opts Options) (*AblationGridResult, error) {
	opts = opts.withDefaults()
	cells := []float64{0.02, 0.05, 0.10, 0.20}
	if opts.Fast {
		cells = []float64{0.05, 0.20}
	}
	out := &AblationGridResult{}
	for _, cell := range cells {
		cfg := sim.LibraryConfig()
		cfg.Seed = opts.Seed
		cfg.Cell = cell
		s, err := buildSystem(cfg, dwatch.Config{})
		if err != nil {
			return nil, err
		}
		locs := subsample(s.Scenario.TestLocations(0.5), opts.MaxLocations)
		col, err := runRoom(s, locs, opts.Reps)
		if err != nil {
			return nil, err
		}
		sum, err := col.Summarize()
		if err != nil {
			return nil, err
		}
		med := sum.Median
		if sum.N == 0 {
			med = cfg.Width
		}
		out.CellCm = append(out.CellCm, cell*100)
		out.MedianCm = append(out.MedianCm, med*100)
		out.Coverage = append(out.Coverage, sum.Coverage)
	}
	return out, nil
}

// Print renders the result.
func (r *AblationGridResult) Print(w io.Writer) {
	printf(w, "Ablation — localization grid cell size (library)\n")
	printf(w, "cell(cm)  median(cm)  coverage\n")
	for i := range r.CellCm {
		printf(w, "%8.0f  %10.1f  %7.0f%%\n", r.CellCm[i], r.MedianCm[i], 100*r.Coverage[i])
	}
	printf(w, "\n")
}

// ---------------------------------------------------------------------
// Outlier-rejection ablation: likelihood fusion vs naive triangulation.

// AblationOutlierResult compares Eq. 15 likelihood fusion against naive
// first-pair triangulation without clustering. Medians are over each
// method's own successful fixes, so the fix counts matter: the naive
// method only even produces a candidate when its first two angles
// happen to intersect in the room.
type AblationOutlierResult struct {
	LikelihoodMedianCm float64
	LikelihoodFixes    int
	NaiveMedianCm      float64
	NaiveFixes         int
	NaiveP90Cm         float64
	LikelihoodP90Cm    float64
	Attempts           int
}

// AblationOutlierRejection quantifies Section 4.3's wrong-angle
// handling: naive triangulation of the first detected angle pair is
// badly polluted by reflection-leg blockings, while the likelihood
// product (and candidate clustering) suppresses them.
func AblationOutlierRejection(opts Options) (*AblationOutlierResult, error) {
	opts = opts.withDefaults()
	cfg := sim.LibraryConfig()
	cfg.Seed = opts.Seed
	s, err := buildSystem(cfg, dwatch.Config{})
	if err != nil {
		return nil, err
	}
	locs := subsample(s.Scenario.TestLocations(0.5), opts.MaxLocations)
	var likeErrs, naiveErrs []float64
	attempts := 0
	for _, p := range locs {
		attempts++
		tgt := []channel.Target{channel.HumanTarget(p)}
		views, err := s.Views(tgt)
		if err != nil {
			continue
		}
		// Likelihood fusion.
		if res, err := loc.Localize(views, s.Scenario.Grid, loc.Options{}); err == nil {
			likeErrs = append(likeErrs, stats.HumanError(res.Pos.Dist2D(p)))
		}
		// Naive: intersect the strongest drop angle of the first two
		// readers that saw anything, no clustering, no rejection.
		if fix, ok := naiveTriangulate(views, s); ok {
			naiveErrs = append(naiveErrs, stats.HumanError(fix.Dist2D(p)))
		}
	}
	out := &AblationOutlierResult{
		Attempts:        attempts,
		LikelihoodFixes: len(likeErrs),
		NaiveFixes:      len(naiveErrs),
	}
	if len(likeErrs) > 0 {
		m, _ := stats.Median(likeErrs)
		p, _ := stats.Percentile(likeErrs, 90)
		out.LikelihoodMedianCm = m * 100
		out.LikelihoodP90Cm = p * 100
	}
	if len(naiveErrs) > 0 {
		m, _ := stats.Median(naiveErrs)
		p, _ := stats.Percentile(naiveErrs, 90)
		out.NaiveMedianCm = m * 100
		out.NaiveP90Cm = p * 100
	}
	return out, nil
}

// naiveTriangulate intersects the strongest drop angles of the first
// two readers with any evidence, with no clustering or outlier
// rejection — the strawman Section 4.3 improves on.
func naiveTriangulate(views []*loc.View, s *dwatch.System) (geom.Point, bool) {
	var obs []loc.AngleObservation
	for _, v := range views {
		bi, bv := -1, 0.2
		for i, d := range v.Drop {
			if d > bv {
				bi, bv = i, d
			}
		}
		if bi < 0 {
			continue
		}
		obs = append(obs, loc.AngleObservation{Array: v.Array, Angle: v.Angles[bi]})
		if len(obs) == 2 {
			break
		}
	}
	if len(obs) < 2 {
		return geom.Point{}, false
	}
	pts := loc.Triangulate(obs[0], obs[1], s.Scenario.Grid)
	if len(pts) == 0 {
		return geom.Point{}, false
	}
	return pts[0], true
}

// Print renders the result.
func (r *AblationOutlierResult) Print(w io.Writer) {
	printf(w, "Ablation — wrong-angle handling (library, human-rule cm)\n")
	printf(w, "                             median    p90   fixes/attempts\n")
	printf(w, "likelihood fusion (Eq. 15) : %6.1f  %6.1f  %d/%d\n",
		r.LikelihoodMedianCm, r.LikelihoodP90Cm, r.LikelihoodFixes, r.Attempts)
	printf(w, "naive 2-angle triangulation: %6.1f  %6.1f  %d/%d\n\n",
		r.NaiveMedianCm, r.NaiveP90Cm, r.NaiveFixes, r.Attempts)
}

// ---------------------------------------------------------------------
// Second-order-bounce ablation.

// AblationSecondOrderResult compares coverage and error with one- vs
// two-bounce channel modelling.
type AblationSecondOrderResult struct {
	Envs          []string
	CoverageFirst []float64
	CoverageBoth  []float64
	MedianFirstCm []float64
	MedianBothCm  []float64
	P90FirstCm    []float64
	P90BothCm     []float64
}

// AblationSecondOrder quantifies what double bounces buy and cost:
// they thicken the blockable multipath (coverage rises, the paper's
// "bad multipath is useful" effect) but two of a double bounce's three
// legs produce wrong-angle evidence when blocked, so the error tail
// grows. The room presets therefore default to first-order only.
func AblationSecondOrder(opts Options) (*AblationSecondOrderResult, error) {
	opts = opts.withDefaults()
	out := &AblationSecondOrderResult{}
	for _, mk := range []func() sim.Config{sim.HallConfig, sim.LibraryConfig} {
		for _, second := range []bool{false, true} {
			cfg := mk()
			cfg.Seed = opts.Seed
			cfg.SecondOrder = second
			s, err := buildSystem(cfg, dwatch.Config{})
			if err != nil {
				return nil, err
			}
			locs := subsample(s.Scenario.TestLocations(0.5), opts.MaxLocations)
			col, err := runRoom(s, locs, opts.Reps)
			if err != nil {
				return nil, err
			}
			sum, err := col.Summarize()
			if err != nil {
				return nil, err
			}
			if !second {
				out.Envs = append(out.Envs, cfg.Name)
				out.CoverageFirst = append(out.CoverageFirst, sum.Coverage)
				out.MedianFirstCm = append(out.MedianFirstCm, 100*sum.Median)
				out.P90FirstCm = append(out.P90FirstCm, 100*sum.P90)
			} else {
				out.CoverageBoth = append(out.CoverageBoth, sum.Coverage)
				out.MedianBothCm = append(out.MedianBothCm, 100*sum.Median)
				out.P90BothCm = append(out.P90BothCm, 100*sum.P90)
			}
		}
	}
	return out, nil
}

// Print renders the result.
func (r *AblationSecondOrderResult) Print(w io.Writer) {
	printf(w, "Ablation — second-order bounces (coverage vs tail)\n")
	printf(w, "env         order  coverage  median(cm)  p90(cm)\n")
	for i, e := range r.Envs {
		printf(w, "%-11s 1st    %7.0f%%  %10.1f  %7.1f\n", e, 100*r.CoverageFirst[i], r.MedianFirstCm[i], r.P90FirstCm[i])
		printf(w, "%-11s 1st+2nd%7.0f%%  %10.1f  %7.1f\n", e, 100*r.CoverageBoth[i], r.MedianBothCm[i], r.P90BothCm[i])
	}
	printf(w, "\n")
}

// ---------------------------------------------------------------------
// Extension: Doppler speed estimation (Section 8).

// ExtensionDopplerResult compares estimated Doppler shifts against the
// bistatic ground truth across walking speeds.
type ExtensionDopplerResult struct {
	SpeedsMps []float64
	WantHz    []float64
	GotHz     []float64
	BoundMps  []float64
}

// ExtensionDoppler exercises the Section 8 extension: a scattering
// walker's Doppler shift, measured by pulse-pair on beamformed coherent
// bursts, tracks the bistatic range-rate ground truth and lower-bounds
// the walking speed.
func ExtensionDoppler(opts Options) (*ExtensionDopplerResult, error) {
	opts = opts.withDefaults()
	arr, err := rf.NewArray(geom.Pt(0, 0, 1.25), geom.Pt2(1, 0), 8)
	if err != nil {
		return nil, err
	}
	env := channel.NewEnv(nil)
	tagPos := geom.Pt(3, 6, 1.25)
	start := geom.Pt(2.0, 1.5, 1.25)
	speeds := []float64{0.5, 1.0, 1.5, 2.0}
	if opts.Fast {
		speeds = []float64{0.5, 1.5}
	}
	out := &ExtensionDopplerResult{SpeedsMps: speeds}
	for i, speed := range speeds {
		u1 := start.Sub(tagPos).Unit()
		u2 := start.Sub(arr.Center()).Unit()
		vel := u1.Add(u2).Unit().Scale(-speed)
		mt := channel.MovingTarget{Target: channel.HumanTarget(start), Vel: vel, ScatterCoeff: 0.25}
		const interval = 0.01
		x, err := env.SynthesizeMoving(tagPos, arr, []channel.MovingTarget{mt}, interval, channel.SynthOpts{
			Snapshots: 32, NoiseStd: 1e-4, Rng: rngFor(opts.Seed, int64(8000+i)),
		})
		if err != nil {
			return nil, err
		}
		est, err := doppler.EstimateShift(x, arr, arr.AngleTo(start), interval)
		if err != nil {
			return nil, err
		}
		out.WantHz = append(out.WantHz, -doppler.BistaticRate(tagPos, start, vel, arr.Center())/arr.Lambda)
		out.GotHz = append(out.GotHz, est.ShiftHz)
		out.BoundMps = append(out.BoundMps, est.SpeedLBMps)
	}
	return out, nil
}

// Print renders the result.
func (r *ExtensionDopplerResult) Print(w io.Writer) {
	printf(w, "Extension — Doppler speed estimation (Sec. 8)\n")
	printf(w, "speed(m/s)  want(Hz)  got(Hz)  bound(m/s)\n")
	for i := range r.SpeedsMps {
		printf(w, "%10.1f  %8.2f  %7.2f  %10.2f\n", r.SpeedsMps[i], r.WantHz[i], r.GotHz[i], r.BoundMps[i])
	}
	printf(w, "\n")
}
