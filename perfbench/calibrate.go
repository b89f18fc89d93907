package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"opalperf/internal/core"
	"opalperf/internal/harness"
	"opalperf/internal/molecule"
)

// calibSuite is the paper's Fig 4 calibration at the scale of the root
// package's BenchmarkFig4Calibration: the reduced 7 x 2^(3-1) design over
// medium and large complexes, 5 steps per case.  The seed picks the two
// complexes.
func calibSuite(seed int64) harness.Suite {
	rng := rand.New(rand.NewSource(seed))
	suite := harness.NewSuite(map[string]*molecule.System{
		"medium": molecule.Generate(molecule.Config{Name: "medium (bench)",
			SoluteAtoms: 390, Waters: 680, Seed: rng.Int63n(1 << 30), Interleave: true}),
		"large": molecule.Generate(molecule.Config{Name: "large (bench)",
			SoluteAtoms: 410, Waters: 1160, Seed: rng.Int63n(1 << 30), Interleave: true}),
	})
	suite.Steps = 5
	return suite
}

// calibSpecs are the design's cases as run specs, in design order.
func calibSpecs(suite harness.Suite) ([]harness.RunSpec, error) {
	cases, err := suite.FractionCases()
	if err != nil {
		return nil, err
	}
	specs := make([]harness.RunSpec, len(cases))
	for i, c := range cases {
		if specs[i], err = suite.SpecFor(c); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// referenceFit runs the cases one by one and fits them: the report every
// pooled calibration must reproduce exactly.
func referenceFit(suite harness.Suite, specs []harness.RunSpec) (core.Report, error) {
	ms := make([]core.Measurement, len(specs))
	for i, spec := range specs {
		out, err := harness.Run(spec)
		if err != nil {
			return core.Report{}, fmt.Errorf("reference case: %w", err)
		}
		ms[i] = harness.MeasurementOf(spec, out)
	}
	return core.Calibrate(suite.Platform.Name, ms)
}

// calWindow repeats harness.Suite.Calibrate for d and returns each
// calibration's wall time and report.
func calWindow(suite harness.Suite, d time.Duration) (times []float64, reps []core.Report, errs []error) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		rep, err := suite.Calibrate(nil)
		times = append(times, since(t0))
		reps = append(reps, rep)
		errs = append(errs, err)
	}
	return times, reps, errs
}

func checkFits(r *result, reps []core.Report, errs []error, ref core.Report) {
	for i, rep := range reps {
		r.op(errs[i] == nil && reflect.DeepEqual(rep, ref),
			fmt.Sprintf("calibration %d: err=%v mape=%g r2=%g, want mape=%g r2=%g",
				i, errs[i], rep.MAPE, rep.R2, ref.MAPE, ref.R2))
	}
}

// calTailPct is the fixed percentile of op_ms_tail on calibrate.  A
// window holds 15 to 20 calibrations, too few for any rung of the ladder,
// which would report their maximum: as the host slowed by a sixth between
// two sets of runs, the median of that maximum rose by a quarter.
const calTailPct = 75

// runCalibrate is the calibrate workload: harness.Suite.Calibrate over
// and over on the default harness pool.
func runCalibrate(cfg config, r *result) error {
	var suite harness.Suite
	var specs []harness.RunSpec
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		suite = calibSuite(cfg.seed)
		var err error
		if specs, err = calibSpecs(suite); err != nil {
			return err
		}
		if _, err := harness.Run(specs[0]); err != nil {
			return fmt.Errorf("warm-up case: %w", err)
		}
		setups = append(setups, since(t0))
	}
	r.set("setup_s", medianOf(setups))
	r.details["setup_s"] = map[string]any{"n": len(setups)}

	if !cfg.trace {
		u0 := selfUsage()
		times, reps, errs := calWindow(suite, cfg.window)
		r.setCost(u0, selfUsage(), len(times))
		ref, err := referenceFit(suite, specs)
		if err != nil {
			return err
		}
		checkFits(r, reps, errs, ref)
		rates := make([]float64, len(times))
		for i, t := range times {
			rates[i] = float64(len(specs)) / t
		}
		r.set("sims_per_s", medianOf(rates))
		r.details["sims_per_s"] = map[string]any{"calibrations": len(times), "cases": len(specs)}
		d := summarize(times)
		r.setDist("op_ms_p50", d, 1e3)
		r.set("op_ms_tail", percentile(times, calTailPct)*1e3)
		r.details["op_ms_tail"] = map[string]any{"n": len(times), "tail_pct": calTailPct}
		r.details["fit"] = map[string]any{"mape_pct": ref.MAPE * 100, "r2": ref.R2}
		return nil
	}

	half := cfg.window / 2
	plain, reps, errs := calWindow(suite, half)
	ref, err := referenceFit(suite, specs)
	if err != nil {
		return err
	}
	checkFits(r, reps, errs, ref)
	var traced []float64
	prof, err := profileCPU(func() { traced, reps, errs = calWindow(suite, half) })
	if err != nil {
		return err
	}
	checkFits(r, reps, errs, ref)
	r.set("bench.trace_overhead_pct", (medianOf(traced)/medianOf(plain)-1)*100)
	r.details["bench.trace_overhead_pct"] = map[string]any{"untraced": len(plain), "traced": len(traced)}
	if err := setCPU(r, prof); err != nil {
		return err
	}
	r.set("mem.peak_rss_mb", selfUsage().peakRSSMiB)
	return layerProbes(cfg, specs, r)
}
