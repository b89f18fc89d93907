package main

import (
	"fmt"
	"time"

	"opalperf/internal/core"
	"opalperf/internal/forcefield"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/parallel"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

// layerProbes measures every in-process layer on the workload's own
// specs, checking each output like the workload does, and the service
// layers on a short service run (the service workload measures those
// itself).
func layerProbes(cfg config, specs []harness.RunSpec, r *result) error {
	refs, err := probePVM(specs, r)
	if err != nil {
		return err
	}
	if err := probeTrace(specs, refs, r); err != nil {
		return err
	}
	if err := probeOverheads(specs, refs, r); err != nil {
		return err
	}
	probeKernels(specs, r)
	if err := probeHarness(specs, r); err != nil {
		return err
	}
	probePredict(cfg.seed, r)
	if cfg.workload != "service" {
		return serviceProbe(cfg, r)
	}
	return nil
}

// probePVM runs every spec LoD-off through the counting pvm.Task wrapper
// and checks it against harness.Run of the same spec, whose outcomes it
// returns as the probes' references.
func probePVM(specs []harness.RunSpec, r *result) ([]fingerprint, error) {
	refs, err := reference(specs)
	if err != nil {
		return nil, err
	}
	c := &pvmCounts{}
	for i, spec := range specs {
		fp, res, err := countedRun(lodOff(spec), c)
		ok := err == nil && fp == refs[i] && res.LoDMacroPhases == 0
		r.op(ok, fmt.Sprintf("counted run of spec %d differs from harness.Run (err=%v)", i, err))
	}
	steps := float64(c.steps)
	r.set("pvm.msgs_per_step", float64(c.msgs)/steps)
	r.set("pvm.bytes_per_step", float64(c.bytes)/steps)
	r.set("pvm.send_us", float64(c.sendNs)/float64(c.sends)/1e3)
	r.set("pvm.recv_wait_us", float64(c.waitNs)/float64(c.waits)/1e3)
	r.set("vm.handoffs_per_step", float64(c.handoffs)/steps)
	r.set("md.init_ms", medianOf(c.initNs)/1e6)
	r.setDist("md.step_us_p50", summarize(c.stepNs), 1e-3)
	return refs, nil
}

// probeTrace reads the recorder of harness.Run outcomes (in the
// workload's own LoD mode) and times trace.ComputeBreakdown.
func probeTrace(specs []harness.RunSpec, refs []fingerprint, r *result) error {
	var steps, segs, flows, phases, macro, fallback, bdNs float64
	for i, spec := range specs {
		out, err := harness.Run(spec)
		if err != nil {
			return fmt.Errorf("trace probe: %w", err)
		}
		fp := fingerprintOf(out.Result, out.Breakdown)
		r.op(fp == refs[i], fmt.Sprintf("trace probe spec %d differs from reference", i))
		res := out.Result
		n := float64(len(res.Steps))
		steps += n
		segs += float64(len(out.Recorder.Segments()))
		fl := float64(len(out.Recorder.Flows()))
		flows += fl
		phases += fl / float64(max(spec.Servers, 1))
		macro += float64(res.LoDMacroPhases)
		fallback += float64(res.LoDFallbackPhases)
		const reps = 20
		t0 := time.Now()
		var b trace.Breakdown
		for k := 0; k < reps; k++ {
			b = trace.ComputeBreakdown(out.Recorder, 0, res.ServerTIDs, out.Wall)
		}
		bdNs += float64(time.Since(t0)) / reps
		r.op(b.Wall == out.Wall, "breakdown wall differs from the run's")
	}
	r.set("trace.segments_per_step", segs/steps)
	r.set("trace.flows_per_step", flows/steps)
	r.set("trace.breakdown_us", bdNs/float64(len(specs))/1e3)
	r.set("sciddle.phases_per_step", phases/steps)
	ratio := 0.0
	if macro+fallback > 0 {
		ratio = macro / (macro + fallback)
	}
	r.set("sciddle.macro_ratio", ratio)
	return nil
}

// leanRun is the path without a trace recorder: pvm.NewSimVM(pl, nil)
// and md.RunParallel, as BenchmarkScenarioThroughput composes it.
func leanRun(spec harness.RunSpec) (*md.Result, error) {
	sim := pvm.NewSimVM(spec.Platform, nil)
	var res *md.Result
	var runErr error
	sim.SpawnRoot("opal-client", func(t pvm.Task) {
		res, runErr = md.RunParallel(t, spec.Sys, spec.Opts, spec.Servers, spec.Steps)
	})
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return res, runErr
}

// probeOverheads times the same specs through harness.Run against the
// lean recorder-free path (trace.recorder_pct), and with telemetry and
// the comm matrix armed against disarmed (telemetry.armed_pct).  The
// variants alternate spec by spec so drift hits both alike, and their
// physics must agree.
func probeOverheads(specs []harness.RunSpec, refs []fingerprint, r *result) error {
	const reps = 2
	var tHarness, tLean, tArmed float64
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.EnableMatrix(false)
	}()
	for k := 0; k < reps; k++ {
		for i, spec := range specs {
			t0 := time.Now()
			res, err := leanRun(spec)
			tLean += since(t0)
			if err != nil {
				return fmt.Errorf("lean run: %w", err)
			}
			lean := fingerprintOf(res, trace.Breakdown{})
			r.op(lean.Energies == refs[i].Energies && lean.Makespan == refs[i].Makespan,
				fmt.Sprintf("lean run of spec %d differs from reference", i))

			t0 = time.Now()
			fp, _, err := harnessRun(spec)
			tHarness += since(t0)
			r.op(err == nil && fp == refs[i], fmt.Sprintf("harness run of spec %d differs", i))

			telemetry.SetEnabled(true)
			telemetry.EnableMatrix(true)
			t0 = time.Now()
			fp, _, err = harnessRun(spec)
			tArmed += since(t0)
			telemetry.SetEnabled(false)
			telemetry.EnableMatrix(false)
			r.op(err == nil && fp == refs[i], fmt.Sprintf("armed run of spec %d differs", i))
		}
	}
	r.set("trace.recorder_pct", (tHarness-tLean)/tHarness*100)
	r.set("telemetry.armed_pct", (tArmed/tHarness-1)*100)
	return nil
}

// probeKernels calls the pair-list update and the force-field row kernel
// directly on every distinct (system, cut-off) of the specs, with one
// list holding every row, and checks both against a per-pair recount.
func probeKernels(specs []harness.RunSpec, r *result) {
	type key struct {
		sys    *molecule.System
		cutoff float64
	}
	seen := map[key]bool{}
	lj := forcefield.BuildLJ(forcefield.DefaultLJ())
	var upd, checks, active, rowNs []float64
	for _, spec := range specs {
		k := key{spec.Sys, spec.Opts.Cutoff}
		if seen[k] {
			continue
		}
		seen[k] = true
		sys := k.sys
		excl := forcefield.BuildExclusions(sys)
		rows := make([]int, sys.N)
		for i := range rows {
			rows[i] = i
		}
		l := pairlist.NewList(sys.N, rows)
		var nChecks int
		perUpdate := timeLoop(func() { nChecks, _ = l.Update(sys.Pos, k.cutoff, excl) })
		upd = append(upd, perUpdate)
		checks = append(checks, float64(nChecks))
		active = append(active, float64(l.NActive))
		r.op(nChecks == sys.N*(sys.N-1)/2 && l.NActive == countActive(sys, k.cutoff, excl),
			fmt.Sprintf("pair list of %s at %g A differs from a recount", sys.Name, k.cutoff))
		if l.NActive == 0 {
			continue
		}
		grad := make([]float64, 3*sys.N)
		var evdw, ecoul float64
		perSweep := timeLoop(func() {
			evdw, ecoul = 0, 0
			for ri, i := range l.Rows {
				c12, c6 := lj.Row(sys.Type[i])
				evdw, ecoul, _, _ = forcefield.PairEnergyRow(sys.Pos, i, l.Pairs[ri], sys.Type,
					c12, c6, sys.Charge[i], sys.Charge, grad, evdw, ecoul)
			}
		})
		rowNs = append(rowNs, perSweep*1e9/float64(l.NActive))
		wv, wc := pairSum(sys, l, lj)
		r.op(evdw == wv && ecoul == wc, fmt.Sprintf("row kernel of %s differs from PairEnergy", sys.Name))
	}
	r.set("pairlist.update_ms", mean(upd)*1e3)
	r.set("pairlist.checks_per_update", mean(checks))
	r.set("pairlist.active_pairs", mean(active))
	r.set("forcefield.row_ns_per_pair", mean(rowNs))
}

// timeLoop runs f until at least 20 ms have passed (at least 3 times)
// and returns the mean seconds per call.
func timeLoop(f func()) float64 {
	t0 := time.Now()
	n := 0
	for n < 3 || time.Since(t0) < 20*time.Millisecond {
		f()
		n++
	}
	return since(t0) / float64(n)
}

// countActive recounts the active pairs of a full list pair by pair.
func countActive(sys *molecule.System, cutoff float64, excl *forcefield.Exclusions) int {
	n := 0
	for i := 0; i < sys.N; i++ {
		for j := i + 1; j < sys.N; j++ {
			if (cutoff <= 0 || forcefield.Dist2(sys.Pos, i, j) <= cutoff*cutoff) && !excl.Excluded(i, j) {
				n++
			}
		}
	}
	return n
}

// pairSum evaluates the list pair by pair with forcefield.PairEnergy, in
// the row kernel's summation order.
func pairSum(sys *molecule.System, l *pairlist.List, lj *forcefield.LJTable) (evdw, ecoul float64) {
	grad := make([]float64, 3*sys.N)
	for ri, i := range l.Rows {
		for _, j32 := range l.Pairs[ri] {
			j := int(j32)
			c12, c6 := lj.Coeffs(sys.Type[i], sys.Type[j])
			qq := forcefield.CoulombK * sys.Charge[i] * sys.Charge[j]
			v, c := forcefield.PairEnergy(sys.Pos, i, j, c12, c6, qq, grad)
			evdw += v
			ecoul += c
		}
	}
	return evdw, ecoul
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// probeHarness times every spec through harness.Run serially
// (harness.case_ms_p50), then all of them on the default harness pool
// (parallel.efficiency), and fits the model to the serial measurements
// with core.Calibrate (core.calibrate_ms, core.fit_mape_pct).
func probeHarness(specs []harness.RunSpec, r *result) error {
	var serial []float64
	outs := make([]harness.RunOutcome, len(specs))
	ms := make([]core.Measurement, len(specs))
	for i, spec := range specs {
		t0 := time.Now()
		out, err := harness.Run(spec)
		serial = append(serial, since(t0))
		if err != nil {
			return fmt.Errorf("harness probe: %w", err)
		}
		outs[i] = out
		ms[i] = harness.MeasurementOf(spec, out)
	}
	t0 := time.Now()
	pooled, err := harness.RunMany(specs)
	wall := since(t0)
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	for i := range specs {
		r.op(fingerprintOf(pooled[i].Result, pooled[i].Breakdown) == fingerprintOf(outs[i].Result, outs[i].Breakdown),
			fmt.Sprintf("pooled run of spec %d differs from serial", i))
	}
	workers := min(parallel.Workers(), len(specs))
	r.setDist("harness.case_ms_p50", summarize(serial), 1e3)
	r.set("parallel.efficiency", sum(serial)/(wall*float64(workers)))

	var rep core.Report
	perFit := timeLoop(func() { rep, err = core.Calibrate(specs[0].Platform.Name, ms) })
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	again, err := core.Calibrate(specs[0].Platform.Name, ms)
	r.op(err == nil && again.MAPE == rep.MAPE && again.R2 == rep.R2, "core.Calibrate is not deterministic")
	r.set("core.calibrate_ms", perFit*1e3)
	r.set("core.fit_mape_pct", rep.MAPE*100)
	r.details["core.fit_mape_pct"] = map[string]any{"cases": len(ms), "r2": rep.R2}
	return nil
}
