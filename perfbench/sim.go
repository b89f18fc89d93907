package main

import (
	"fmt"
	"math/rand"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/trace"
)

// The fine/lod spec stream: complexes the size of the scenario corpus's
// (a few dozen mass centres), communication-dominated settings.
const (
	simSolute  = 9
	simWaters  = 16
	simCutoff  = 10.0
	simSteps   = 300
	setupReps  = 9
	minServers = 2
	maxServers = 8
	// simTailPct is the fixed percentile of op_ms_tail on fine and lod.
	// Their sim count varies with throughput, and a tail read off the
	// ladder would jump between rungs with it; p95 lies in the costliest
	// stratum of the stream (1/14 of the sims).
	simTailPct = 95
)

// simSpecs is the seed's spec stream for fine (LoD off) and lod (LoD on):
// one spec per (servers, pair-list update interval) stratum, so every
// seed carries the same mix of work and only the complexes, the pair
// distributions and the order differ.
func simSpecs(seed int64, lod md.LoDMode) []harness.RunSpec {
	rng := rand.New(rand.NewSource(seed))
	var specs []harness.RunSpec
	for servers := minServers; servers <= maxServers; servers++ {
		for update := 1; update <= 2; update++ {
			cs := rng.Int63n(1 << 30)
			specs = append(specs, harness.RunSpec{
				Platform: platform.J90(),
				Sys: molecule.Generate(molecule.Config{Name: fmt.Sprintf("complex-%d", cs),
					SoluteAtoms: simSolute, Waters: simWaters, Seed: cs, Interleave: true}),
				Opts: md.Options{Cutoff: simCutoff, UpdateEvery: update, Accounting: true,
					InitTemperature: 300, Seed: rng.Int63n(1 << 20), LoD: lod},
				Servers: servers,
				Steps:   simSteps,
			})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// fingerprint is what every run of a spec must reproduce exactly: its
// energies, its virtual makespan and its virtual-time breakdown.
type fingerprint struct {
	Energies  string
	Makespan  float64
	Breakdown trace.Breakdown
}

func fingerprintOf(res *md.Result, b trace.Breakdown) fingerprint {
	es := make([]float64, 0, 5*len(res.Steps))
	for _, st := range res.Steps {
		es = append(es, st.EVdw, st.ECoul, st.EBonded, st.ETotal, st.Kinetic)
	}
	return fingerprint{Energies: archive.HashFloats(es), Makespan: res.EndSeconds, Breakdown: b}
}

// lodOff returns spec with macro replay disabled: the fine-grained
// reference every output is checked against.
func lodOff(spec harness.RunSpec) harness.RunSpec {
	spec.Opts.LoD = md.LoDOff
	return spec
}

// reference runs each spec LoD-off through harness.Run.
func reference(specs []harness.RunSpec) ([]fingerprint, error) {
	refs := make([]fingerprint, len(specs))
	for i, spec := range specs {
		out, err := harness.Run(lodOff(spec))
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refs[i] = fingerprintOf(out.Result, out.Breakdown)
	}
	return refs, nil
}

// simSample is one timed simulation of a closed-loop window.
type simSample struct {
	spec  int
	fp    fingerprint
	macro int // LoD macro-replayed phases
	err   error
}

// simWindow runs the specs round-robin, one at a time, for d.  runOne
// executes one spec.  It returns the per-sim latencies, the rate of every
// complete round and the outputs to check.
func simWindow(specs []harness.RunSpec, d time.Duration,
	runOne func(harness.RunSpec) (fingerprint, int, error)) (lat, rates []float64, got []simSample) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r0 := time.Now()
		complete := true
		for i, spec := range specs {
			t0 := time.Now()
			fp, macro, err := runOne(spec)
			lat = append(lat, since(t0))
			got = append(got, simSample{spec: i, fp: fp, macro: macro, err: err})
			if i < len(specs)-1 && !time.Now().Before(deadline) {
				complete = false
				break
			}
		}
		if complete {
			rates = append(rates, float64(len(specs))/since(r0))
		}
	}
	return lat, rates, got
}

func harnessRun(spec harness.RunSpec) (fingerprint, int, error) {
	out, err := harness.Run(spec)
	if err != nil {
		return fingerprint{}, 0, err
	}
	return fingerprintOf(out.Result, out.Breakdown), out.Result.LoDMacroPhases, nil
}

// checkSamples counts every sample as an operation.  It fails when the
// run erred, differs from its spec's LoD-off reference, or replayed a
// different number of macro phases than the first run of its spec (which
// must be none with LoD off and some with it on).
func checkSamples(r *result, got []simSample, refs []fingerprint, macro map[int]int, lod bool) {
	for _, s := range got {
		want, seen := macro[s.spec]
		if !seen {
			want = s.macro
			macro[s.spec] = s.macro
		}
		ok := s.err == nil && s.fp == refs[s.spec] && s.macro == want && (s.macro > 0) == lod
		what := ""
		if !ok {
			what = fmt.Sprintf("spec %d: err=%v macro=%d/%d got=%+v want=%+v",
				s.spec, s.err, s.macro, want, s.fp, refs[s.spec])
		}
		r.op(ok, what)
	}
}

// runSim is the fine and lod workloads: a closed-loop parameter sweep of
// the seed's spec stream through harness.Run, one sim at a time.
func runSim(cfg config, lod bool, r *result) error {
	mode := md.LoDOff
	if lod {
		mode = md.LoDOn
	}
	var specs []harness.RunSpec
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		specs = simSpecs(cfg.seed, mode)
		// Warm up with one pass over the stream: every stratum, so
		// set-up does the same work on every seed.
		for _, spec := range specs {
			if _, err := harness.Run(spec); err != nil {
				return fmt.Errorf("warm-up sim: %w", err)
			}
		}
		setups = append(setups, since(t0))
	}
	r.set("setup_s", medianOf(setups))
	r.details["setup_s"] = map[string]any{"n": len(setups)}

	if !cfg.trace {
		u0 := selfUsage()
		lat, rates, got := simWindow(specs, cfg.window, harnessRun)
		r.setCost(u0, selfUsage(), len(lat))
		refs, err := reference(specs)
		if err != nil {
			return err
		}
		checkSamples(r, got, refs, map[int]int{}, lod)
		reportSimRates(r, len(specs), lat, rates, got)
		return nil
	}

	// Traced run: an untraced half, then a traced half under the CPU
	// profiler; fine runs its traced half through the counting pvm.Task
	// wrapper (lod cannot: a wrapper hides the simulated task that macro
	// replay needs, which would silently turn lod into fine).
	half := cfg.window / 2
	plain, _, got := simWindow(specs, half, harnessRun)
	refs, err := reference(specs)
	if err != nil {
		return err
	}
	macro := map[int]int{}
	checkSamples(r, got, refs, macro, lod)
	tracedRun := harnessRun
	if !lod {
		counts := &pvmCounts{}
		tracedRun = func(spec harness.RunSpec) (fingerprint, int, error) {
			fp, res, err := countedRun(spec, counts)
			if err != nil {
				return fp, 0, err
			}
			return fp, res.LoDMacroPhases, nil
		}
	}
	var traced []float64
	prof, err := profileCPU(func() { traced, _, got = simWindow(specs, half, tracedRun) })
	if err != nil {
		return err
	}
	checkSamples(r, got, refs, macro, lod)
	r.set("bench.trace_overhead_pct", (mean(traced)/mean(plain)-1)*100)
	r.details["bench.trace_overhead_pct"] = map[string]any{"untraced_sims": len(plain), "traced_sims": len(traced)}
	if err := setCPU(r, prof); err != nil {
		return err
	}
	r.set("mem.peak_rss_mb", selfUsage().peakRSSMiB)
	return layerProbes(cfg, specs, r)
}

// reportSimRates sets sims_per_s (the median complete-round rate),
// op_ms_tail (the simTailPct percentile of the per-sim latencies) and
// op_ms_p50: each spec's median latency, averaged over the stream's
// specs.  The strata of the stream differ in cost several-fold, so a
// median pooled over all sims sits in the gap between the two middle
// strata and jumps with the seed's complexes; the per-spec medians drop
// the noise and their mean weighs every stratum equally.
func reportSimRates(r *result, nspecs int, lat, rates []float64, got []simSample) {
	if len(rates) == 0 {
		rates = []float64{float64(len(lat)) / sum(lat)}
	}
	r.set("sims_per_s", medianOf(rates))
	r.details["sims_per_s"] = map[string]any{"rounds": len(rates), "sims": len(lat)}
	bySpec := make([][]float64, nspecs)
	for i, s := range got {
		bySpec[s.spec] = append(bySpec[s.spec], lat[i])
	}
	var meds []float64
	for _, xs := range bySpec {
		if len(xs) > 0 {
			meds = append(meds, medianOf(xs)*1000)
		}
	}
	r.set("op_ms_p50", mean(meds))
	r.details["op_ms_p50"] = map[string]any{"n": len(lat), "specs": len(meds), "spec_p50_ms": meds}
	r.set("op_ms_tail", percentile(lat, simTailPct)*1000)
	r.details["op_ms_tail"] = map[string]any{"n": len(lat), "tail_pct": simTailPct}
}

// countedRun runs spec the way harness.Run composes a run — a simulated
// VM with a trace recorder, md.RunParallel on its root task — but hands
// md.RunParallel the counting wrapper, and times md's init and steps.
func countedRun(spec harness.RunSpec, c *pvmCounts) (fingerprint, *md.Result, error) {
	rec := trace.NewRecorder()
	sim := pvm.NewSimVM(spec.Platform, rec)
	opts := spec.Opts
	var res *md.Result
	var runErr error
	sim.SpawnRoot("opal-client", func(t pvm.Task) {
		t0 := time.Now()
		last := t0
		opts.AfterInit = func() {
			now := time.Now()
			c.initNs = append(c.initNs, float64(now.Sub(t0)))
			last = now
		}
		opts.AfterStep = func(int, md.StepInfo) {
			now := time.Now()
			c.stepNs = append(c.stepNs, float64(now.Sub(last)))
			last = now
		}
		res, runErr = md.RunParallel(&countingTask{Task: t, c: c}, spec.Sys, opts, spec.Servers, spec.Steps)
	})
	if err := sim.Run(); err != nil {
		return fingerprint{}, nil, err
	}
	if runErr != nil {
		return fingerprint{}, nil, runErr
	}
	c.steps += len(res.Steps)
	b := trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, res.StepSeconds)
	return fingerprintOf(res, b), res, nil
}

// pvmCounts accumulates what countingTask sees.  The simulated kernel
// runs one task at a time, handing an execution token over channels, so
// the tasks never touch it concurrently.
type pvmCounts struct {
	msgs, bytes, handoffs, steps int
	sends, waits                 int
	sendNs, waitNs               int64
	initNs, stepNs               []float64
}

// countingTask wraps a pvm.Task, and every task it spawns, to count at
// the pvm boundary the messages and bytes sent, the points where a task
// hands the kernel token back (sends, receives and barriers), and the
// host time spent inside sends and blocked in receives and barriers.
type countingTask struct {
	pvm.Task
	c *pvmCounts
}

func (w *countingTask) Send(dst, tag int, b *pvm.Buffer) {
	t0 := time.Now()
	n := b.Bytes()
	w.Task.Send(dst, tag, b)
	w.sent(t0, 1, n)
}

func (w *countingTask) Mcast(dsts []int, tag int, b *pvm.Buffer) {
	t0 := time.Now()
	n := b.Bytes()
	w.Task.Mcast(dsts, tag, b)
	w.sent(t0, len(dsts), n)
}

func (w *countingTask) sent(t0 time.Time, k, n int) {
	w.c.sendNs += int64(time.Since(t0))
	w.c.sends += k
	w.c.msgs += k
	w.c.bytes += k * n
	w.c.handoffs += k
}

func (w *countingTask) waited(t0 time.Time) {
	w.c.waitNs += int64(time.Since(t0))
	w.c.waits++
	w.c.handoffs++
}

func (w *countingTask) Recv(src, tag int) (*pvm.Buffer, int, int) {
	t0 := time.Now()
	b, s, g := w.Task.Recv(src, tag)
	w.waited(t0)
	return b, s, g
}

func (w *countingTask) Barrier(name string, parties int) {
	t0 := time.Now()
	w.Task.Barrier(name, parties)
	w.waited(t0)
}

func (w *countingTask) Spawn(name string, n int, fn func(pvm.Task)) []int {
	return w.Task.Spawn(name, n, func(t pvm.Task) { fn(&countingTask{Task: t, c: w.c}) })
}

// The optional pvm capabilities are forwarded, so that the wrapped run
// records the same flows and recovery windows as an unwrapped one.

func (w *countingTask) RecvTimeout(src, tag int, d time.Duration) (*pvm.Buffer, int, int, error) {
	t0 := time.Now()
	b, s, g, err := pvm.RecvDeadline(w.Task, src, tag, d)
	w.waited(t0)
	return b, s, g, err
}

func (w *countingTask) ReportRecovery(start, end float64) { pvm.ReportRecovery(w.Task, start, end) }

func (w *countingTask) ReportFlow(method string, server int, issue, reply float64) {
	pvm.ReportFlow(w.Task, method, server, issue, reply)
}
