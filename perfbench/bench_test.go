package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"opalperf/internal/forcefield"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeMedianAndTail(t *testing.T) {
	cases := []struct {
		n             int
		p50, tail, at float64
	}{
		{1000, 500.5, 990, 99}, // exactly 10 samples beyond p99
		{999, 500, 950, 95},    // p99 would leave 9
		{50, 25.5, 38, 75},     // 12 beyond p75, 5 beyond p90
		{40, 20.5, 30, 75},     // 10 beyond p75
		{39, 20, 39, 100},      // p75 would leave 9: the maximum
		{5, 3, 5, 100},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.p50 || d.Tail != c.tail || d.TailPct != c.at {
			t.Errorf("n=%d: got %+v, want p50=%g tail=%g at p%g", c.n, d, c.p50, c.tail, c.at)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > d.Tail {
				beyond++
			}
		}
		if c.at < 100 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("empty: %+v", d)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct{ n, p, want float64 }{
		{1000, 95, 950}, {999, 95, 950}, {200, 95, 190}, {20, 95, 19}, {1, 95, 1},
	} {
		if got := percentile(seq(int(c.n)), c.p); got != c.want {
			t.Errorf("n=%g p%g: got %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("empty: %g", got)
	}
}

// A stalled send delays the sends due after it: the generator records
// them as late, and the lateness drains once it catches up.  Sends due at
// or after the end are not made.
func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	const rate = 50.0 // one send due every 20 ms
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(200 * time.Millisecond)
	var late []float64
	var dues []time.Time
	openLoop(start, end, rate, 1000, &late, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 1 {
			time.Sleep(70 * time.Millisecond) // stall across three due times
		}
	})
	if len(dues) != 10 || len(late) != 10 {
		t.Fatalf("sent %d (late %d), want the 10 due in the window", len(dues), len(late))
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 20 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("send %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	if late[2] < 0.045 {
		t.Errorf("send after the stall only %.1f ms late, want ~50", late[2]*1e3)
	}
	if !(late[2] > late[3] && late[3] > late[4]) {
		t.Errorf("lateness should drain after the stall: %v", late[2:5])
	}
	if late[len(late)-1] > 0.015 {
		t.Errorf("last send still %.1f ms late", late[len(late)-1]*1e3)
	}
	if d := summarize(late); d.TailPct != 100 {
		t.Errorf("with 10 samples the lateness tail is the maximum, got p%g", d.TailPct)
	}
}

func TestSpecStreamsDeterministicPerSeed(t *testing.T) {
	a, b, c := simSpecs(7, md.LoDOn), simSpecs(7, md.LoDOn), simSpecs(8, md.LoDOn)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("simSpecs(7) differs between calls")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("simSpecs ignores its seed")
	}
	strata := map[[2]int]int{}
	for _, s := range a {
		strata[[2]int{s.Servers, s.Opts.UpdateEvery}]++
		if s.Opts.LoD != md.LoDOn || s.Steps != simSteps || s.Sys.N != simSolute+simWaters {
			t.Fatalf("unexpected spec %+v", s)
		}
	}
	if len(strata) != len(a) || len(a) != 2*(maxServers-minServers+1) {
		t.Fatalf("want one spec per (servers, update) stratum, got %v", strata)
	}

	p, q := servicePlan(3, 10*time.Second), servicePlan(3, 10*time.Second)
	if !reflect.DeepEqual(p, q) {
		t.Fatal("servicePlan(3) differs between calls")
	}
	if reflect.DeepEqual(p.jobs, servicePlan(4, 10*time.Second).jobs) {
		t.Fatal("servicePlan ignores its seed")
	}
	dups := 0
	for i, j := range p.jobs {
		if j.dupOf >= 0 {
			dups++
			if j.dupOf >= i || p.jobs[j.dupOf].dupOf >= 0 || j.spec != p.jobs[j.dupOf].spec {
				t.Fatalf("job %d repeats %d, which is not an earlier fresh job", i, j.dupOf)
			}
		}
	}
	if want := len(p.jobs) / dupEvery; dups != want {
		t.Fatalf("%d repeats among %d jobs, want %d", dups, len(p.jobs), want)
	}

	s1, s2 := calibSuite(5), calibSuite(5)
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1.Sizes, calibSuite(6).Sizes) {
		t.Fatal("calibSuite is not a function of its seed")
	}
}

// The reference check must reject a run whose energies differ in the
// last bit of one step, and accept the unperturbed one.
func TestReferenceRejectsPerturbedEnergy(t *testing.T) {
	spec := simSpecs(1, md.LoDOff)[0]
	spec.Steps = 4
	out, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := reference([]harness.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	good := fingerprintOf(out.Result, out.Breakdown)
	perturbed := *out.Result
	perturbed.Steps = append([]md.StepInfo(nil), out.Result.Steps...)
	perturbed.Steps[2].ETotal = math.Nextafter(perturbed.Steps[2].ETotal, math.Inf(1))
	bad := fingerprintOf(&perturbed, out.Breakdown)

	r := newResult()
	checkSamples(r, []simSample{{spec: 0, fp: good}, {spec: 0, fp: bad}}, refs, map[int]int{}, false)
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", r.attempted, r.failed)
	}
	// A macro-phase count on a LoD-off run is a silent mode change.
	r = newResult()
	checkSamples(r, []simSample{{spec: 0, fp: good, macro: 3}}, refs, map[int]int{}, false)
	if r.failed != 1 {
		t.Fatal("a LoD-off sample with macro phases passed")
	}
}

// The counting wrapper must not change the run: same energies, makespan
// and breakdown as harness.Run.
func TestCountedRunTakesTheSamePath(t *testing.T) {
	spec := simSpecs(2, md.LoDOff)[0]
	spec.Steps = 6
	refs, err := reference([]harness.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	c := &pvmCounts{}
	fp, res, err := countedRun(spec, c)
	if err != nil {
		t.Fatal(err)
	}
	if fp != refs[0] || res.LoDMacroPhases != 0 {
		t.Fatalf("counted run differs: %+v vs %+v", fp, refs[0])
	}
	if c.steps != 6 || c.msgs == 0 || c.handoffs < c.msgs || len(c.stepNs) != 6 || len(c.initNs) != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestHistP50(t *testing.T) {
	text := `# TYPE opal_ctl_queue_wait_seconds histogram
opal_ctl_queue_wait_seconds_bucket{tenant="a",le="0.001"} 2
opal_ctl_queue_wait_seconds_bucket{tenant="a",le="0.01"} 6
opal_ctl_queue_wait_seconds_bucket{tenant="a",le="+Inf"} 8
opal_ctl_queue_wait_seconds_bucket{tenant="b",le="0.001"} 0
opal_ctl_queue_wait_seconds_bucket{tenant="b",le="0.01"} 2
opal_ctl_queue_wait_seconds_bucket{tenant="b",le="+Inf"} 2
`
	// 10 observations: 2 below 1 ms, 8 below 10 ms; the 5th lies 3/6 of
	// the way through the (1 ms, 10 ms] bucket.
	got, ok := histP50(text, "opal_ctl_queue_wait_seconds")
	if want := 0.001 + 0.009*3/6; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("p50 %g (%v), want %g", got, ok, want)
	}
	if _, ok := histP50("", "x"); ok {
		t.Fatal("p50 of an absent histogram")
	}
}

// A profile of the force-field kernel is charged to forcefield.
func TestCPUSharesAttributeModules(t *testing.T) {
	sys := molecule.Generate(molecule.Config{SoluteAtoms: 60, Waters: 200, Seed: 1, Interleave: true})
	rows := make([]int, sys.N)
	for i := range rows {
		rows[i] = i
	}
	l := pairlist.NewList(sys.N, rows)
	l.Update(sys.Pos, 0, forcefield.BuildExclusions(sys))
	lj := forcefield.BuildLJ(forcefield.DefaultLJ())
	grad := make([]float64, 3*sys.N)
	prof, err := profileCPU(func() {
		for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
			for ri, i := range l.Rows {
				c12, c6 := lj.Row(sys.Type[i])
				forcefield.PairEnergyRow(sys.Pos, i, l.Pairs[ri], sys.Type, c12, c6, sys.Charge[i], sys.Charge, grad, 0, 0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, n, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	// The kernel is most of the loop; under the race detector samples in
	// its runtime lose their Go callers and fall to "other".
	if n < 10 || shares["forcefield"] < 0.25 {
		t.Fatalf("%d samples, shares %v", n, shares)
	}
	for m, sh := range shares {
		if m != "forcefield" && m != "other" && sh >= shares["forcefield"] {
			t.Fatalf("%s outweighs forcefield: %v", m, shares)
		}
	}
	if got := moduleOf("md/opalrpc.(*Client).Call"); got != "md" {
		t.Fatalf("moduleOf: %q", got)
	}
}

// The metrics the code reports are exactly those BENCHMARK.json lists.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench/")
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %v", kind, i, want[i], got[i])
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
}
