// Command perfbench is the repository benchmark.  It drives the simulator
// and the opald service from outside, through their public entry points
// only, checks every output it times, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -workload fine -seed 1 -seconds 10 -trace 0 -opald ./opald -work ./tmp
//
// run.py builds both binaries and passes these flags; WORKLOADS.md says
// what each workload and metric is for.  With -trace 0 the result holds
// the end-to-end metrics (tracing off); with -trace 1 it holds the
// per-layer metrics of a separate traced run.  A detail line printed just
// before the result carries the host fingerprint, the seed and the sample
// count and percentile of every timing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sims_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
}

// cpuModules are the opalperf/internal packages the traced run's CPU
// profile is broken down by (cpu.<module>_pct), plus background GC and
// everything else.
var cpuModules = []string{"vm", "pvm", "sciddle", "md", "trace", "forcefield",
	"pairlist", "telemetry", "ctlplane", "archive", "harness", "gc", "other"}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = append([]metricDef{
	{"pvm.msgs_per_step", "count"},
	{"pvm.bytes_per_step", "B"},
	{"pvm.send_us", "us"},
	{"pvm.recv_wait_us", "us"},
	{"vm.handoffs_per_step", "count"},
	{"sciddle.phases_per_step", "count"},
	{"sciddle.macro_ratio", "ratio"},
	{"md.init_ms", "ms"},
	{"md.step_us_p50", "us"},
	{"trace.segments_per_step", "count"},
	{"trace.flows_per_step", "count"},
	{"trace.breakdown_us", "us"},
	{"trace.recorder_pct", "%"},
	{"telemetry.armed_pct", "%"},
	{"telemetry.scrape_ms", "ms"},
	{"pairlist.update_ms", "ms"},
	{"pairlist.checks_per_update", "count"},
	{"pairlist.active_pairs", "count"},
	{"forcefield.row_ns_per_pair", "ns"},
	{"harness.case_ms_p50", "ms"},
	{"parallel.efficiency", "ratio"},
	{"core.calibrate_ms", "ms"},
	{"core.fit_mape_pct", "%"},
	{"core.predict_us", "us"},
	{"ctlplane.predict_ms_p50", "ms"},
	{"ctlplane.predict_ms_tail", "ms"},
	{"ctlplane.submit_ms_p50", "ms"},
	{"ctlplane.queue_wait_ms_p50", "ms"},
	{"ctlplane.dedup_ratio", "ratio"},
	{"archive.bytes_per_job", "B"},
	{"load.late_ms_tail", "ms"},
	{"mem.peak_rss_mb", "MiB"},
	{"bench.trace_overhead_pct", "%"},
}, cpuMetrics()...)

func cpuMetrics() []metricDef {
	var ms []metricDef
	for _, m := range cpuModules {
		ms = append(ms, metricDef{"cpu." + m + "_pct", "%"})
	}
	return ms
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[m.Name] = m.Unit
	}
	return u
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	opald    string // opald binary (service workload and service probes)
	work     string // directory for temporary files
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's operations, metrics and sample details.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	details           map[string]any
	errors            []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// setDist reports a timing's median under name and keeps its sample
// count and tail in the details.
func (r *result) setDist(name string, d dist, scale float64) {
	r.set(name, d.P50*scale)
	r.details[name] = map[string]any{"n": d.N, "p50": d.P50 * scale,
		"tail": d.Tail * scale, "tail_pct": d.TailPct}
}

// op counts one checked operation.
func (r *result) op(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.errors) < 20 {
			r.errors = append(r.errors, what)
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "fine, lod, calibrate or service")
		seed     = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics of a traced run")
		opald    = flag.String("opald", "", "path of the built opald binary")
		work     = flag.String("work", os.TempDir(), "directory for temporary files")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, trace: *traced == 1,
		window: time.Duration(*seconds * float64(time.Second)), opald: *opald, work: *work}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.window <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	r := newResult()
	var err error
	switch cfg.workload {
	case "fine", "lod":
		err = runSim(cfg, cfg.workload == "lod", r)
	case "calibrate":
		err = runCalibrate(cfg, r)
	case "service":
		err = runService(cfg, r)
	default:
		return fmt.Errorf("unknown workload %q (want fine, lod, calibrate or service)", cfg.workload)
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, m.Name)
		}
		out[m.Name] = v
	}
	if r.attempted == 0 {
		return fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	detail := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"seconds": cfg.window.Seconds(), "host": fingerprintHost(),
		"samples": r.details, "errors": r.errors,
	}
	if err := printJSON(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return printJSON(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// fingerprintHost identifies the machine a result was measured on.
func fingerprintHost() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"cpu": model, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"os": runtime.GOOS + "/" + runtime.GOARCH}
}

// usage is a process's peak resident set size, CPU time and bytes
// allocated so far.
type usage struct {
	peakRSSMiB, cpuSeconds, allocBytes float64
}

func usageOf(ru *syscall.Rusage) usage {
	return usage{
		peakRSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		cpuSeconds: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
	}
}

// selfUsage is the benchmark process's usage.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	u := usageOf(&ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocBytes = float64(ms.TotalAlloc)
	return u
}

// setCost reports the CPU time and the heap bytes the process running
// the simulator spent per operation between two usages.
func (r *result) setCost(u0, u1 usage, ops int) {
	r.set("cpu_ms_per_op", (u1.cpuSeconds-u0.cpuSeconds)/float64(ops)*1e3)
	r.set("alloc_kb_per_op", (u1.allocBytes-u0.allocBytes)/float64(ops)/1024)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
