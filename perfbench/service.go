package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"opalperf/internal/core"
	"opalperf/internal/ctlplane"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// The service traffic: two open-loop streams at fixed rates.  Jobs stay
// below opald's default per-tenant admission rate (10/s), so no
// submission is shed by design.
const (
	predictRate  = 100.0 // /v1/predict queries per second
	jobRate      = 8.0   // /v1/runs submissions per second
	jobScale     = 0.02  // the small complex at corpus scale
	jobSteps     = 800
	jobCutoff    = 10.0
	dupEvery     = 4 // every 4th job repeats an earlier spec
	pollEvery    = 10 * time.Millisecond
	tenant       = "bench"
	probeSeconds = 3 * time.Second
)

var predictPlatforms = []string{"j90", "t3e", "slow", "smp", "fast"}
var predictSizes = []string{"small", "medium", "large"}

// query is one /v1/predict question.
type query struct {
	Platform, Size         string
	Servers, Steps, Update int
	Cutoff                 float64
}

func (q query) path() string {
	return fmt.Sprintf("/v1/predict?platform=%s&size=%s&scale=%g&servers=%d&steps=%d&cutoff=%g&update=%d",
		q.Platform, q.Size, jobScale, q.Servers, q.Steps, q.Cutoff, q.Update)
}

// jobPlan is one submission: a fresh spec, or a repeat of job dupOf.
type jobPlan struct {
	spec  ctlplane.JobSpec
	dupOf int // -1 for a fresh spec
}

// svcPlan is a seed's traffic, with the in-process answer to every
// query.
type svcPlan struct {
	queries []query
	answers []ctlplane.PredictResponse
	jobs    []jobPlan
}

// servicePlan generates enough traffic for d from seed.  Fresh job specs
// cycle through the (servers, update interval) strata, like fine's.
func servicePlan(seed int64, d time.Duration) svcPlan {
	rng := rand.New(rand.NewSource(seed))
	var p svcPlan
	for i := 0; i < 64; i++ {
		p.queries = append(p.queries, query{
			Platform: predictPlatforms[rng.Intn(len(predictPlatforms))],
			Size:     predictSizes[rng.Intn(len(predictSizes))],
			Servers:  1 + rng.Intn(64), Steps: 10 + rng.Intn(991),
			Update: []int{1, 10}[rng.Intn(2)], Cutoff: []float64{10, 60}[rng.Intn(2)],
		})
	}
	pred := newPredictor()
	for _, q := range p.queries {
		a, err := pred.answer(q)
		if err != nil {
			panic(err) // generated from valid platform keys and sizes
		}
		p.answers = append(p.answers, a)
	}
	n := int(d.Seconds()*jobRate) + 1
	var fresh []int
	for i := 0; i < n; i++ {
		if i%dupEvery == dupEvery-1 {
			p.jobs = append(p.jobs, jobPlan{dupOf: fresh[rng.Intn(len(fresh))]})
			continue
		}
		k := len(fresh)
		span := maxServers - minServers + 1
		p.jobs = append(p.jobs, jobPlan{dupOf: -1, spec: ctlplane.JobSpec{
			Size: "small", Scale: jobScale, Steps: jobSteps, Cutoff: jobCutoff,
			Servers: minServers + k%span, UpdateEvery: 1 + (k/span)%2, Seed: rng.Int63n(1 << 20),
		}})
		fresh = append(fresh, i)
	}
	for i := range p.jobs {
		if j := p.jobs[i].dupOf; j >= 0 {
			p.jobs[i].spec = p.jobs[j].spec
		}
	}
	return p
}

// jobSystems are the systems opald generates for the job and query
// scale, generated once.
var jobSystems = sync.OnceValue(func() map[string]*molecule.System { return harness.Sizes(jobScale) })

// jobRunSpec compiles a job spec the way opald does, for the local
// reference run.
func jobRunSpec(s ctlplane.JobSpec) harness.RunSpec {
	return harness.RunSpec{
		Platform: platform.J90(),
		Sys:      jobSystems()[s.Size],
		Opts: md.Options{Cutoff: s.Cutoff, UpdateEvery: s.UpdateEvery, Seed: s.Seed,
			Accounting: true, Minimize: true},
		Servers: s.Servers,
		Steps:   s.Steps,
	}
}

// expectedResult is the job result opald must return for spec.
func expectedResult(spec harness.RunSpec) (*ctlplane.JobResult, error) {
	out, err := harness.Run(spec)
	if err != nil {
		return nil, err
	}
	res := &ctlplane.JobResult{
		Wall: out.Wall, Steps: len(out.Result.Steps),
		Par: out.Breakdown.ParComp, Seq: out.Breakdown.SeqComp, Comm: out.Breakdown.Comm,
		Sync: out.Breakdown.Sync, Idle: out.Breakdown.Idle,
		Respawns: out.Result.Respawns, Recoveries: out.Result.Recoveries,
	}
	for _, st := range out.Result.Steps {
		res.Energies = append(res.Energies, st.ETotal)
	}
	if n := len(out.Result.Steps); n > 0 {
		res.FinalEvdw, res.FinalEcoul = out.Result.Steps[n-1].EVdw, out.Result.Steps[n-1].ECoul
	}
	return res, nil
}

// predictor is the in-process core answer to a query, composed from the
// model API the way opald's read path composes it, with the machine
// parameters memoized per (platform, size) as opald memoizes them.
type predictor struct {
	machines map[string]core.Machine
}

func newPredictor() *predictor { return &predictor{machines: map[string]core.Machine{}} }

func (p *predictor) answer(q query) (ctlplane.PredictResponse, error) {
	pl, err := platform.ByName(q.Platform)
	if err != nil {
		return ctlplane.PredictResponse{}, err
	}
	sys := jobSystems()[q.Size]
	key := q.Platform + "|" + q.Size
	m, ok := p.machines[key]
	if !ok {
		m = core.MachineFor(pl, sys.Gamma())
		p.machines[key] = m
	}
	app := core.AppFor(sys, q.Cutoff, q.Update, q.Servers, q.Steps)
	b := m.Predict(app)
	app1 := app
	app1.P = 1
	resp := ctlplane.PredictResponse{
		Platform: q.Platform, Machine: m.Name, Size: q.Size, Servers: q.Servers, Steps: q.Steps,
		N: sys.N, Par: b.Par, Seq: b.Seq, Comm: b.Comm, Sync: b.Sync, Total: b.Total(),
	}
	if resp.Total > 0 {
		resp.SpeedupVsP1 = m.Total(app1) / resp.Total
	}
	return resp, nil
}

// probePredict times the in-process model answer of the seed's queries
// (core.predict_us): what /v1/predict costs without HTTP, JSON and the
// limiter.
func probePredict(seed int64, r *result) {
	qs := servicePlan(seed, 0).queries
	p := newPredictor()
	for _, q := range qs { // build the memoized machines first, as opald's warm-up does
		_, _ = p.answer(q)
	}
	var err error
	per := timeLoop(func() {
		for _, q := range qs {
			if _, e := p.answer(q); e != nil {
				err = e
			}
		}
	})
	r.op(err == nil, fmt.Sprintf("in-process prediction: %v", err))
	r.set("core.predict_us", per/float64(len(qs))*1e6)
}

// daemon is a running opald child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	archive string
	done    chan struct{} // closed once stdout is drained
}

// startOpald starts opald with its defaults plus a listen address and an
// archive directory under dir, and waits for its ready line.
func startOpald(bin, dir string) (*daemon, error) {
	arch := filepath.Join(dir, "archive")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-archive", arch)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start opald: %w", err)
	}
	d := &daemon{cmd: cmd, archive: arch, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, " on http://"); ok && strings.HasPrefix(line, "opald: serving") {
				select {
				case ready <- addr:
				default: // only the first ready line counts
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("opald exited before it was ready")
	case <-time.After(30 * time.Second):
		_, _ = d.stop()
		return nil, fmt.Errorf("opald not ready after 30s")
	}
}

// stop drains opald with SIGTERM (killing it after 30 s), waits for it
// and returns its usage.
func (d *daemon) stop() (usage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-exited
		if err == nil {
			err = fmt.Errorf("opald did not drain within 30s")
		}
	}
	var u usage
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u = usageOf(ru)
	}
	return u, err
}

// client is one stream's HTTP client: a single keep-alive connection.
func client() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// warm answers one query per (platform, size) so the daemon's model
// tables are built before timing; it is part of set-up.
func warm(base string, c *http.Client) error {
	for _, pl := range predictPlatforms {
		for _, size := range predictSizes {
			q := query{Platform: pl, Size: size, Servers: 4, Steps: 10, Update: 1, Cutoff: 10}
			code, err := getJSON(c, base+q.path(), nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("warm-up prediction: status %d: %v", code, err)
			}
		}
	}
	return nil
}

// jobOutcome is what the generator saw of one job.
type jobOutcome struct {
	id        string
	coalesced bool
	view      runView
	err       error
	latency   float64 // due time to terminal state, seconds
}

// runView is the part of GET /v1/runs/{id} the benchmark checks.
type runView struct {
	State       string              `json:"state"`
	Completions int                 `json:"completions"`
	Result      *ctlplane.JobResult `json:"result"`
	Error       string              `json:"error"`
}

// svcRun is one traffic session's observations.
type svcRun struct {
	predLat, late, submitLat, scrapes []float64
	predErr                           []string // per query, "" when the answer was right
	jobs                              []jobOutcome
	first, last                       time.Time
	prof                              []byte
	profErr                           error
}

// openLoop calls send for every i whose due time start+i/rate falls in
// [start, end), sleeping until each is due.  A slow send delays the
// ones after it; they are still timed from their due times, and how late
// each was sent is recorded.
func openLoop(start, end time.Time, rate float64, n int, late *[]float64, send func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		*late = append(*late, time.Since(due).Seconds())
		send(i, due)
	}
}

// drive runs the plan's two streams against d for dur.  With traced
// set it also takes opald's CPU profile over the session and scrapes
// /metrics once a second.
func drive(d *daemon, plan svcPlan, dur time.Duration, traced bool) *svcRun {
	run := &svcRun{jobs: make([]jobOutcome, 0, len(plan.jobs))}
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(dur)
	run.first = start
	var wg sync.WaitGroup
	var mu sync.Mutex // guards run.jobs and pending
	pending := map[int]time.Time{}
	submitted := make(chan struct{})

	var predLate, jobLate []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := client()
		openLoop(start, end, predictRate, 1<<30, &predLate, func(i int, due time.Time) {
			k := i % len(plan.queries)
			q, want := plan.queries[k], plan.answers[k]
			var got ctlplane.PredictResponse
			code, err := getJSON(c, d.base+q.path(), &got)
			run.predLat = append(run.predLat, time.Since(due).Seconds())
			msg := ""
			if err != nil || code != http.StatusOK || got != want {
				msg = fmt.Sprintf("%s: status %d err=%v got %+v want %+v", q.path(), code, err, got, want)
			}
			run.predErr = append(run.predErr, msg)
		})
	}()
	go func() {
		defer wg.Done()
		defer close(submitted)
		c := client()
		openLoop(start, end, jobRate, len(plan.jobs), &jobLate, func(i int, due time.Time) {
			body, _ := json.Marshal(plan.jobs[i].spec)
			req, err := http.NewRequest(http.MethodPost, d.base+"/v1/runs", bytes.NewReader(body))
			if err != nil {
				panic(err) // a constant URL and body cannot fail to form a request
			}
			req.Header.Set("X-Tenant", tenant)
			t0 := time.Now()
			o := jobOutcome{}
			resp, err := c.Do(req)
			if err == nil {
				var ack struct {
					JobID     string `json:"job_id"`
					Coalesced bool   `json:"coalesced"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusAccepted {
					err = fmt.Errorf("submit status %d", resp.StatusCode)
				}
				o.id, o.coalesced = ack.JobID, ack.Coalesced
			}
			o.err = err
			run.submitLat = append(run.submitLat, since(t0))
			mu.Lock()
			run.jobs = append(run.jobs, o)
			if err == nil {
				pending[len(run.jobs)-1] = due
			}
			mu.Unlock()
		})
	}()
	// The poller shares one connection of its own and follows every
	// submitted job to a terminal state.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		c := client()
		deadline := end.Add(60 * time.Second)
		closed := false
		for time.Now().Before(deadline) {
			select {
			case <-submitted:
				closed = true
			default:
			}
			mu.Lock()
			ids := make(map[int]string, len(pending))
			for i := range pending {
				ids[i] = run.jobs[i].id
			}
			mu.Unlock()
			if closed && len(ids) == 0 {
				return
			}
			for i, id := range ids {
				var v runView
				code, err := getJSON(c, d.base+"/v1/runs/"+id, &v)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("poll status %d", code)
				}
				terminal := err != nil || (v.State != ctlplane.StateQueued && v.State != ctlplane.StateRunning)
				if !terminal {
					continue
				}
				mu.Lock()
				run.jobs[i].view, run.jobs[i].err = v, err
				run.jobs[i].latency = time.Since(pending[i]).Seconds()
				delete(pending, i)
				run.last = time.Now()
				mu.Unlock()
			}
			time.Sleep(pollEvery)
		}
		mu.Lock()
		for i := range pending {
			run.jobs[i].err = fmt.Errorf("job %s not terminal 60s after the window", run.jobs[i].id)
		}
		mu.Unlock()
	}()
	if traced {
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: dur + 30*time.Second}
			secs := int(dur.Seconds())
			if secs < 1 {
				secs = 1
			}
			resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, secs))
			if err != nil {
				run.profErr = err
				return
			}
			defer resp.Body.Close()
			run.prof, run.profErr = io.ReadAll(resp.Body)
		}()
		go func() {
			defer wg.Done()
			c := client()
			for t := start; t.Before(end); t = t.Add(time.Second) {
				time.Sleep(time.Until(t))
				t0 := time.Now()
				if _, err := scrape(c, d.base); err == nil {
					run.scrapes = append(run.scrapes, since(t0))
				}
			}
		}()
	}
	wg.Wait()
	<-pollDone
	run.late = append(predLate, jobLate...)
	return run
}

// totalAlloc reads opald's cumulative heap allocation (runtime.MemStats
// TotalAlloc) from the memory statistics its allocs profile prints.
func totalAlloc(base string) (float64, error) {
	resp, err := http.Get(base + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no TotalAlloc in opald's allocs profile")
}

// scrape fetches /metrics.
func scrape(c *http.Client, base string) (string, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// histP50 estimates the median of a Prometheus histogram family, summed
// over its label sets, by linear interpolation inside the bucket.
func histP50(text, name string) (float64, bool) {
	cum := map[float64]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		_, rest, _ := strings.Cut(line, `le="`)
		le, rest, _ := strings.Cut(rest, `"`)
		fs := strings.Fields(rest)
		if len(fs) == 0 {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64)
		n, err2 := strconv.ParseFloat(fs[len(fs)-1], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		cum[bound] += n
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	if len(bounds) == 0 {
		return 0, false
	}
	sort.Float64s(bounds)
	total := cum[bounds[len(bounds)-1]]
	if total == 0 {
		return 0, false
	}
	lo, prev := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= total/2 {
			if cum[b] == prev {
				return b, true
			}
			return lo + (b-lo)*(total/2-prev)/(cum[b]-prev), true
		}
		lo, prev = b, cum[b]
	}
	return bounds[len(bounds)-1], true
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// checkRun counts every query and job of a session as an operation:
// predictions must equal the in-process answer, fresh jobs the local
// harness.Run of their spec, and repeats the original's result without
// a second execution.  It returns how many fresh jobs executed and how
// many repeats were served without one.
func checkRun(r *result, plan svcPlan, run *svcRun) (executed, dups, deduped int, err error) {
	for _, msg := range run.predErr {
		r.op(msg == "", msg)
	}
	want := map[int]*ctlplane.JobResult{}
	for i, o := range run.jobs {
		p := plan.jobs[i]
		ok := o.err == nil && o.view.State == ctlplane.StateDone && o.view.Result != nil
		if ok && p.dupOf < 0 {
			exp, err := expectedResult(jobRunSpec(p.spec))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("job reference: %w", err)
			}
			want[i] = exp
			ok = reflect.DeepEqual(o.view.Result, exp)
			executed++
		}
		if ok && p.dupOf >= 0 {
			dups++
			if p.dupOf < len(run.jobs) && run.jobs[p.dupOf].view.Result != nil {
				ok = reflect.DeepEqual(o.view.Result, run.jobs[p.dupOf].view.Result)
			}
			if o.coalesced && o.view.Completions == 1 {
				deduped++
			}
			ok = ok && o.view.Completions == 1
		}
		r.op(ok, fmt.Sprintf("job %d (%s): err=%v state=%s completions=%d error=%q",
			i, o.id, o.err, o.view.State, o.view.Completions, o.view.Error))
	}
	return executed, dups, deduped, nil
}

// serviceLayers sets the ctlplane, archive, load and telemetry scrape
// metrics from a session.
func serviceLayers(r *result, run *svcRun, metricsText string, archiveGrowth int64, executed, dups, deduped int) {
	pred := summarize(run.predLat)
	r.setDist("ctlplane.predict_ms_p50", pred, 1e3)
	r.set("ctlplane.predict_ms_tail", pred.Tail*1e3)
	r.setDist("ctlplane.submit_ms_p50", summarize(run.submitLat), 1e3)
	qw, _ := histP50(metricsText, "opal_ctl_queue_wait_seconds")
	r.set("ctlplane.queue_wait_ms_p50", qw*1e3)
	ratio := 0.0
	if dups > 0 {
		ratio = float64(deduped) / float64(dups)
	}
	r.set("ctlplane.dedup_ratio", ratio)
	perJob := 0.0
	if executed > 0 {
		perJob = float64(archiveGrowth) / float64(executed)
	}
	r.set("archive.bytes_per_job", perJob)
	late := summarize(run.late)
	r.set("load.late_ms_tail", late.Tail*1e3)
	r.details["load.late_ms_tail"] = scaled(late, 1e3)
	r.setDist("telemetry.scrape_ms", summarize(run.scrapes), 1e3)
}

// session starts opald setupReps times (each start to its first answered
// predictions is one set-up sample), keeps the last one running and
// returns it with the median set-up time.
func session(bin, parent string) (*daemon, float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		dir, err := os.MkdirTemp(parent, "opald-")
		if err != nil {
			return nil, 0, err
		}
		if d, err = startOpald(bin, dir); err != nil {
			return nil, 0, err
		}
		if err := warm(d.base, client()); err != nil {
			_, _ = d.stop()
			return nil, 0, err
		}
		setups = append(setups, since(t0))
		if i < setupReps-1 {
			if _, err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
	}
	return d, medianOf(setups), nil
}

// runService is the service workload: opald as a child process under
// the two open-loop streams.
func runService(cfg config, r *result) error {
	if cfg.opald == "" {
		return fmt.Errorf("service workload needs -opald")
	}
	dir, err := os.MkdirTemp(cfg.work, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, setup, err := session(cfg.opald, dir)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	r.details["setup_s"] = map[string]any{"n": setupReps}
	archive0 := dirSize(d.archive)

	if !cfg.trace {
		plan := servicePlan(cfg.seed, cfg.window)
		alloc0, err := totalAlloc(d.base)
		if err != nil {
			_, _ = d.stop()
			return err
		}
		run := drive(d, plan, cfg.window, false)
		alloc1, err := totalAlloc(d.base)
		u, serr := d.stop()
		if err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		// opald's CPU time covers its whole life; start-up and drain
		// are a few milliseconds of it.
		r.setCost(usage{}, usage{cpuSeconds: u.cpuSeconds, allocBytes: alloc1 - alloc0}, len(run.jobs))
		r.details["opald_peak_rss_mb"] = u.peakRSSMiB
		if _, _, _, err := checkRun(r, plan, run); err != nil {
			return err
		}
		var lat []float64
		for _, o := range run.jobs {
			lat = append(lat, o.latency)
		}
		span := run.last.Sub(run.first).Seconds()
		r.set("sims_per_s", float64(len(run.jobs))/span)
		r.details["sims_per_s"] = map[string]any{"jobs": len(run.jobs), "span_s": span}
		dl := summarize(lat)
		r.setDist("op_ms_p50", dl, 1e3)
		r.set("op_ms_tail", dl.Tail*1e3)
		r.details["predict_ms"] = scaled(summarize(run.predLat), 1e3)
		r.details["load.late_ms"] = scaled(summarize(run.late), 1e3)
		return nil
	}

	half := cfg.window / 2
	plainPlan := servicePlan(cfg.seed, half)
	plain := drive(d, plainPlan, half, false)
	tracedPlan := servicePlan(cfg.seed^0x5eed, half)
	traced := drive(d, tracedPlan, half, true)
	metricsText, err := scrape(client(), d.base)
	if err != nil {
		_, _ = d.stop()
		return err
	}
	u, err := d.stop()
	if err != nil {
		return err
	}
	r.set("mem.peak_rss_mb", u.peakRSSMiB)
	growth := dirSize(d.archive) - archive0
	e1, n1, k1, err := checkRun(r, plainPlan, plain)
	if err != nil {
		return err
	}
	e2, n2, k2, err := checkRun(r, tracedPlan, traced)
	if err != nil {
		return err
	}
	if traced.profErr != nil {
		return fmt.Errorf("opald profile: %w", traced.profErr)
	}
	if err := setCPU(r, traced.prof); err != nil {
		return err
	}
	jobP50 := func(run *svcRun) float64 {
		var lat []float64
		for _, o := range run.jobs {
			lat = append(lat, o.latency)
		}
		return medianOf(lat)
	}
	r.set("bench.trace_overhead_pct", (jobP50(traced)/jobP50(plain)-1)*100)
	merged := &svcRun{
		predLat:   append(plain.predLat, traced.predLat...),
		submitLat: append(plain.submitLat, traced.submitLat...),
		late:      append(plain.late, traced.late...),
		scrapes:   traced.scrapes,
	}
	serviceLayers(r, merged, metricsText, growth, e1+e2, n1+n2, k1+k2)

	var specs []harness.RunSpec
	for _, p := range plainPlan.jobs {
		if p.dupOf < 0 && len(specs) < 2*(maxServers-minServers+1) {
			specs = append(specs, jobRunSpec(p.spec))
		}
	}
	return layerProbes(cfg, specs, r)
}

// serviceProbe measures the service layers for a workload that does not
// run opald itself: a short traced session of the seed's traffic.
func serviceProbe(cfg config, r *result) error {
	dir, err := os.MkdirTemp(cfg.work, "opald-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startOpald(cfg.opald, dir)
	if err != nil {
		return err
	}
	if err := warm(d.base, client()); err != nil {
		_, _ = d.stop()
		return err
	}
	archive0 := dirSize(d.archive)
	plan := servicePlan(cfg.seed, probeSeconds)
	run := drive(d, plan, probeSeconds, true)
	metricsText, err := scrape(client(), d.base)
	if _, serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	executed, dups, deduped, err := checkRun(r, plan, run)
	if err != nil {
		return err
	}
	serviceLayers(r, run, metricsText, dirSize(d.archive)-archive0, executed, dups, deduped)
	return nil
}

func scaled(d dist, k float64) dist {
	d.P50 *= k
	d.Tail *= k
	return d
}
