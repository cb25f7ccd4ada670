package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

const (
	// liveChunk is how many records each client iteration appends to its
	// tenant's "live" trace before submitting a job: the store's write
	// path running beside the reads the jobs do.
	liveChunk = 2000
	// submitRetries is how often a refused (429) submission is retried
	// before the op counts as failed.
	submitRetries = 3
	bootTimeout   = 15 * time.Second
	stopTimeout   = 10 * time.Second
)

// daemon is one metarepaird child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	bootMS float64
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon boots metarepaird on a free loopback port with dataDir as
// its store root and returns once /healthz answers. On any failure the
// child is gone and the error carries what it wrote to stderr.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-data", dataDir, "-pprof")
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.cmd.Wait() // the exit status of a daemon we signal ourselves carries no news
		close(d.exited)
	}()
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootMS = ms(time.Since(start))
				return d, nil
			}
			err = fmt.Errorf("/healthz returned status %d", resp.StatusCode)
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("metarepaird exited during boot; stderr:\n%s", d.stderr.String())
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("metarepaird not healthy at %s after %v (last error: %v); stderr:\n%s",
				d.base, bootTimeout, err, d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// abort stops the child and attaches what it wrote to stderr to err.
func (d *daemon) abort(err error) error {
	d.stop()
	return fmt.Errorf("%w; metarepaird stderr:\n%s", err, d.stderr.String())
}

// stop ends the child: SIGTERM for a clean drain, SIGKILL if that takes
// longer than stopTimeout. It returns once the process has been waited for.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// tenant names the store tree of client i.
func tenant(i int) string { return fmt.Sprintf("t%d", i) }

// post sends a body and returns status and response body.
func post(client *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data, nil
}

// ingest appends records to a tenant's named trace.
func (d *daemon) ingest(client *http.Client, tenant, name string, records []byte) error {
	code, body, err := post(client, d.base+"/v1/tenants/"+tenant+"/traces/"+name, "application/octet-stream", records)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("ingest %s/%s: status %d: %s", tenant, name, code, body)
	}
	return nil
}

// serviceSetUp is one full set-up of the service workload: resolve the
// scenario, encode its workload as §5.4 records, boot the daemon, and
// ingest the records as trace "q1" for every tenant.
func serviceSetUp(ctx context.Context, c cell, cfg runConfig, dataDir string, clients int, tr *tracer) (*daemon, *instance, []byte, error) {
	in, err := instantiate(c, "", tr)
	if err != nil {
		return nil, nil, nil, err
	}
	records := make([]byte, 0, in.entries()*trace.RecordSize)
	for _, e := range in.sc.Workload {
		if records, err = tracestore.Binary.AppendRecord(records, e); err != nil {
			return nil, nil, nil, fmt.Errorf("encoding workload: %w", err)
		}
	}
	end := tr.span(0, "metarepaird.boot", "setup")
	d, err := startDaemon(ctx, cfg.Daemon, dataDir)
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	end = tr.span(0, "metarepaird.ingest", "setup")
	defer end()
	for i := 0; i < clients; i++ {
		if err := d.ingest(http.DefaultClient, tenant(i), "q1", records); err != nil {
			return nil, nil, nil, d.abort(err)
		}
	}
	return d, in, records, nil
}

// jobStatus is the part of the daemon's job record the benchmark reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Report   *struct {
		Generated    int  `json:"generated"`
		Accepted     int  `json:"accepted"`
		Batches      int  `json:"batches"`
		Steps        int  `json:"steps"`
		EarlyStopped bool `json:"early_stopped"`
		Evaluated    int  `json:"evaluated"`
		Results      []struct {
			Desc      string  `json:"desc"`
			Accepted  bool    `json:"accepted"`
			KS        float64 `json:"ks"`
			Evaluated bool    `json:"evaluated"`
		} `json:"results"`
		Timing struct {
			HistoryMS float64 `json:"history_ms"`
			SolvingMS float64 `json:"solving_ms"`
		} `json:"timing"`
	} `json:"report"`
}

// jobSample is one client iteration as the client saw it: named columns,
// times in ms. "cpu" is the daemon's CPU seconds over the iteration
// divided by the client count — with every client always in flight, an
// interval as long as one job holds that many jobs' worth of daemon work.
type jobSample map[string]float64

// serviceClient is one closed-loop connection: ingest a live chunk,
// submit a first-accepted job, follow its SSE stream to the end, fetch
// the report, check it.
type serviceClient struct {
	d        *daemon
	http     *http.Client
	tenant   string
	in       *instance
	chunk    []byte
	job      []byte
	ck       *checker
	tr       *tracer
	clients  int
	rejected *atomic.Int64 // 429 responses seen, over all clients
}

func (c *serviceClient) iterate(op int) (jobSample, error) {
	s := jobSample{}
	endOp := c.tr.span(op, "op", "")
	defer endOp()
	pid := c.d.cmd.Process.Pid
	cpuStart, err := cpuSeconds(pid)
	if err != nil {
		return s, err
	}

	end := c.tr.span(op, "metarepaird.ingest", "op")
	t := time.Now()
	err = c.d.ingest(c.http, c.tenant, "live", c.chunk)
	end()
	if err != nil {
		return s, err
	}
	s["ingest"] = ms(time.Since(t))

	end = c.tr.span(op, "metarepaird.submit", "op")
	sent := time.Now()
	var st jobStatus
	backoff := 20 * time.Millisecond
	for attempt := 0; ; attempt++ {
		code, body, err := post(c.http, c.d.base+"/v1/tenants/"+c.tenant+"/jobs", "application/json", c.job)
		if err != nil {
			end()
			return s, err
		}
		if code == http.StatusTooManyRequests {
			c.rejected.Add(1)
			if attempt == submitRetries {
				end()
				return s, fmt.Errorf("submission still refused (429) after %d retries", submitRetries)
			}
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		if code != http.StatusCreated {
			end()
			return s, fmt.Errorf("submit: status %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			end()
			return s, fmt.Errorf("submit: decoding: %w", err)
		}
		break
	}
	end()
	s["submit"] = ms(time.Since(sent))

	// The stream ends when the job reaches a terminal state.
	end = c.tr.span(op, "metarepaird.sse", "op")
	resp, err := c.http.Get(c.d.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		end()
		return s, err
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for lines.Scan() {
		if bytes.HasPrefix(lines.Bytes(), []byte("data: ")) {
			s["sse_events"]++
		}
	}
	resp.Body.Close()
	end()
	if err := lines.Err(); err != nil {
		return s, fmt.Errorf("event stream: %w", err)
	}

	end = c.tr.span(op, "metarepaird.report", "op")
	body, err := get(c.http, c.d.base+"/v1/jobs/"+st.ID)
	end()
	received := time.Now()
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return s, fmt.Errorf("report: decoding: %w", err)
	}
	if st.State != "succeeded" || st.Report == nil || st.Started == nil || st.Finished == nil {
		return s, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	cpuEnd, err := cpuSeconds(pid)
	if err != nil {
		return s, err
	}
	rep := st.Report
	s["cpu"] = (cpuEnd - cpuStart) / float64(c.clients)
	s["turnaround"] = ms(received.Sub(sent))
	s["iteration"] = s["ingest"] + s["turnaround"]
	s["queue_wait"] = ms(st.Started.Sub(st.Created))
	s["run"] = ms(st.Finished.Sub(*st.Started))
	s["report_lag"] = ms(received.Sub(*st.Finished))
	s["solve"], s["history"] = rep.Timing.SolvingMS, rep.Timing.HistoryMS
	s["steps"], s["generated"], s["batches"] = float64(rep.Steps), float64(rep.Generated), float64(rep.Batches)
	s["evaluated"], s["accepted"] = float64(rep.Evaluated), float64(rep.Accepted)
	if rep.EarlyStopped {
		s["early_stopped"] = 1
	}

	var got []verdict
	for _, r := range rep.Results {
		if r.Evaluated {
			got = append(got, verdict{r.Desc, r.Accepted, fmt.Sprintf("%.5f", r.KS)})
		}
	}
	return s, c.ck.checkSubset(c.in.Name, got)
}

// memStatLine matches the runtime.MemStats footer of /debug/pprof/heap?debug=1.
var memStatLine = regexp.MustCompile(`(?m)^# (TotalAlloc|Mallocs|NumGC) = (\d+)$`)

// daemonMemStats reads the daemon's cumulative allocation counters from
// its heap profile endpoint (no forced GC: gc=1 is not set).
func (d *daemon) memStats() (map[string]float64, error) {
	body, err := get(http.DefaultClient, d.base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range memStatLine.FindAllSubmatch(body, -1) {
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			return nil, err
		}
		out[string(m[1])] = v
	}
	if len(out) != 3 {
		return nil, errors.New("heap profile carries no MemStats footer")
	}
	return out, nil
}

func (d *daemon) scrape() (*obsv.Scrape, error) {
	body, err := get(http.DefaultClient, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return obsv.ParseText(bytes.NewReader(body))
}

// snapshot is the daemon's state of account around the measured loop.
type snapshot struct {
	mem     map[string]float64
	metrics *obsv.Scrape
	cpu     float64 // daemon
	selfCPU float64 // this process, the load generator
}

func (d *daemon) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.mem, err = d.memStats(); err != nil {
		return s, err
	}
	if s.metrics, err = d.scrape(); err != nil {
		return s, err
	}
	if s.cpu, err = cpuSeconds(d.cmd.Process.Pid); err != nil {
		return s, err
	}
	s.selfCPU, err = cpuSeconds(os.Getpid())
	return s, err
}

// runService measures the service workload: metarepaird as a child
// process, one closed-loop client per core, each on its own tenant.
func runService(ctx context.Context, w workload, cfg runConfig) (res *result, err error) {
	if cfg.Daemon == "" {
		return nil, errors.New("the service workload needs -daemon <metarepaird binary>")
	}
	res = &result{Workload: w.Name, Trace: cfg.Trace, Seed: cfg.Seed}
	tr := cfg.tracer()
	g, err := loadGolden(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker(g)
	clients := runtime.NumCPU()
	c := w.seeded(cfg.Seed)[0]

	// Set-up, setupReps times over; the last daemon serves the run.
	var d *daemon
	var in *instance
	var records []byte
	var setups, boots, instantiates []float64
	stopDaemon := func() {
		if d != nil {
			d.stop()
			d = nil
		}
	}
	defer func() {
		if d != nil {
			err = d.abort(err) // every early return below is a failure
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		stopDaemon()
		dataDir := filepath.Join(cfg.Scratch, fmt.Sprintf("data%d", rep))
		if rep > 0 {
			if err := os.RemoveAll(filepath.Join(cfg.Scratch, fmt.Sprintf("data%d", rep-1))); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, in, records, err = serviceSetUp(ctx, c, cfg, dataDir, clients, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		boots = append(boots, d.bootMS)
		instantiates = append(instantiates, ms(in.instantiateDur))
	}

	job, err := json.Marshal(map[string]any{
		"scenario": c.Name, "switches": c.Scale.Switches, "flows": c.Scale.Flows,
		"trace": "q1", "pipeline": "first-accepted", "batch": 8,
	})
	if err != nil {
		return nil, err
	}
	var rejected atomic.Int64
	workers := make([]*serviceClient, clients)
	for i := range workers {
		workers[i] = &serviceClient{
			d: d, http: &http.Client{Timeout: opTimeout}, tenant: tenant(i), in: in,
			chunk: records[:liveChunk*trace.RecordSize], job: job, ck: ck, tr: tr,
			clients: clients, rejected: &rejected,
		}
	}
	// One untimed job per client: first-use costs of the tenant's stores.
	for _, cl := range workers {
		if _, err := cl.iterate(0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rejected.Store(0)

	before, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	cols := map[string][]float64{} // the samples of the ops that passed, column-wise
	var mu sync.Mutex              // guards res and cols
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if cfg.done(start, res.Attempted, clients) {
					mu.Unlock()
					return
				}
				res.Attempted++
				op := res.Attempted
				mu.Unlock()
				s, err := cl.iterate(op)
				mu.Lock()
				if err != nil {
					res.opFailed(fmt.Sprintf("op %d", op), err)
				} else {
					for k, v := range s {
						cols[k] = append(cols[k], v)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	stopDaemon()
	res.Seconds = wall.Seconds()
	ok := float64(len(cols["turnaround"]))
	if ok == 0 {
		return nil, errors.New("no job succeeded")
	}
	turnaround := median(cols["turnaround"])
	daemonCPU, selfCPU := after.cpu-before.cpu, after.selfCPU-before.selfCPU

	res.set("setup_s", "s", median(setups))
	res.set("turnaround_ms_p10", "ms", quiet(cols["turnaround"]))
	res.set("turnaround_ms_p50", "ms", turnaround)
	// One client iteration is the live ingest, then the job.
	res.set("repairs_per_s", "1/s", float64(clients)/(quiet(cols["iteration"])/1000))
	res.set("repairs_per_s.mean", "1/s", ok/wall.Seconds())
	res.set("alloc_mb_per_repair", "MB", (after.mem["TotalAlloc"]-before.mem["TotalAlloc"])/1e6/ok)
	res.set("cpu_s_per_repair", "s", quiet(cols["cpu"]))
	res.set("cpu_s_per_repair.mean", "s", daemonCPU/ok)
	res.set("turnaround_ms_p50."+c.Name, "ms", turnaround)
	if p, v := tailPercentile(cols["turnaround"]); p > 0 {
		res.set("turnaround_ms_tail", "ms", v)
		res.set("turnaround_ms_tail.percentile", "count", p)
	}
	res.set("turnaround_ms_tail.samples", "count", ok)
	if !cfg.traced() {
		return res, nil
	}

	submit, queueWait := median(cols["submit"]), median(cols["queue_wait"])
	run, reportLag := median(cols["run"]), median(cols["report_lag"])
	res.set("round_ms_p50", "ms", median(cols["iteration"]))
	res.set("round_ms_p50.samples", "count", ok)
	res.set("peak_rss_mb", "MB", rss)
	res.set("allocs_per_repair", "count", (after.mem["Mallocs"]-before.mem["Mallocs"])/ok)
	res.set("gc_cycles_per_repair", "count", (after.mem["NumGC"]-before.mem["NumGC"])/ok)
	res.set("scenario.instantiate_ms", "ms", median(instantiates))
	res.set("metarepaird.boot_ms", "ms", median(boots))
	res.set("metarepaird.submit_ms_p50", "ms", submit)
	res.set("metarepaird.ingest_ms_p50", "ms", median(cols["ingest"]))
	res.set("metarepaird.report_lag_ms_p50", "ms", reportLag)
	res.set("metarepaird.sse_events_per_job", "count", mean(cols["sse_events"]))
	res.set("metarepaird.early_stop_share", "%", 100*float64(len(cols["early_stopped"]))/ok)
	res.set("jobs.queue_wait_ms_p50", "ms", queueWait)
	res.set("jobs.run_ms_p50", "ms", run)
	res.set("jobs.rejected_429", "count", float64(rejected.Load()))
	res.set("tracestore.ingest_mb_per_s", "MB/s", float64(liveChunk*trace.RecordSize)/1e6/(mean(cols["ingest"])/1000))
	res.set("solver.solve_ms", "ms", median(cols["solve"]))
	res.set("provenance.history_ms", "ms", median(cols["history"]))

	// The four client-visible parts of a job must add up to its turnaround.
	parts := submit + queueWait + run + reportLag
	res.set("stage_coverage", "%", 100*parts/turnaround)
	if parts < 0.95*turnaround || parts > 1.05*turnaround {
		res.note("submit+queue_wait+run+report_lag = %.1f ms, turnaround_ms_p50 = %.1f ms: not within 5%%", parts, turnaround)
	}
	share := 100 * selfCPU / (selfCPU + daemonCPU)
	res.set("loadgen.cpu_share", "%", share)
	if share >= 15 {
		res.note("the load generator used %.1f%% of the CPU: the numbers partly measure the generator", share)
	}

	// Daemon-side attribution: /metrics deltas over the loop, per job. The
	// warm-up jobs ended before the first scrape, so the job counter must
	// have moved by exactly the jobs the loop ran.
	delta := func(name string, labels map[string]string) float64 {
		return after.metrics.Sum(name, labels) - before.metrics.Sum(name, labels)
	}
	jobs := delta("jobs_total", nil)
	if int(jobs) != res.Attempted {
		res.note("daemon counted %d finished jobs, the clients ran %d", int(jobs), res.Attempted)
	}
	spanMS := func(name string) float64 {
		return 1000 * delta("session_span_duration_seconds_sum", map[string]string{"span": name}) / jobs
	}
	res.set("metaprov.explore_ms", "ms", spanMS("explore"))
	res.set("backtest.evaluate_ms", "ms", spanMS("backtest"))
	// What a job's run time spends outside the session's run span:
	// instantiating the scenario and the diagnostic replay.
	runSum := 1000 * delta("jobs_run_duration_seconds_sum", nil) / jobs
	res.set("scenario.diagnose_ms", "ms", runSum-spanMS("run"))
	res.set("ndlog.diagnose_firings", "count", delta("ndlog_engine_ops_total", map[string]string{"op": "firings"})/jobs)
	res.set("ndlog.backtest_group_joins", "count", delta("ndlog_delta_group_joins_total", nil)/jobs)
	res.set("ndlog.delta_inserts", "count", delta("ndlog_delta_inserts_total", nil)/jobs)
	lookups := delta("ndlog_engine_ops_total", map[string]string{"op": "index_lookups"})
	if lookups > 0 {
		res.set("ndlog.index_rows_per_lookup", "count", delta("ndlog_engine_ops_total", map[string]string{"op": "index_rows"})/lookups)
	}
	res.set("metaprov.steps", "count", mean(cols["steps"]))
	res.set("metaprov.candidates", "count", mean(cols["generated"]))
	res.set("metaprov.steps_per_candidate", "count", mean(cols["steps"])/mean(cols["generated"]))
	res.set("backtest.batches", "count", mean(cols["batches"]))
	res.set("backtest.ms_per_candidate", "ms", spanMS("backtest")/mean(cols["evaluated"]))
	res.set("backtest.accepted_share", "%", 100*mean(cols["accepted"])/mean(cols["evaluated"]))
	return res, tr.write(cfg.Spans)
}
