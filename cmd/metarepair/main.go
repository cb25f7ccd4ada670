// Command metarepair runs the paper's §2 workflow as a CLI over the
// metarepair.Session API and the scenario registry:
//
//	metarepair [run] -scenario Q1 [-switches 19] [-flows 900]
//	           [-lang RapidNet|Trema|Pyretic] [-parallelism N]
//	           [-explore-workers N] [-pipeline streaming|barrier|first-accepted]
//	           [-batch N] [-timeout 2m] [-events progress.jsonl]
//	           [-metrics metrics.prom] [-v]
//	  run one diagnostic scenario end to end: replay the workload through
//	  the buggy controller, build meta provenance with the concurrent
//	  forest search, and backtest candidates in shared-run batches that
//	  launch while exploration is still producing (-pipeline streaming,
//	  the default). -pipeline first-accepted stops everything at the first
//	  passing repair; -pipeline barrier restores the explore-first
//	  composition. Prints the ranking and the Figure 9a-style phase
//	  breakdown including explore/replay overlap.
//
//	metarepair suite [-scenarios Q1,Q3] [-scales 19,49:1200] [-flows 900]
//	           [-parallel N] [-check-sequential] [-timeout 10m] [-events f]
//	  run a scenario × scale matrix concurrently on the suite worker pool
//	  and print the aggregate matrix report. -scenarios defaults to every
//	  registered scenario; each -scales entry is a switch count with an
//	  optional :flows override. -check-sequential reruns the matrix on one
//	  worker and fails unless every per-cell verdict matches.
//
//	metarepair capture -dir ./q1.trace -scenario Q1 [-format binary|jsonl]
//	           [-segment-entries N] [-segment-bytes B] [-fault-last]
//	  record the scenario's traffic into a segmented on-disk trace store
//	  via the live capture hook (one §5.4 log record per packet).
//	  -fault-last reorders the replay so healthy background traffic
//	  streams first and the symptom-relevant packets last — the shape
//	  watch-mode drills use to inject the fault mid-stream.
//
//	metarepair watch -dir ./q1.trace -scenario Q1 [-feed] [-window N]
//	           [-hop N] [-debounce N] [-min-triggers N] [-lookback N]
//	           [-max-repairs N] [-exit-validated] [-poll D] ...
//	  self-healing mode: tail the store live, evaluate the scenario's
//	  symptom over sliding windows online, and launch a first-accepted
//	  repair scoped to each flagged window; the patch and its backtest
//	  verdict stream as watch.* events. -feed appends the scenario's
//	  workload (fault-last) into the store while watching, making the
//	  command a self-contained drill; -exit-validated stops (exit 0)
//	  once a repair validates.
//
//	metarepair trace ls -dir ./q1.trace
//	  list the store's segments: entries, real bytes, time range, hosts.
//
//	metarepair replay -dir ./q1.trace -scenario Q1 [-from T] [-to T] ...
//	  run the same pipeline but stream the backtest workload out of the
//	  store (optionally a time window of it) instead of memory.
//
// Scenario names resolve through the scenario package's default registry,
// which holds the five §5.3 case studies as soon as the package is
// imported; third-party packages register their own specs the same way. A
// typo prints the registered menu instead of panicking.
//
// -events streams pipeline progress — including suite cell events and
// replay.open — as JSONL to the given file; "-" writes to stderr.
// -timeout cancels the whole pipeline via context.
//
// -metrics (run and replay) aggregates the run's telemetry — session
// span durations, event and suggestion counts, NDlog engine work — into
// an in-process registry and writes it as a Prometheus text exposition
// to the given file ("-" = stderr) when the run finishes: the same
// families metarepaird serves live at /metrics, for one-shot runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		runScenario(args)
	case "suite":
		runSuite(args)
	case "capture":
		runCapture(args)
	case "trace":
		if len(args) == 0 || args[0] != "ls" {
			fmt.Fprintln(os.Stderr, "usage: metarepair trace ls -dir <store>")
			os.Exit(2)
		}
		runTraceLs(args[1:])
	case "replay":
		runReplay(args)
	case "watch":
		runWatch(args)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q (want run, suite, capture, trace ls, replay, or watch)\n", cmd)
		os.Exit(2)
	}
}

// scenarioFlags are the flags shared by run, capture, and replay.
type scenarioFlags struct {
	fs       *flag.FlagSet
	name     *string
	switches *int
	flows    *int
}

func newScenarioFlags(cmd string) scenarioFlags {
	fs := flag.NewFlagSet("metarepair "+cmd, flag.ExitOnError)
	return scenarioFlags{
		fs:   fs,
		name: fs.String("scenario", "Q1", "scenario to run (see the registered list in errors)"),
		switches: fs.Int("switches", 19,
			"topology switch budget (campus: 19..169)"),
		flows: fs.Int("flows", 900, "workload flow count"),
	}
}

// scenario instantiates the named scenario from the default registry; an
// unknown name prints the registry's menu error.
func (sf scenarioFlags) scenario() *scenario.Scenario {
	sc := scenario.Scale{Switches: *sf.switches, Flows: *sf.flows}
	s, err := scenario.Instantiate(*sf.name, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}
	return s
}

// evalFlag registers the shared -eval flag; the returned resolver maps
// the value to a session option after Parse, exiting with usage status 2
// on an unknown mode.
func evalFlag(fs *flag.FlagSet) func() metarepair.EvalMode {
	v := fs.String("eval", "delta",
		"shared-run evaluation mode: delta (incremental, default) or full (the reference path)")
	return func() metarepair.EvalMode {
		m, err := metarepair.ParseEvalMode(*v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(2)
		}
		return m
	}
}

// fail reports a fatal error with conventional exit codes — 130 for an
// interrupted pipeline (SIGINT), 124 for an exceeded -timeout, 1 for
// everything else — so scripts and CI can tell a cancelled run from a
// genuinely failed one instead of reading both as the same failure.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "error: %v\n", err)
	switch {
	case errors.Is(err, context.Canceled):
		os.Exit(130)
	case errors.Is(err, context.DeadlineExceeded):
		os.Exit(124)
	}
	os.Exit(1)
}

// pipelineContext builds the signal-aware, optionally timed context every
// subcommand runs under. The first SIGINT cancels the pipeline gracefully
// (partial work is reported as an error, never as a truncated success);
// signal delivery is restored right after, so a second Ctrl-C kills a
// pipeline that is slow to unwind.
func pipelineContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
	}()
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// eventSink opens the -events destination: nil when unset, stderr for
// "-", a fresh file otherwise. The returned closer is a no-op where
// nothing was opened.
func eventSink(dest string) (metarepair.EventSink, func(), error) {
	if dest == "" {
		return nil, func() {}, nil
	}
	if dest == "-" {
		return metarepair.NewJSONLSink(os.Stderr), func() {}, nil
	}
	f, err := os.Create(dest)
	if err != nil {
		return nil, nil, err
	}
	return metarepair.NewJSONLSink(f), func() { f.Close() }, nil
}

// parseScales turns "19,49:1200" into scales, applying defaultFlows to
// entries without an explicit :flows.
func parseScales(spec string, defaultFlows int) ([]scenario.Scale, error) {
	var out []scenario.Scale
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sw, flows := part, ""
		if i := strings.IndexByte(part, ':'); i >= 0 {
			sw, flows = part[:i], part[i+1:]
		}
		sc := scenario.Scale{Flows: defaultFlows}
		n, err := strconv.Atoi(sw)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", part, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("bad scale %q: switch count must be >= 1", part)
		}
		sc.Switches = n
		if flows != "" {
			if sc.Flows, err = strconv.Atoi(flows); err != nil {
				return nil, fmt.Errorf("bad scale %q: %w", part, err)
			}
			if sc.Flows < 1 {
				return nil, fmt.Errorf("bad scale %q: flow count must be >= 1", part)
			}
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales in %q", spec)
	}
	return out, nil
}

// splitList parses a comma-separated name list, empty meaning "all".
func splitList(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runSuite executes a scenario × scale matrix on the concurrent suite
// runner.
func runSuite(args []string) {
	fs := flag.NewFlagSet("metarepair suite", flag.ExitOnError)
	names := fs.String("scenarios", "", "comma-separated scenario names (default: all registered)")
	scalesSpec := fs.String("scales", "19", "comma-separated scales: switch counts with optional :flows (e.g. 19,49:1200); shapes round to their nearest legal size (campus: >= 19)")
	flows := fs.Int("flows", 900, "default workload flow count for scales without :flows")
	par := fs.Int("parallel", 0, "suite worker-pool width (0 = all cores)")
	check := fs.Bool("check-sequential", false, "rerun the matrix on one worker and fail unless all verdicts match")
	timeout := fs.Duration("timeout", 0, "cancel the suite after this long (0 = no limit)")
	events := fs.String("events", "", "stream JSONL progress events to this file (\"-\" = stderr)")
	evalMode := evalFlag(fs)
	fs.Parse(args)

	ctx, stop := pipelineContext(*timeout)
	defer stop()
	scales, err := parseScales(*scalesSpec, *flows)
	if err != nil {
		fail(err)
	}
	sink, closeSink, err := eventSink(*events)
	if err != nil {
		fail(err)
	}
	defer closeSink()

	suite := &scenario.Suite{
		Scenarios: splitList(*names),
		Scales:    scales,
		Parallel:  *par,
		Sink:      sink,
		Options:   []metarepair.Option{metarepair.WithEvalMode(evalMode())},
	}
	start := time.Now()
	m, err := suite.Run(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Print(m.Render())
	fmt.Printf("%d cell(s) in %v\n", len(m.Cells), time.Since(start).Round(time.Millisecond))
	if err := m.Err(); err != nil {
		fail(err)
	}

	if *check {
		seq := &scenario.Suite{Scenarios: suite.Scenarios, Scales: scales, Parallel: 1,
			Options: suite.Options}
		sm, err := seq.Run(ctx)
		if err != nil {
			fail(err)
		}
		if err := sm.Err(); err != nil {
			fail(err)
		}
		if err := compareMatrices(m, sm); err != nil {
			fail(fmt.Errorf("concurrent/sequential divergence: %w", err))
		}
		fmt.Println("verdict parity: concurrent run matches sequential run")
	}
}

// compareMatrices checks two runs of the same matrix produced identical
// per-cell candidate counts and verdicts.
func compareMatrices(a, b *scenario.Matrix) error {
	if len(a.Cells) != len(b.Cells) {
		return fmt.Errorf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if ca.Cell != cb.Cell {
			return fmt.Errorf("cell %d identity differs: %s vs %s", i, ca.Cell, cb.Cell)
		}
		if ca.Outcome.Generated != cb.Outcome.Generated || ca.Outcome.Passed != cb.Outcome.Passed {
			return fmt.Errorf("%s: %d/%d vs %d/%d", ca.Cell,
				ca.Outcome.Generated, ca.Outcome.Passed, cb.Outcome.Generated, cb.Outcome.Passed)
		}
		va, vb := ca.Verdicts(), cb.Verdicts()
		if len(va) != len(vb) {
			return fmt.Errorf("%s: %d vs %d backtest results", ca.Cell, len(va), len(vb))
		}
		for j := range va {
			if va[j] != vb[j] {
				return fmt.Errorf("%s: candidate %d verdict differs", ca.Cell, j)
			}
		}
	}
	return nil
}

// runCapture replays the scenario's traffic through a capture-hooked
// network, appending every injected packet to the store.
func runCapture(args []string) {
	sf := newScenarioFlags("capture")
	dir := sf.fs.String("dir", "", "trace store directory (required)")
	format := sf.fs.String("format", "binary", "record codec: binary (120-byte §5.4 records) or jsonl")
	segEntries := sf.fs.Int("segment-entries", 0, "rotate segments after this many records (0 = default)")
	segBytes := sf.fs.Int64("segment-bytes", 0, "rotate segments after this many bytes (0 = default)")
	faultLast := sf.fs.Bool("fault-last", false,
		"replay healthy background traffic first and symptom-relevant packets last, so watch-mode drills see the fault arrive mid-stream")
	sf.fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "capture: -dir is required")
		os.Exit(2)
	}
	codec, err := tracestore.CodecByName(*format)
	if err != nil {
		fail(err)
	}
	s := sf.scenario()
	faultStart := 0
	if *faultLast {
		ordered, boundary, err := faultLastOrder(s)
		if err != nil {
			fail(err)
		}
		s.Workload, faultStart = ordered, boundary
	}
	st, err := tracestore.Open(*dir, tracestore.Options{
		Codec: codec, SegmentEntries: *segEntries, SegmentBytes: *segBytes,
	})
	if err != nil {
		fail(err)
	}
	net := s.BuildNet()
	rec := tracestore.NewRecorder(st)
	net.Capture = rec
	injected := trace.Replay(net, s.Workload, 1)
	if err := rec.Err(); err != nil {
		fail(err)
	}
	if err := st.Close(); err != nil {
		fail(err)
	}
	stats := st.Stats()
	fmt.Printf("captured %d packets of scenario %s into %s (%s codec)\n",
		injected, s.Name, *dir, codec.Name())
	fmt.Printf("%d segment(s), %d entries, %d bytes on disk\n",
		stats.Segments, stats.Entries, stats.Bytes)
	if *faultLast {
		// The recorder's tick clock stamps entries 1..N in replay order,
		// so the first symptomatic record sits at tick faultStart+1.
		fmt.Printf("fault-last order: %d healthy entries, symptom traffic from tick %d\n",
			faultStart, faultStart+1)
	}
}

// faultLastOrder rebuilds a scenario workload for watch-mode drills:
// time-sorted healthy background traffic first, the symptom-relevant
// packets (those matching the trigger derived from the scenario's goal)
// after, the whole stream restamped onto one monotonic clock. Returns
// the reordered entries and the index of the first symptomatic one.
func faultLastOrder(s *scenario.Scenario) ([]trace.Entry, int, error) {
	trigger := sentinel.TriggerFromGoal(s.Goal)
	if trigger == nil {
		return nil, 0, fmt.Errorf(
			"scenario %s: goal pins no packet-header fields — cannot separate symptom traffic", s.Name)
	}
	stream := append([]trace.Entry(nil), s.Workload...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	var healthy, faulty []trace.Entry
	for _, e := range stream {
		if trigger(e) {
			faulty = append(faulty, e)
		} else {
			healthy = append(healthy, e)
		}
	}
	if len(faulty) == 0 {
		return nil, 0, fmt.Errorf("scenario %s: workload has no symptom-relevant packets", s.Name)
	}
	ordered := append(healthy, faulty...)
	for i := range ordered {
		ordered[i].Time = int64(i + 1)
	}
	return ordered, len(healthy), nil
}

// runTraceLs lists a store's segments from their sidecar indexes.
func runTraceLs(args []string) {
	fs := flag.NewFlagSet("metarepair trace ls", flag.ExitOnError)
	dir := fs.String("dir", "", "trace store directory (required)")
	format := fs.String("format", "binary", "record codec the store was written with")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "trace ls: -dir is required")
		os.Exit(2)
	}
	codec, err := tracestore.CodecByName(*format)
	if err != nil {
		fail(err)
	}
	st, err := tracestore.Open(*dir, tracestore.Options{Codec: codec})
	if err != nil {
		fail(err)
	}
	defer st.Close()
	fmt.Printf("%-14s %10s %12s %12s %12s %7s\n",
		"SEGMENT", "ENTRIES", "BYTES", "MIN-TIME", "MAX-TIME", "HOSTS")
	for _, si := range st.Segments() {
		hosts := fmt.Sprintf("%d", len(si.Hosts))
		if si.HostsOverflow {
			// Past the index bound the exact count is not recorded.
			hosts = fmt.Sprintf(">%d", tracestore.MaxIndexedHosts)
		}
		fmt.Printf("seg-%08d   %10d %12d %12d %12d %7s\n",
			si.ID, si.Entries, si.Bytes, si.MinTime, si.MaxTime, hosts)
	}
	stats := st.Stats()
	fmt.Printf("total: %d segment(s), %d entries, %d bytes, time [%d, %d]\n",
		stats.Segments, stats.Entries, stats.Bytes, stats.MinTime, stats.MaxTime)
}

// runWatch runs the self-healing loop: tail a live store, detect the
// scenario's symptom online over sliding windows, and auto-launch
// scoped first-accepted repairs.
func runWatch(args []string) {
	sf := newScenarioFlags("watch")
	dir := sf.fs.String("dir", "", "trace store directory to follow (required)")
	format := sf.fs.String("format", "binary", "record codec of the store")
	segEntries := sf.fs.Int("segment-entries", 0, "rotate segments after this many records (0 = default)")
	feed := sf.fs.Bool("feed", false,
		"append the scenario's workload (fault-last) into the store while watching — a self-contained drill")
	window := sf.fs.Int64("window", 256, "sliding window width, in trace ticks")
	hop := sf.fs.Int64("hop", 0, "window stride in ticks (0 = tumbling: stride = window)")
	debounce := sf.fs.Int64("debounce", 0,
		"suppress re-detections starting within this many ticks of the last flagged window (0 = window width, negative = none)")
	minTriggers := sf.fs.Int64("min-triggers", 1, "symptom-relevant packets a window needs before it can flag")
	lookback := sf.fs.Int64("lookback", -1,
		"replay this many ticks before each flagged window in the repair (-1 = back to the stream's start)")
	maxRepairs := sf.fs.Int("max-repairs", 1, "concurrent auto-repair bound")
	poll := sf.fs.Duration("poll", 200*time.Millisecond, "tail fallback wake interval")
	par := sf.fs.Int("parallelism", 0, "backtest worker-pool width for auto-repairs (0 = all cores)")
	exitValidated := sf.fs.Bool("exit-validated", false, "stop watching after the first validated repair")
	timeout := sf.fs.Duration("timeout", 0, "stop watching after this long (0 = until interrupted)")
	events := sf.fs.String("events", "", "stream JSONL watch and pipeline events to this file (\"-\" = stderr)")
	metricsDest := sf.fs.String("metrics", "",
		"write the watch's metric families (Prometheus text, sentinel_* + session_*) to this file when done (\"-\" = stderr)")
	evalMode := evalFlag(sf.fs)
	sf.fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "watch: -dir is required")
		os.Exit(2)
	}
	codec, err := tracestore.CodecByName(*format)
	if err != nil {
		fail(err)
	}
	s := sf.scenario()
	st, err := tracestore.Open(*dir, tracestore.Options{Codec: codec, SegmentEntries: *segEntries})
	if err != nil {
		fail(err)
	}
	defer st.Close()

	sink, closeSink, err := eventSink(*events)
	if err != nil {
		fail(err)
	}
	defer closeSink()
	var met *runMetrics
	var wm *metarepair.WatchMetrics
	if *metricsDest != "" {
		met = newRunMetrics()
		wm = metarepair.NewWatchMetrics(met.reg)
	}
	validated := make(chan struct{}, 1)
	var sinks multiSink
	if sink != nil {
		sinks = append(sinks, sink)
	}
	if met != nil {
		sinks = append(sinks, met.sessions)
	}
	sinks = append(sinks, metarepair.SinkFunc(func(e metarepair.Event) {
		switch e.Kind {
		case "watch.detect":
			fmt.Printf("detected: symptom %s held over window [%d, %d] (%d trigger packets)\n",
				e.Symptom, e.From, e.To, e.Triggers)
		case "watch.suppressed":
			fmt.Printf("suppressed detection [%d, %d]: %s\n", e.From, e.To, e.Desc)
		case "watch.repair.start":
			fmt.Printf("repairing: first-accepted session over replay window [%d, %d]\n", e.From, e.To)
		case "watch.repair.done":
			if e.Accepted {
				fmt.Printf("validated repair in %.0f ms: %s\n", e.Elapsed, e.Desc)
				select {
				case validated <- struct{}{}:
				default:
				}
			} else {
				fmt.Printf("repair attempt over [%d, %d] did not validate (%d candidates): %s\n",
					e.From, e.To, e.Candidates, e.Desc)
			}
		}
	}))

	lb := *lookback
	if lb < 0 {
		lb = 1 << 40 // further back than any realistic tick clock
	}
	opts := append([]metarepair.Option(nil), s.Options...)
	opts = append(opts, metarepair.WithEvalMode(evalMode()))
	if *par > 0 {
		opts = append(opts, metarepair.WithParallelism(*par))
	}
	w, err := metarepair.NewWatcher(metarepair.WatchConfig{
		Scenario:      s.Name,
		Store:         st,
		Program:       s.Prog,
		Symptom:       s.Symptom(),
		BuildNet:      s.BuildNet,
		State:         s.State,
		Effective:     s.Effective,
		MinTriggers:   *minTriggers,
		Window:        *window,
		Hop:           *hop,
		Debounce:      *debounce,
		Lookback:      lb,
		MaxConcurrent: *maxRepairs,
		Poll:          *poll,
		Sink:          sinks,
		Metrics:       wm,
		Options:       opts,
	})
	if err != nil {
		fail(err)
	}

	ctx, stop := pipelineContext(*timeout)
	defer stop()
	fmt.Printf("watching %s for scenario %s symptoms (window %d, max %d concurrent repairs)\n",
		*dir, s.Name, *window, *maxRepairs)
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()

	if *feed {
		ordered, boundary, err := faultLastOrder(s)
		if err != nil {
			fail(err)
		}
		fmt.Printf("feeding %d entries live (%d healthy, symptom traffic from tick %d)\n",
			len(ordered), boundary, boundary+1)
		go func() {
			for i := 0; i < len(ordered); i += 128 {
				end := i + 128
				if end > len(ordered) {
					end = len(ordered)
				}
				if err := st.Append(ordered[i:end]...); err != nil {
					fmt.Fprintf(os.Stderr, "feed: %v\n", err)
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}()
	}

	var runErr error
loop:
	for {
		select {
		case <-validated:
			if *exitValidated {
				stop()
			}
		case runErr = <-runDone:
			break loop
		}
	}

	stt := w.Stats()
	fmt.Printf("\nwatched %d entries over %d windows: %d detection(s), %d suppressed, %d repair(s) launched (%d validated, %d unvalidated, %d failed)\n",
		stt.Entries, stt.Windows, stt.Detections, stt.Suppressed,
		stt.Launched, stt.Validated, stt.Unvalidated, stt.Failed)
	if met != nil {
		if err := met.dump(*metricsDest); err != nil {
			fail(fmt.Errorf("writing -metrics: %w", err))
		}
	}
	// A validated repair is the loop's success condition, whatever ended
	// the watch; otherwise surface how it ended.
	if stt.Validated > 0 {
		return
	}
	if runErr != nil {
		fail(runErr)
	}
	fail(errors.New("watch ended with no validated repair"))
}

// runReplay is runScenario with the backtest workload streamed from a
// captured store instead of memory.
func runReplay(args []string) {
	runPipeline("replay", args)
}

func runScenario(args []string) {
	runPipeline("run", args)
}

func runPipeline(cmd string, args []string) {
	sf := newScenarioFlags(cmd)
	lang := sf.fs.String("lang", "RapidNet", "controller language front-end (RapidNet, Trema, Pyretic)")
	par := sf.fs.Int("parallelism", 0, "backtest worker-pool width (0 = all cores)")
	exploreWorkers := sf.fs.Int("explore-workers", 0, "concurrent forest-search worker count (0 = all cores)")
	pipeline := sf.fs.String("pipeline", "streaming",
		"explore→backtest composition: streaming (overlapped), barrier (explore first), or first-accepted (stop at the first passing repair)")
	batch := sf.fs.Int("batch", 0, "candidates per shared-run batch (0 = the 63-tag maximum)")
	timeout := sf.fs.Duration("timeout", 0, "cancel the pipeline after this long (0 = no limit)")
	events := sf.fs.String("events", "", "stream JSONL progress events to this file (\"-\" = stderr)")
	metricsDest := sf.fs.String("metrics", "",
		"write the run's metric families (Prometheus text) to this file when done (\"-\" = stderr)")
	verbose := sf.fs.Bool("v", false, "print the candidate meta-provenance tree of the best repair")
	evalMode := evalFlag(sf.fs)
	var dir, format *string
	var from, to *int64
	if cmd == "replay" {
		dir = sf.fs.String("dir", "", "trace store directory to replay from (required)")
		format = sf.fs.String("format", "binary", "record codec the store was written with")
		from = sf.fs.Int64("from", math.MinInt64, "replay only records with Time >= from")
		to = sf.fs.Int64("to", math.MaxInt64, "replay only records with Time <= to")
	}
	sf.fs.Parse(args)

	ctx, stop := pipelineContext(*timeout)
	defer stop()

	s := sf.scenario()

	language, err := scenario.LanguageByName(*lang)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}

	opts := []metarepair.Option{metarepair.WithEvalMode(evalMode())}
	if *par > 0 {
		opts = append(opts, metarepair.WithParallelism(*par))
	}
	if *exploreWorkers > 0 {
		opts = append(opts, metarepair.WithExploreWorkers(*exploreWorkers))
	}
	if *batch > 0 {
		opts = append(opts, metarepair.WithBatchSize(*batch))
	}
	mode, err := metarepair.ParsePipelineMode(*pipeline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: -pipeline: %v\n", err)
		os.Exit(2)
	}
	opts = append(opts, metarepair.WithPipelineMode(mode))
	sink, closeSink, err := eventSink(*events)
	if err != nil {
		fail(err)
	}
	defer closeSink()
	var sinks multiSink
	if sink != nil {
		sinks = append(sinks, sink)
	}
	var met *runMetrics
	if *metricsDest != "" {
		met = newRunMetrics()
		sinks = append(sinks, met.sessions)
	}
	if len(sinks) > 0 {
		opts = append(opts, metarepair.WithEventSink(sinks))
	}

	workload := fmt.Sprintf("%d packets of history", len(s.Workload))
	if cmd == "replay" {
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "replay: -dir is required (run `metarepair capture` first)")
			os.Exit(2)
		}
		if *from > *to {
			fmt.Fprintf(os.Stderr, "replay: from %d exceeds to %d\n", *from, *to)
			os.Exit(2)
		}
		codec, err := tracestore.CodecByName(*format)
		if err != nil {
			fail(err)
		}
		st, err := tracestore.Open(*dir, tracestore.Options{Codec: codec})
		if err != nil {
			fail(err)
		}
		defer st.Close()
		stats := st.Stats()
		// The store becomes the scenario's workload — diagnosis and
		// backtesting both stream this windowed view.
		s.Source = st.Source().Window(*from, *to)
		workload = fmt.Sprintf("%d entries in %d on-disk segment(s) (%d bytes)",
			stats.Entries, stats.Segments, stats.Bytes)
		if *from != math.MinInt64 || *to != math.MaxInt64 {
			workload += fmt.Sprintf(", window [%d, %d]", *from, *to)
		}
	}

	fmt.Printf("scenario %s: %s\n", s.Name, s.Query)
	fmt.Printf("language %s, %s topology, %d switches, %s\n\n",
		language.Name, s.Topology, *sf.switches, workload)

	start := time.Now()
	out, err := s.RunWithLanguage(ctx, language, opts...)
	if err != nil {
		fail(err)
	}
	if !out.Supported {
		fmt.Printf("scenario %s is not reproducible in %s (see §5.8)\n", s.Name, language.Name)
		return
	}

	fmt.Printf("generated %d candidate repairs (%d filtered as inexpressible in %s)\n",
		out.Generated, out.Filtered, language.Name)
	if out.Report.EarlyStopped {
		fmt.Printf("stopped at the first accepted repair: %d of %d candidates backtested\n",
			out.Report.Evaluated, len(out.Report.Candidates))
	}
	fmt.Printf("backtesting accepted %d (%d shared-run batch(es))\n\n",
		out.Passed, out.Report.Batches)
	for i, r := range out.Results {
		if !out.Report.IsEvaluated(i) {
			continue // first-accepted stop cancelled this candidate's batch
		}
		mark := " "
		if r.Accepted {
			mark = "*"
		}
		desc := r.Candidate.Describe()
		if i < len(out.Renderings) && out.Renderings[i] != "" {
			desc = out.Renderings[i]
		}
		fmt.Printf(" %s [cost %.1f, KS %.5f] %s\n", mark, r.Candidate.Cost, r.KS, desc)
	}
	fmt.Printf("\nturnaround: %v (history %v, solving %v, patch generation %v, replay %v",
		time.Since(start).Round(time.Millisecond),
		out.Timing.HistoryLookups.Round(time.Millisecond),
		out.Timing.ConstraintSolving.Round(time.Millisecond),
		out.Timing.PatchGeneration.Round(time.Millisecond),
		out.Timing.Replay.Round(time.Millisecond))
	if out.Timing.Overlap > 0 {
		fmt.Printf("; %v overlapped", out.Timing.Overlap.Round(time.Millisecond))
	}
	fmt.Println(")")

	if *verbose && len(out.Candidates) > 0 && out.Candidates[0].Tree != nil {
		fmt.Printf("\nmeta-provenance tree of the top candidate:\n%s\n", out.Candidates[0].Tree.Render())
	}

	if met != nil {
		met.engine.Record(out.Session.EngineStats(), out.Report.Engine)
		met.search.Record(out.Report)
		if err := met.dump(*metricsDest); err != nil {
			fail(fmt.Errorf("writing -metrics: %w", err))
		}
	}
}

// multiSink forwards each pipeline event to every attached sink (-events
// and -metrics can both be active on one run).
type multiSink []metarepair.EventSink

func (m multiSink) Emit(e metarepair.Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// runMetrics aggregates one-shot run telemetry: the session families via
// the event stream plus the NDlog engine and search counters sampled when
// the run finishes — the same catalogue metarepaird exposes at /metrics,
// minus the daemon-only (jobs_*, http_*, tracestore_*) families.
type runMetrics struct {
	reg      *obsv.Registry
	sessions *metarepair.MetricsSink
	engine   *metarepair.EngineMetrics
	search   *metarepair.SearchMetrics
}

func newRunMetrics() *runMetrics {
	reg := obsv.NewRegistry()
	return &runMetrics{
		reg:      reg,
		sessions: metarepair.NewMetricsSink(reg),
		engine:   metarepair.NewEngineMetrics(reg),
		search:   metarepair.NewSearchMetrics(reg),
	}
}

// dump writes the registry as a Prometheus text exposition to dest ("-"
// = stderr).
func (m *runMetrics) dump(dest string) error {
	if dest == "-" {
		return m.reg.WriteText(os.Stderr)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := m.reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
