package metarepair

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Detection is one symptomatic window a Watcher found: relevant traffic
// flowed in [From, To] and the symptom held when the window closed.
type Detection struct {
	// Watch and Scenario label the detecting loop.
	Watch    string
	Scenario string
	// Kind is "missing" or "present" (which half of the Symptom fired).
	Kind string
	// From and To bound the offending window (inclusive trace times).
	From, To int64
	// Triggers counts the symptom-relevant packets in the window.
	Triggers int64
	// At is the wall-clock detection instant — the time-to-validated-
	// repair SLO measures from here.
	At time.Time
}

// WatchConfig configures a self-healing loop. Program, Symptom,
// BuildNet, Store, and Window are required.
type WatchConfig struct {
	// Label names the watch in events ("" = Scenario).
	Label string
	// Scenario labels events and metrics (bounded vocabulary: the
	// registered scenario names).
	Scenario string

	// Store is the live trace log to follow.
	Store *tracestore.Store
	// Program is the controller program under watch (the possibly-buggy
	// one). The monitor runs it unmodified.
	Program *ndlog.Program
	// Symptom is the predicate to evaluate over windows.
	Symptom Symptom
	// BuildNet returns the topology, a network of its own per use — the
	// monitor takes one, every repair diagnosis another, every backtest
	// batch more, concurrently. The Fork method of a frozen network
	// (Backtest.BuildNet) is the intended value.
	BuildNet func() *sdn.Network
	// State seeds the controller before traffic.
	State []ndlog.Tuple
	// Effective judges a repair tag during backtesting.
	Effective func(net *sdn.Network, ctl *sdn.NDlogController, tag int) bool

	// Trigger marks symptom-relevant stream entries; nil derives one
	// from the symptom's pinned goal arguments (see sentinel.
	// TriggerFromGoal). MinTriggers is the per-window threshold
	// (default 1).
	Trigger     func(trace.Entry) bool
	MinTriggers int64

	// Window, Hop, Debounce shape the sliding windows (trace ticks);
	// see sentinel.Config. Window is required.
	Window, Hop, Debounce int64
	// Lookback widens each repair's replay window: the diagnosis
	// replays [From-Lookback, To] so symptoms that depend on earlier
	// state (learning tables) still reproduce. Default 0.
	Lookback int64

	// MaxConcurrent bounds simultaneous auto-repairs (default 1).
	// Detections beyond the bound — or for a window overlapping a
	// repair already in flight — are suppressed, visibly.
	MaxConcurrent int
	// Poll is the tail's fallback wake interval (see tracestore.
	// TailOptions).
	Poll time.Duration

	// Sink receives watch.* lifecycle events and, for inline repairs,
	// the repair sessions' own pipeline events.
	Sink EventSink
	// Metrics records the sentinel_* families when set.
	Metrics *WatchMetrics
	// Options are session options for repair runs (search budget,
	// workers); the watcher adds the first-accepted stop and replays the
	// flagged window itself.
	Options []Option

	// Launch starts one repair attempt. run blocks until the repair
	// finishes (it owns all bookkeeping — events, metrics, in-flight
	// accounting — even on error, so implementations only choose where
	// it executes: the daemon submits it to the jobs engine, the CLI
	// lets the default spawn a goroutine). An implementation that
	// cannot start the attempt must return an error WITHOUT running it;
	// the detection is then counted as suppressed.
	Launch func(d Detection, run func(ctx context.Context) (*Report, error)) error
}

// WatchStats is a point-in-time summary of a Watcher's work.
type WatchStats struct {
	// Entries, Windows, Detections, Debounced mirror the detector (see
	// sentinel.Stats).
	Entries    int64
	Windows    int64
	Detections int64
	Debounced  int64
	// SkippedSegments counts segments the live tail hopped over because
	// they were removed from disk, out of band, before it read them whole
	// (see tracestore.Tail.Skipped).
	SkippedSegments int64
	// Suppressed counts detections not acted on (in-flight overlap,
	// concurrency bound, launcher refusal).
	Suppressed int64
	// Launched counts repair attempts started; Validated those that
	// produced an accepted (backtest-validated) repair; Unvalidated
	// completed attempts with no accepted repair; Failed attempts that
	// errored.
	Launched    int64
	Validated   int64
	Unvalidated int64
	Failed      int64
}

// Watcher is the self-healing loop: it tails a live trace store,
// evaluates the symptom over sliding windows online, and launches a
// first-accepted repair session scoped to each offending window. The
// proposed patch and its backtest verdict surface as sink events
// (watch.repair.done) — the loop never mutates the running program; it
// produces validated suggestions.
type Watcher struct {
	cfg  WatchConfig
	tail *tracestore.Tail

	mu       sync.Mutex
	stats    WatchStats
	inflight map[string]bool // window key of each running repair's predicate
	running  int
}

// NewWatcher validates the configuration and builds the loop.
func NewWatcher(cfg WatchConfig) (*Watcher, error) {
	if cfg.Store == nil || cfg.Program == nil || cfg.BuildNet == nil {
		return nil, errors.New("metarepair: watch needs Store, Program, and BuildNet")
	}
	if cfg.Symptom.Present == nil && cfg.Symptom.Goal.Table == "" {
		return nil, errors.New("metarepair: watch needs a symptom")
	}
	if cfg.Label == "" {
		cfg.Label = cfg.Scenario
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	// Fail fast on a non-derivable trigger or bad window shape: build a
	// throwaway detector now.
	if _, err := sentinel.NewDetector(
		sentinel.Config{Window: cfg.Window, Hop: cfg.Hop, Debounce: cfg.Debounce},
		cfg.predicate()); err != nil {
		return nil, err
	}
	return &Watcher{cfg: cfg, inflight: make(map[string]bool)}, nil
}

func (cfg WatchConfig) predicate() sentinel.Predicate {
	return sentinel.Predicate{
		Name:        cfg.Label,
		Goal:        cfg.Symptom.Goal,
		Present:     cfg.Symptom.Present,
		Trigger:     cfg.Trigger,
		MinTriggers: cfg.MinTriggers,
	}
}

// Stats returns current counters; safe to call concurrently with Run.
func (w *Watcher) Stats() WatchStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	if w.tail != nil {
		st.SkippedSegments = w.tail.Skipped()
	}
	return st
}

// Run follows the store until ctx is cancelled or the store closes,
// monitoring and launching repairs. It returns ctx.Err() on
// cancellation, nil when the stream ended cleanly. Repairs still in
// flight when Run returns finish on their own goroutines (or wherever
// Launch put them); Run does not wait for them.
func (w *Watcher) Run(ctx context.Context) error {
	det, err := sentinel.NewDetector(
		sentinel.Config{Window: w.cfg.Window, Hop: w.cfg.Hop, Debounce: w.cfg.Debounce},
		w.cfg.predicate())
	if err != nil {
		return err
	}
	mon, err := sentinel.NewMonitor(w.cfg.Program, w.cfg.BuildNet(), w.cfg.State, det)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.tail = w.cfg.Store.Tail(tracestore.TailOptions{Poll: w.cfg.Poll})
	tail := w.tail
	w.mu.Unlock()

	w.emit(Event{Kind: "watch.start", Symptom: w.cfg.Symptom.String(),
		Size: int(det.Config().Window), Dir: w.cfg.Store.Dir()})
	ferr := tail.Follow(ctx, func(e trace.Entry) error {
		for _, d := range mon.Feed(e) {
			w.onDetection(ctx, d)
		}
		w.syncStats(det)
		return nil
	})
	for _, d := range mon.Flush() {
		w.onDetection(ctx, d)
	}
	w.syncStats(det)
	st := w.Stats()
	w.emit(Event{Kind: "watch.stop", Entries: st.Entries, Candidates: int(st.Detections)})
	return ferr
}

// syncStats mirrors detector counters into the watcher (the detector
// itself is confined to the follow goroutine) and feeds the metrics.
func (w *Watcher) syncStats(det *sentinel.Detector) {
	ds := det.Stats()
	w.mu.Lock()
	dEntries := ds.Entries - w.stats.Entries
	dWindows := ds.Windows - w.stats.Windows
	w.stats.Entries = ds.Entries
	w.stats.Windows = ds.Windows
	w.stats.Detections = ds.Detections
	w.stats.Debounced = ds.Debounced
	w.mu.Unlock()
	if m := w.cfg.Metrics; m != nil {
		m.Entries.Add(dEntries)
		m.Windows.Add(dWindows)
	}
}

// onDetection applies the concurrency policy and launches a scoped
// repair for a flagged window.
func (w *Watcher) onDetection(ctx context.Context, sd sentinel.Detection) {
	d := Detection{
		Watch: w.cfg.Label, Scenario: w.cfg.Scenario, Kind: sd.Kind,
		From: sd.From, To: sd.To, Triggers: sd.Triggers, At: time.Now(),
	}
	if m := w.cfg.Metrics; m != nil {
		m.Detections.With(w.label()).Inc()
	}
	w.emit(Event{Kind: "watch.detect", Symptom: w.cfg.Symptom.String(),
		From: d.From, To: d.To, Triggers: d.Triggers})

	w.mu.Lock()
	var reason string
	switch {
	case w.inflight[w.cfg.Label]:
		reason = "in-flight"
	case w.running >= w.cfg.MaxConcurrent:
		reason = "concurrency"
	}
	if reason == "" {
		w.inflight[w.cfg.Label] = true
		w.running++
		w.stats.Launched++
	} else {
		w.stats.Suppressed++
	}
	w.mu.Unlock()
	if reason != "" {
		w.suppress(d, reason)
		return
	}

	run := func(rctx context.Context) (*Report, error) {
		rep, err := w.repair(rctx, d)
		w.finish(d, rep, err)
		return rep, err
	}
	launch := w.cfg.Launch
	if launch == nil {
		launch = func(_ Detection, run func(ctx context.Context) (*Report, error)) error {
			go run(ctx)
			return nil
		}
	}
	if err := launch(d, run); err != nil {
		w.mu.Lock()
		delete(w.inflight, w.cfg.Label)
		w.running--
		w.stats.Launched--
		w.stats.Suppressed++
		w.mu.Unlock()
		w.suppress(d, fmt.Sprintf("launch: %v", err))
	}
}

func (w *Watcher) suppress(d Detection, reason string) {
	if m := w.cfg.Metrics; m != nil {
		m.Suppressed.With(suppressClass(reason)).Inc()
	}
	w.emit(Event{Kind: "watch.suppressed", From: d.From, To: d.To, Desc: reason})
}

// suppressClass folds free-form launch errors into a bounded label.
func suppressClass(reason string) string {
	switch reason {
	case "in-flight", "concurrency":
		return reason
	}
	return "launch"
}

// repair runs one scoped first-accepted repair session: diagnose by
// replaying the offending window from the store, then explore and
// backtest against that same window.
func (w *Watcher) repair(ctx context.Context, d Detection) (*Report, error) {
	from, to := d.From-w.cfg.Lookback, d.To
	w.emit(Event{Kind: "watch.repair.start", From: from, To: to})

	opts := append([]Option(nil), w.cfg.Options...)
	opts = append(opts, WithPipelineMode(PipelineFirstAccepted))
	if w.cfg.Sink != nil && w.cfg.Launch == nil {
		// Inline repairs share the watch event stream; launched ones
		// (daemon jobs) carry their own per-job logs.
		opts = append(opts, WithEventSink(w.cfg.Sink))
	}
	sess, err := NewSession(w.cfg.Program, opts...)
	if err != nil {
		return nil, err
	}
	// Diagnosis replay, scoped to the window: the session's engine and
	// recorder observe exactly the traffic that exhibited the symptom.
	net := w.cfg.BuildNet()
	ctl := sess.Controller()
	net.Ctrl = ctl
	for _, st := range w.cfg.State {
		ctl.InsertState(net, st)
	}
	view := w.cfg.Store.Source().Window(from, to)
	if _, err := trace.ReplaySource(net, view, 1); err != nil {
		return nil, fmt.Errorf("watch %s: diagnosis replay: %w", w.cfg.Label, err)
	}
	return sess.Repair(ctx, w.cfg.Symptom, Backtest{
		BuildNet:  w.cfg.BuildNet,
		State:     w.cfg.State,
		Source:    view,
		Effective: w.cfg.Effective,
	})
}

// finish records one repair attempt's outcome: events, metrics, and the
// in-flight bookkeeping.
func (w *Watcher) finish(d Detection, rep *Report, err error) {
	elapsed := time.Since(d.At)
	outcome := "failed"
	var accepted int
	var desc string
	var candidates int
	switch {
	case err != nil:
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			outcome = "cancelled"
		}
	case rep.Accepted > 0:
		outcome = "validated"
		accepted = rep.Accepted
		for _, s := range rep.Suggestions {
			if s.Result.Accepted {
				desc = s.Candidate.Describe()
				break
			}
		}
		candidates = len(rep.Candidates)
	default:
		outcome = "unvalidated"
		candidates = len(rep.Candidates)
	}

	w.mu.Lock()
	delete(w.inflight, w.cfg.Label)
	w.running--
	switch outcome {
	case "validated":
		w.stats.Validated++
	case "unvalidated":
		w.stats.Unvalidated++
	default:
		w.stats.Failed++
	}
	w.mu.Unlock()

	if m := w.cfg.Metrics; m != nil {
		m.Repairs.With(outcome).Inc()
		if outcome == "validated" {
			m.TimeToValidated.Observe(elapsed.Seconds())
		}
	}
	ev := Event{Kind: "watch.repair.done", From: d.From - w.cfg.Lookback, To: d.To,
		Candidates: candidates, Passed: accepted, Desc: desc,
		Accepted: outcome == "validated", Elapsed: float64(elapsed.Microseconds()) / 1e3}
	if err != nil {
		ev.Desc = err.Error()
	}
	w.emit(ev)
}

func (w *Watcher) label() string {
	if w.cfg.Scenario != "" {
		return w.cfg.Scenario
	}
	return w.cfg.Label
}

func (w *Watcher) emit(e Event) {
	if w.cfg.Sink == nil {
		return
	}
	e.Watch = w.cfg.Label
	if e.Scenario == "" {
		e.Scenario = w.cfg.Scenario
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	w.cfg.Sink.Emit(e)
}
