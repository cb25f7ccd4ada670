// Package metarepair is the public surface of the meta-provenance
// debugger: it ties the NDlog engine, provenance recorder, meta-provenance
// explorer, repair generator, and backtesting engine into the staged
// pipeline the paper describes (§2, §4.3–§4.4): the operator specifies an
// observed problem, the debugger explores meta provenance for repair
// candidates, backtests them against historical traffic, and returns a
// ranked list of suggested repairs that fix the problem with few side
// effects.
//
// The pipeline is context-aware (every long-running call takes a
// context.Context), configured by functional options instead of mutable
// struct fields, and streams incremental results: candidate sets larger
// than one shared run's 63-tag space are split into batches backtested
// concurrently on a worker pool, with per-suggestion verdicts delivered on
// a channel as each batch completes.
//
// Typical use:
//
//	sess, _ := metarepair.NewSession(program)
//	topology := buildNetwork()
//	topology.Freeze()                // build once, fork per replay
//	net := topology.Fork()
//	net.Ctrl = sess.Controller()     // record control-plane history
//	...run traffic...
//	sym := metarepair.Missing("FlowTable", metarepair.Pin(3), nil, nil, nil, metarepair.Pin(80), metarepair.Pin(2))
//	report, _ := sess.Repair(ctx, sym, metarepair.Backtest{BuildNet: topology.Fork, Source: trace.SliceSource(wl), Effective: fixed})
//	for _, s := range report.Suggestions { fmt.Println(s) }
//
// For incremental consumption use Stream, which returns a Run whose
// Suggestions channel yields verdicts as batches finish.
//
// Backtesting has one composition. Evaluate, Stream and Repair all hand
// candidates to the same backtest.Pipeline, the one scheduler of shared-run
// batches: straight from the live search, from the same search drained
// first (PipelineBarrier), or from the caller's list (Evaluate). One batch
// callback streams the suggestions and one assembler ranks the Report.
// WithParallelism sets the pool width (1 is serial); WithPipelineMode picks
// the producer and the first-accepted early stop. The
// one-simulation-per-candidate run, backtest.Job.RunSequential, is the
// reference oracle the tests hold shared runs to.
package metarepair

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backtest"
	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Session wires a controller program to the provenance and repair
// machinery. A session is created once per program; its controller is
// attached to the live network so control-plane history is recorded, and
// its pipeline methods answer diagnostic queries over that history.
type Session struct {
	prog   *ndlog.Program
	engine *ndlog.Engine
	rec    *provenance.Recorder
	ctl    *sdn.NDlogController
	opts   options
}

// NewSession compiles the program, attaches a provenance recorder, and
// applies the session-default options. Invalid options (negative or zero
// worker and batch counts) are rejected here rather than silently
// corrected — see ValidateOptions.
func NewSession(prog *ndlog.Program, opts ...Option) (*Session, error) {
	o := defaultOptions().with(opts)
	if o.err != nil {
		return nil, o.err
	}
	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return nil, err
	}
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	return &Session{
		prog:   prog,
		engine: eng,
		rec:    rec,
		ctl:    sdn.NewNDlogController(eng),
		opts:   o,
	}, nil
}

// EngineStats snapshots the session engine's work counters (rule
// firings, derivations, index lookups, scans) accumulated by everything
// the session's controller has processed. Callers poll it to export
// ndlog_* gauges alongside the pipeline's own metrics.
func (s *Session) EngineStats() ndlog.EngineStats { return s.engine.Stats }

// Program returns the controller program under diagnosis.
func (s *Session) Program() *ndlog.Program { return s.prog }

// Controller returns the SDN controller backed by the session's engine;
// attach it to a Network so control-plane history is recorded.
func (s *Session) Controller() *sdn.NDlogController { return s.ctl }

// Recorder exposes the provenance recorder (historical tuples,
// derivations).
func (s *Session) Recorder() *provenance.Recorder { return s.rec }

// Explain returns the classic provenance explanation for a tuple (§2.2).
func (s *Session) Explain(t ndlog.Tuple) *provenance.Vertex {
	return s.rec.Explain(t)
}

// ExplainMissing returns the negative provenance explanation (§2.2).
func (s *Session) ExplainMissing(table string, filter []*ndlog.Value) *provenance.Vertex {
	return s.rec.ExplainMissing(s.prog, table, filter)
}

// Symptom describes the observed problem: either a missing tuple (Goal)
// or an unwanted existing tuple (Present).
type Symptom struct {
	Goal    metaprov.Goal
	Present *ndlog.Tuple
}

// String names the symptom for event logs.
func (sym Symptom) String() string {
	if sym.Present != nil {
		return "present " + sym.Present.String()
	}
	if sym.Goal.Table != "" {
		return "missing " + sym.Goal.String()
	}
	return "empty"
}

// Missing builds a missing-tuple symptom; nil entries are unconstrained.
func Missing(table string, args ...*ndlog.Value) Symptom {
	return Symptom{Goal: metaprov.PinnedGoal(table, args...)}
}

// Present builds an unwanted-tuple symptom.
func Present(t ndlog.Tuple) Symptom { return Symptom{Present: &t} }

// Pin is a helper to build pinned symptom arguments.
func Pin(v int64) *ndlog.Value {
	x := ndlog.Int(v)
	return &x
}

// Backtest describes the historical evidence a candidate set is evaluated
// against (§4.3): how to obtain the network, the controller state and
// recorded workload to replay, and the per-tag effectiveness check.
type Backtest struct {
	// BuildNet returns a network no other run touches (topology +
	// proactive state, no controller attached). It must be safe to call
	// concurrently: the backtest pipeline takes one network per in-flight
	// batch. Build the network once, Freeze it and pass its Fork method —
	// a fork costs O(switches + hosts) and shares the topology and the
	// installed tables; rebuilding per call works but pays for every
	// proactive entry again.
	BuildNet func() *sdn.Network
	// State are controller tuples inserted before traffic (policy tables).
	State []ndlog.Tuple
	// Source streams the recorded workload to replay: a trace.SliceSource
	// over an in-memory slice, or a tracestore view (a window of it to
	// replay a slice of history), in which case replay memory is
	// independent of trace length. Nil replays no traffic.
	Source trace.Source
	// Effective decides whether the symptom is fixed for a tag in the
	// replayed network.
	Effective func(net *sdn.Network, ctl *sdn.NDlogController, tag int) bool
}

// Exploration is the outcome of the candidate-generation stage.
type Exploration struct {
	Symptom     Symptom
	Explanation *provenance.Vertex
	// Candidates are the repairs carried into backtesting, in cost order.
	Candidates []metaprov.Candidate
	// Generated counts candidates before any filter or cap; Filtered and
	// Dropped account for every candidate not in Candidates.
	Generated int
	Filtered  int
	Dropped   int
	// Steps counts vertex expansions (the Figure 9 evaluation metric) and
	// Pruned the forks they did not build because the pruning verdict
	// found them unsatisfiable.
	Steps, Pruned int
	// Extracted counts the complete trees the search committed with a
	// valid repair; DuplicateSignatures of them repeated an earlier
	// candidate's changes and CappedStructures exceeded the per-structure
	// cap. The rest are the Generated candidates of a missing-tuple search.
	Extracted, DuplicateSignatures, CappedStructures int

	historyTime time.Duration
	solveTime   time.Duration
	genTime     time.Duration
}

// finish records the finished search's counters and stage times.
func (e *Exploration) finish(ex *metaprov.Explorer, th *timedHistory, start time.Time) {
	stats := ex.Stats()
	e.Steps, e.Pruned = stats.Steps, stats.Pruned
	e.Extracted, e.DuplicateSignatures, e.CappedStructures = stats.Extracted, stats.DuplicateSignatures, stats.CappedStructures
	e.historyTime = th.total()
	e.solveTime = stats.SolveTime
	e.genTime = time.Since(start)
}

// timedHistory wraps the recorder to attribute history-lookup time (the
// Figure 9a breakdown). The counter is atomic: under the streaming
// pipeline every explore worker queries history concurrently.
type timedHistory struct {
	rec         *provenance.Recorder
	elapsedNano atomic.Int64
}

func (h *timedHistory) TuplesOf(table string) []ndlog.Tuple {
	start := time.Now()
	out := h.rec.TuplesOf(table)
	h.elapsedNano.Add(int64(time.Since(start)))
	return out
}

func (h *timedHistory) total() time.Duration {
	return time.Duration(h.elapsedNano.Load())
}

// Explore runs the meta-provenance search for the symptom and returns the
// cost-ordered candidate set (§3.5) without backtesting it — the first
// pipeline stage, separated so experiments can measure or ablate it. It
// is the live search of Stream, drained.
func (s *Session) Explore(ctx context.Context, sym Symptom, extra ...Option) (*Exploration, error) {
	o := s.opts.with(extra)
	if o.err != nil {
		return nil, o.err
	}
	src, err := s.search(sym, o, newTracer(o))
	if err != nil {
		return nil, err
	}
	return drain(ctx, src)
}

// drain runs a live source to the end and returns its exploration with the
// candidate list filled in, for callers that need the whole list before
// backtesting.
func drain(ctx context.Context, src candidateSource) (*Exploration, error) {
	cands, wait := src.open(ctx)
	for c := range cands {
		src.expl.Candidates = append(src.expl.Candidates, c)
	}
	if err := wait(); err != nil {
		return nil, err
	}
	return src.expl, nil
}

// Evaluate backtests a candidate set against the historical evidence and
// returns a streaming Run: the already-materialized list is fed to the one
// backtest pipeline, which splits it into shared-run batches of at most the
// configured batch size (63) evaluated on WithParallelism workers; each
// batch's verdicts are delivered on the Run's Suggestions channel as it
// completes.
func (s *Session) Evaluate(ctx context.Context, cands []metaprov.Candidate, bt Backtest, extra ...Option) (*Run, error) {
	o := s.opts.with(extra)
	if o.err != nil {
		return nil, o.err
	}
	if bt.BuildNet == nil {
		return nil, errors.New("metarepair: Backtest.BuildNet is required")
	}
	o, flush := o.serialized()
	expl := &Exploration{Generated: len(cands)}
	expl.Candidates = o.applyFilter(cands, expl)
	tr := newTracer(o)
	return s.backtest(ctx, bt, o, tr, tr.start(SpanRun, ""), flush, materialized(expl)), nil
}

// Stream runs the full explore→backtest pipeline and returns a streaming
// Run: per-suggestion verdicts arrive on the Run's channel and Wait
// returns the final ranked Report.
//
// There is one composition; the pipeline mode only picks the candidate
// producer. Under PipelineStreaming (the default) and
// PipelineFirstAccepted the concurrent forest search (WithExploreWorkers)
// streams candidates straight into shared-run batches that launch while
// exploration is still producing, and Stream returns immediately;
// exploration errors then surface at Wait. Under PipelineBarrier — or with
// the WithMaxCandidates cap disabled, since the live producer needs a
// finite cap to size the suggestion buffer — Stream drains the same search
// first, returns any exploration error directly, and feeds the
// materialized list to the same pipeline, exactly as Evaluate does.
func (s *Session) Stream(ctx context.Context, sym Symptom, bt Backtest, extra ...Option) (*Run, error) {
	o := s.opts.with(extra)
	if o.err != nil {
		return nil, o.err
	}
	if bt.BuildNet == nil {
		return nil, errors.New("metarepair: Backtest.BuildNet is required")
	}
	o, flush := o.serialized()
	tr := newTracer(o)
	src, err := s.search(sym, o, tr)
	if err != nil {
		flush()
		return nil, err
	}
	endRun := tr.start(SpanRun, "")
	if o.pipeline != PipelineBarrier && o.maxCandidates > 0 {
		return s.backtest(ctx, bt, o, tr, endRun, flush, src), nil
	}
	expl, err := drain(ctx, src)
	if err != nil {
		flush()
		return nil, err
	}
	return s.backtest(ctx, bt, o, tr, endRun, flush, materialized(expl)), nil
}

// Repair is the blocking convenience wrapper: Stream plus Wait.
func (s *Session) Repair(ctx context.Context, sym Symptom, bt Backtest, extra ...Option) (*Report, error) {
	run, err := s.Stream(ctx, sym, bt, extra...)
	if err != nil {
		return nil, err
	}
	return run.Wait()
}

// serialized routes the run's events through a fan-out with one attached
// (unbounded) drainer: the candidate feeder, the batch workers, and the
// assembly goroutine emit concurrently, and the fan-out serializes them
// without ever blocking the pipeline. flush delivers the backlog; it must
// run before the Run completes.
func (o options) serialized() (_ options, flush func()) {
	if o.sink == nil {
		return o, func() {}
	}
	fan := NewFanoutSink()
	fan.Attach(o.sink, 0)
	o.sink = fan
	return o, fan.Close
}

// candidateSource is where one run's candidates come from: the live
// meta-provenance search, or a list materialized before backtesting began.
type candidateSource struct {
	// expl is the exploration's accounting. A live source fills it in
	// while it feeds; it is complete once open's wait has returned.
	expl *Exploration
	// capacity bounds how many candidates the source can yield; it sizes
	// the suggestion buffer so backtest workers never block behind a slow
	// (or absent) consumer.
	capacity int
	// materialized reports that capacity is the exact candidate count.
	materialized bool
	// open starts the source. Cancelling ctx (first-accepted early stop, a
	// failed batch) tells a live search to stop; wait returns once the
	// channel is closed, with the search's error.
	open func(ctx context.Context) (cands <-chan metaprov.Candidate, wait func() error)
}

// materialized feeds an already-explored candidate list: a pre-filled,
// closed channel.
func materialized(expl *Exploration) candidateSource {
	return candidateSource{expl: expl, capacity: len(expl.Candidates), materialized: true,
		open: func(context.Context) (<-chan metaprov.Candidate, func() error) {
			ch := make(chan metaprov.Candidate, len(expl.Candidates))
			for _, c := range expl.Candidates {
				ch <- c
			}
			close(ch)
			return ch, func() error { return nil }
		}}
}

// search is the one candidate producer: the concurrent forest search
// forwards its cost-ordered candidate stream as it explores, applying the
// candidate filter and cap. Explore and the materializing Stream modes
// drain it first. An empty symptom is an error.
func (s *Session) search(sym Symptom, o options, tr *tracer) (candidateSource, error) {
	if sym.Present == nil && sym.Goal.Table == "" {
		return candidateSource{}, errors.New("metarepair: empty symptom")
	}
	// The candidate count is unknown up front but bounded by the cap
	// (Stream materializes cap-disabled runs instead).
	expl := &Exploration{Symptom: sym}
	open := func(ectx context.Context) (<-chan metaprov.Candidate, func() error) {
		start := time.Now()
		th := &timedHistory{rec: s.rec}
		ex := metaprov.NewExplorer(meta.NewModel(s.prog), th)
		o.budget.apply(ex)
		ex.Workers = o.exploreWorkers
		workers := ex.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		o.emit(Event{Kind: "explore.start", Symptom: sym.String(), Workers: workers})
		endExplore := tr.start(SpanExplore, SpanRun)

		pipe := make(chan metaprov.Candidate)
		feedErr := make(chan error, 1)
		go func() {
			defer close(pipe)
			var err error
			emitIdx := 0
			send := func(c metaprov.Candidate) bool {
				o.emit(Event{Kind: "explore.candidate", Index: emitIdx, Desc: c.Describe(), Cost: c.Cost})
				emitIdx++
				select {
				case pipe <- c:
					return true
				case <-ectx.Done():
					return false
				}
			}
			if sym.Present != nil {
				// Positive symptom: the full cost-ordered list is generated,
				// then filtered and capped, and streamed from there.
				expl.Explanation = s.rec.Explain(*sym.Present)
				var cands []metaprov.Candidate
				cands, err = ex.RepairPositiveContext(ectx, *sym.Present, s.rec)
				expl.Generated = len(cands)
				for _, c := range o.filterAndCap(cands, expl) {
					if !send(c) {
						break
					}
				}
			} else {
				expl.Explanation = s.rec.ExplainMissing(s.prog, sym.Goal.Table, nil)
				// The cap bounds the cost-ordered stream itself: stopping at N
				// keeps the N cheapest, so nothing is dropped after the fact.
				ex.MaxCandidates = o.maxCandidates
				stream, errc := ex.ExploreStream(ectx, sym.Goal)
				for c := range stream {
					expl.Generated++
					if o.filter != nil && !o.filter(c) {
						expl.Filtered++
						continue
					}
					if !send(c) {
						break
					}
				}
				for range stream {
					// Drain after an early stop so the search's emitter exits.
				}
				err = <-errc
				if expl.Filtered > 0 {
					o.emit(Event{Kind: "candidates.filtered", Filtered: expl.Filtered})
				}
			}
			expl.finish(ex, th, start)
			endExplore()
			o.emit(Event{Kind: "explore.done",
				Candidates: expl.Generated - expl.Filtered - expl.Dropped,
				Steps:      expl.Steps, Elapsed: ms(expl.genTime)})
			feedErr <- err
		}()
		return pipe, func() error { return <-feedErr }
	}
	return candidateSource{expl: expl, capacity: o.maxCandidates, open: open}, nil
}

// backtest starts the one backtesting composition in the background and
// returns its Run handle: src's candidates flow through a
// backtest.Pipeline, every finished batch is streamed to the Run, and the
// Report is assembled when the pipeline drains. tr carries any spans
// already recorded; endRun closes the run span once the report is
// assembled, and flush (see serialized) runs last. Every error surfaces at
// Run.Wait.
func (s *Session) backtest(ctx context.Context, bt Backtest, o options, tr *tracer, endRun, flush func(), src candidateSource) *Run {
	run := newRun(src.capacity)
	go func() {
		defer close(run.done)
		defer run.finish()
		defer flush()
		run.report, run.err = s.runPipeline(ctx, bt, o, tr, endRun, src, run)
	}()
	return run
}

func (s *Session) runPipeline(ctx context.Context, bt Backtest, o options, tr *tracer, endRun func(), src candidateSource, run *Run) (*Report, error) {
	start := time.Now()
	pctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	// ectx governs the candidate source alone: FirstAccepted cancels it
	// (through Pipeline.CancelSearch) without touching in-flight batches.
	ectx, cancelExplore := context.WithCancel(pctx)
	defer cancelExplore()
	cands, waitSource := src.open(ectx)

	mode := o.pipeline
	if src.materialized && mode == PipelineStreaming {
		mode = PipelineBarrier
	}
	started := Event{Kind: "backtest.start", Parallelism: o.parallelism, Strategy: mode.String()}
	if src.materialized {
		started.Candidates = src.capacity
		started.Batches = (src.capacity + o.batchSize - 1) / o.batchSize
	}
	o.emit(started)

	// OnBatch calls are serialized by the pipeline, so plain accumulation
	// of the suggestions and the per-shared-run engine counters is safe.
	var engStats ndlog.EngineStats
	var suggestions []Suggestion
	onBatch := func(b backtest.Batch) {
		engStats.Add(b.Stats)
		tr.add(Span{Name: SpanBatch, Parent: SpanBacktest, Index: b.Index,
			Start: b.Began, End: b.Ended})
		o.emit(Event{Kind: "batch.done", Batch: b.Index, Size: len(b.Results),
			Elapsed: ms(time.Since(start))})
		for i, res := range b.Results {
			sg := Suggestion{Rank: b.Start + i + 1, Index: b.Start + i, Batch: b.Index,
				Candidate: res.Candidate, Result: res}
			suggestions = append(suggestions, sg)
			run.push(sg)
			o.emit(Event{Kind: "suggestion", Index: sg.Index, Desc: res.Candidate.Describe(),
				Accepted: res.Accepted, KS: res.KS})
		}
	}
	pl := &backtest.Pipeline{
		Job:           s.backtestJob(bt, o),
		BatchSize:     o.batchSize, // WithBatchSize keeps it within 1..63
		Parallelism:   o.parallelism,
		FirstAccepted: o.pipeline == PipelineFirstAccepted,
		CancelSearch:  cancelExplore,
		OnBatch:       onBatch,
	}
	pr, plErr := pl.Run(pctx, cands)
	backtestEnd := time.Now()
	serr := waitSource()
	if plErr != nil {
		return nil, plErr
	}
	if serr != nil && !pr.EarlyStopped {
		// The search can only fail by cancellation; without an early stop
		// that cancellation came from the caller.
		return nil, serr
	}

	// The backtest window is known only in retrospect (under a live source
	// the first batch launches while exploration is still producing), so
	// its span is recorded after the fact with the measured bounds; overlap
	// is how long it ran concurrently with exploration.
	var overlap, replay time.Duration
	if !pr.FirstBatchStart.IsZero() {
		tr.add(Span{Name: SpanBacktest, Parent: SpanRun, Start: pr.FirstBatchStart, End: backtestEnd})
		// Attribute the window to the evaluation mode: the delta child span
		// covers the same bounds as its parent, so mode-aware consumers can
		// split time without reshaping existing aggregations.
		if o.eval == EvalDelta {
			tr.add(Span{Name: SpanBacktestDelta, Parent: SpanBacktest,
				Start: pr.FirstBatchStart, End: backtestEnd})
		}
		replay = backtestEnd.Sub(pr.FirstBatchStart)
		if es, ok := tr.find(SpanExplore); ok && es.End.After(pr.FirstBatchStart) {
			overlap = es.End.Sub(pr.FirstBatchStart)
			o.emit(Event{Kind: "pipeline.overlap", Elapsed: ms(overlap)})
		}
	}
	if pr.EarlyStopped {
		for i, ok := range pr.Evaluated {
			if ok && pr.Results[i].Accepted {
				o.emit(Event{Kind: "pipeline.stop", Index: i})
				break
			}
		}
	}

	// Solve and history times are summed across concurrent workers, so
	// they can exceed the exploration's wall clock; the patch-generation
	// residual is clamped rather than reported negative.
	expl := src.expl
	patchGen := max(expl.genTime-expl.historyTime-expl.solveTime, 0)
	endVerdict := tr.start(SpanVerdict, SpanRun)
	rep := &Report{
		Explanation:  expl.Explanation,
		Suggestions:  suggestions,
		Results:      pr.Results,
		Candidates:   pr.Candidates,
		Generated:    expl.Generated,
		Filtered:     expl.Filtered,
		Dropped:      expl.Dropped,
		Batches:      pr.Batches,
		Steps:        expl.Steps,
		Pruned:       expl.Pruned,
		EarlyStopped: pr.EarlyStopped,
		Evaluated:    len(suggestions),
		evaluated:    pr.Evaluated,
		Engine:       engStats,
		Timing: Timing{
			HistoryLookups:    expl.historyTime,
			ConstraintSolving: expl.solveTime,
			PatchGeneration:   patchGen,
			Replay:            replay,
			Overlap:           overlap,
		},
	}
	rep.Extracted, rep.DuplicateSignatures, rep.CappedStructures = expl.Extracted, expl.DuplicateSignatures, expl.CappedStructures
	rep.rank()
	endVerdict()
	endRun()
	rep.Spans = tr.snapshot()
	o.emit(Event{Kind: "report", Candidates: len(pr.Candidates), Passed: rep.Accepted,
		Elapsed: ms(time.Since(start))})
	return rep, nil
}

// backtestJob assembles the backtesting template of one run.
func (s *Session) backtestJob(bt Backtest, o options) *backtest.Job {
	return &backtest.Job{
		Prog:              s.prog,
		BuildNet:          bt.BuildNet,
		State:             bt.State,
		Source:            workloadSource(bt, o),
		Effective:         bt.Effective,
		MaxPacketInFactor: o.maxPacketInFactor,
		SkipCoalesce:      !o.coalesce,
		Eval:              o.eval,
	}
}

// applyFilter drops the candidates WithCandidateFilter rejects, recording
// the count on expl and emitting the candidates.filtered event.
func (o options) applyFilter(cands []metaprov.Candidate, expl *Exploration) []metaprov.Candidate {
	if o.filter == nil {
		return cands
	}
	kept := make([]metaprov.Candidate, 0, len(cands))
	for _, c := range cands {
		if o.filter(c) {
			kept = append(kept, c)
		}
	}
	expl.Filtered = len(cands) - len(kept)
	if expl.Filtered > 0 {
		o.emit(Event{Kind: "candidates.filtered", Filtered: expl.Filtered})
	}
	return kept
}

// filterAndCap applies the candidate filter and the candidate cap to a
// materialized cost-ordered list, recording the Filtered/Dropped
// accounting on expl and emitting the corresponding events. The cap keeps
// the cheapest — most plausible — repairs, and the drop is reported,
// never silent. The search's positive-symptom branch uses it; a
// missing-tuple search stops at the cap instead.
func (o options) filterAndCap(cands []metaprov.Candidate, expl *Exploration) []metaprov.Candidate {
	cands = o.applyFilter(cands, expl)
	if o.maxCandidates > 0 && len(cands) > o.maxCandidates {
		expl.Dropped = len(cands) - o.maxCandidates
		cands = cands[:o.maxCandidates]
		o.emit(Event{Kind: "candidates.dropped", Dropped: expl.Dropped})
	}
	return cands
}

// workloadSource returns the backtest's workload stream, emitting
// replay.open when it is a trace-store view: Entries/Bytes/Segments
// describe the whole log being drawn from, From/To the window actually
// replayed.
func workloadSource(bt Backtest, o options) trace.Source {
	if v, ok := bt.Source.(*tracestore.View); ok {
		stats := v.Store().Stats()
		from, to := v.Bounds()
		o.emit(Event{Kind: "replay.open", Dir: v.Store().Dir(),
			Entries: stats.Entries, Bytes: stats.Bytes, Segments: stats.Segments,
			From: from, To: to})
	}
	return bt.Source
}

// ms converts a duration to fractional milliseconds for event logs.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
