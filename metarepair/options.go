package metarepair

import (
	"fmt"

	"repro/internal/backtest"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
)

// EvalMode selects how shared-run backtests evaluate the NDlog program:
// the engine's own mode type, re-exported so callers need not import it.
type EvalMode = ndlog.EvalMode

const (
	// EvalDelta (the default) runs shared backtests on the engine's
	// grouped delta evaluation: verdict-identical to EvalFull, several
	// times faster at high candidate counts. The replay network is the
	// same in both modes.
	EvalDelta = ndlog.EvalDelta
	// EvalFull fires every trigger plan independently — the reference
	// path the differential tests treat as the oracle, kept selectable
	// for ablations and cross-checking.
	EvalFull = ndlog.EvalFull
)

// ParseEvalMode resolves a flag value ("full" or "delta").
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "delta", "":
		return EvalDelta, nil
	case "full":
		return EvalFull, nil
	}
	return EvalDelta, fmt.Errorf("metarepair: unknown eval mode %q (want full or delta)", s)
}

// PipelineMode selects how Stream's backtest pipeline takes the live
// search's candidates — as they are found, or drained into a list first —
// and whether the first accepted repair stops it.
type PipelineMode int

const (
	// PipelineStreaming (the default) runs the concurrent forest search
	// and fills shared-run batches straight from its candidate stream:
	// backtesting starts while exploration is still producing, and the
	// two phases overlap (reported as Timing.Overlap and the
	// pipeline.overlap event). Candidate order, batch composition, and
	// every verdict are identical to PipelineBarrier.
	PipelineStreaming PipelineMode = iota
	// PipelineBarrier drains the search into the full candidate list
	// before the first batch launches — the same pipeline fed from a
	// closed channel, kept for ablation experiments and phase-isolating
	// benchmarks.
	PipelineBarrier
	// PipelineFirstAccepted is PipelineStreaming plus early stop: the
	// first accepted repair cancels the search and the unstarted batches,
	// and the Report covers the verdicts computed up to that point
	// (Report.EarlyStopped).
	//
	// "First" is first to finish, not first in cost order: when accepted
	// candidates sit in different batches and the batches run concurrently,
	// whichever batch finishes first wins, so two runs of the same job can
	// return different repairs. Q1 at batch size 8 is the known case: its
	// two accepted repairs are candidates 0 and 11 of 13, and about 1 job
	// in 50 returns the manual insertion instead of the intuitive fix.
	// Use PipelineStreaming or PipelineBarrier for a deterministic report.
	PipelineFirstAccepted
)

// String names the pipeline mode for flags and event logs.
func (m PipelineMode) String() string {
	switch m {
	case PipelineBarrier:
		return "barrier"
	case PipelineFirstAccepted:
		return "first-accepted"
	default:
		return "streaming"
	}
}

// ParsePipelineMode resolves a flag or request value ("streaming",
// "barrier" or "first-accepted"; empty means the default).
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "streaming", "":
		return PipelineStreaming, nil
	case "barrier":
		return PipelineBarrier, nil
	case "first-accepted":
		return PipelineFirstAccepted, nil
	}
	return PipelineStreaming, fmt.Errorf("metarepair: unknown pipeline mode %q (want streaming, barrier or first-accepted)", s)
}

// Budget bounds the meta-provenance search (§3.5). Zero-valued fields
// keep the explorer's paper-motivated defaults.
type Budget struct {
	// MaxDepth bounds recursive goal expansion (default 3).
	MaxDepth int
	// MaxSteps bounds total vertex expansions (default 60000).
	MaxSteps int
	// CostCutoff bounds total change cost (default cost.DefaultCutoff).
	CostCutoff float64
	// MaxHistTuples bounds historical tuples cited per predicate
	// (default 16).
	MaxHistTuples int
	// MaxPerStructure caps candidates sharing a change structure
	// (default 3).
	MaxPerStructure int
}

func (b Budget) apply(ex *metaprov.Explorer) {
	if b.MaxDepth > 0 {
		ex.MaxDepth = b.MaxDepth
	}
	if b.MaxSteps > 0 {
		ex.MaxSteps = b.MaxSteps
	}
	if b.CostCutoff > 0 {
		ex.Cutoff = b.CostCutoff
	}
	if b.MaxHistTuples > 0 {
		ex.MaxHistTuples = b.MaxHistTuples
	}
	if b.MaxPerStructure > 0 {
		ex.MaxPerStructure = b.MaxPerStructure
	}
}

// options is the resolved configuration for a session or one call.
type options struct {
	// err records the first invalid option; NewSession and the pipeline
	// entry points reject the whole call instead of silently correcting.
	err               error
	maxCandidates     int
	budget            Budget
	coalesce          bool
	parallelism       int
	batchSize         int
	pipeline          PipelineMode
	eval              EvalMode
	exploreWorkers    int
	sink              EventSink
	filter            func(metaprov.Candidate) bool
	maxPacketInFactor float64
}

func defaultOptions() options {
	return options{
		maxCandidates: 64,
		coalesce:      true,
		batchSize:     backtest.MaxSharedCandidates,
		pipeline:      PipelineStreaming,
		eval:          EvalDelta,
	}
}

func (o options) with(opts []Option) options {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// fail records the first invalid option; later valid options still apply
// so the eventual error message is deterministic regardless of order.
func (o *options) fail(opt string, got int, want string) {
	if o.err == nil {
		o.err = fmt.Errorf("metarepair: %s(%d): %s", opt, got, want)
	}
}

// ValidateOptions resolves opts against the defaults and returns the
// first configuration error, or nil. Servers use it to reject a bad
// request at intake instead of failing the job later.
func ValidateOptions(opts ...Option) error {
	return defaultOptions().with(opts).err
}

// Option configures a Session or a single pipeline call. Options passed
// to NewSession become the session defaults; options passed to Explore,
// Evaluate, Stream, or Repair override them for that call only.
type Option func(*options)

// WithMaxCandidates caps how many repair candidates are carried into
// backtesting (default 64). For missing-tuple symptoms this bounds the
// forest search itself; for positive symptoms the full cost-ordered list
// is generated and the surplus is dropped *visibly* — reported in
// Report.Dropped and emitted as a "candidates.dropped" event — never
// silently truncated. Zero or negative removes the cap; an uncapped
// session always materializes its candidates first (see WithPipelineMode).
func WithMaxCandidates(n int) Option { return func(o *options) { o.maxCandidates = n } }

// WithBudget bounds the meta-provenance search; zero-valued fields keep
// the defaults.
func WithBudget(b Budget) Option { return func(o *options) { o.budget = b } }

// WithCoalesce toggles the §4.4 static-analysis optimization that merges
// syntactically identical candidate rule copies in shared runs (default
// true).
func WithCoalesce(on bool) Option { return func(o *options) { o.coalesce = on } }

// WithParallelism sets the backtest pipeline's worker-pool width — how many
// shared-run batches replay at once (default runtime.GOMAXPROCS(0); 1 runs
// the batches one after another). Zero or negative counts are a
// configuration error — omit the option to get the default.
func WithParallelism(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.fail("WithParallelism", n, "worker count must be at least 1")
			return
		}
		o.parallelism = n
	}
}

// WithBatchSize sets the per-shared-run candidate count (default and
// maximum 63 — one shared run's tag space). Counts outside [1, 63] are
// a configuration error — omit the option to get the default.
func WithBatchSize(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.fail("WithBatchSize", n, "batch size must be at least 1")
			return
		}
		if n > backtest.MaxSharedCandidates {
			o.fail("WithBatchSize", n, fmt.Sprintf("batch size exceeds one shared run's %d-tag space", backtest.MaxSharedCandidates))
			return
		}
		o.batchSize = n
	}
}

// WithEvalMode selects the shared-run evaluation mode (default EvalDelta).
// Both modes produce identical verdicts; EvalFull is the reference path
// for differential runs and ablations.
func WithEvalMode(m EvalMode) Option { return func(o *options) { o.eval = m } }

// WithPipelineMode selects how Stream and Repair feed the live search to
// the backtest pipeline (default PipelineStreaming: as it explores).
// PipelineBarrier drains the search first and feeds the materialized list; PipelineFirstAccepted
// stops the whole pipeline at the first accepted repair, whichever the
// producer — the first accepted repair to finish, which is racy when
// accepted candidates land in different batches (see
// PipelineFirstAccepted). The live producer needs a finite
// WithMaxCandidates cap (it sizes the suggestion buffer); with the cap
// disabled, runs materialize their candidates regardless.
func WithPipelineMode(m PipelineMode) Option { return func(o *options) { o.pipeline = m } }

// WithExploreWorkers sizes the concurrent forest search's worker pool for
// the streaming pipeline (default GOMAXPROCS). Any worker count yields
// the exact candidate sequence of the sequential search — the stream's
// cost-epoch emitter releases a candidate only when no cheaper partial
// tree remains anywhere. Zero or negative counts are a configuration
// error — omit the option to get the default.
func WithExploreWorkers(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.fail("WithExploreWorkers", n, "worker count must be at least 1")
			return
		}
		o.exploreWorkers = n
	}
}

// WithEventSink streams pipeline progress events (exploration, batch
// completion, suggestions) to the sink — see JSONLSink for a production
// implementation.
func WithEventSink(s EventSink) Option { return func(o *options) { o.sink = s } }

// WithCandidateFilter drops candidates the predicate rejects before
// backtesting (e.g. repairs inexpressible in a language front-end, the
// Table 3 experiment); the count is reported in Report.Filtered.
func WithCandidateFilter(keep func(metaprov.Candidate) bool) Option {
	return func(o *options) { o.filter = keep }
}

// WithMaxPacketInFactor rejects candidates whose controller PacketIn load
// exceeds this multiple of the baseline (the Q4 side-effect metric,
// Table 6(c)); zero disables the check.
func WithMaxPacketInFactor(f float64) Option { return func(o *options) { o.maxPacketInFactor = f } }
