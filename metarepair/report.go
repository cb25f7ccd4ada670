package metarepair

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/backtest"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// Timing is the Figure 9a turnaround breakdown.
type Timing struct {
	HistoryLookups    time.Duration
	ConstraintSolving time.Duration
	PatchGeneration   time.Duration
	Replay            time.Duration
	// Overlap is how long exploration and backtest replay ran
	// concurrently under the streaming pipeline (zero when the candidates
	// were materialized first). It is informational — the overlapped time
	// is already inside the other components, so Total does not add it;
	// wall-clock turnaround is roughly Total() minus Overlap.
	Overlap time.Duration
}

// Total sums the phase components (Overlap excluded; it measures their
// concurrency, not extra work).
func (t Timing) Total() time.Duration {
	return t.HistoryLookups + t.ConstraintSolving + t.PatchGeneration + t.Replay
}

// Suggestion is one ranked repair.
type Suggestion struct {
	// Rank is the §5.3 presentation position (1-based); on streamed
	// suggestions it is the candidate's cost-order position until the
	// final Report re-ranks accepted-first.
	Rank int
	// Index is the candidate's position in the cost-ordered candidate
	// list; Batch is the shared-run batch that evaluated it.
	Index int
	Batch int
	// Candidate is the repair; Result its backtesting verdict.
	Candidate metaprov.Candidate
	Result    backtest.Result
}

// String renders the suggestion as the debugger presents it.
func (s Suggestion) String() string {
	mark := "rejected"
	if s.Result.Accepted {
		mark = "accepted"
	}
	return fmt.Sprintf("#%d [%s, cost %.1f, KS %.5f] %s",
		s.Rank, mark, s.Candidate.Cost, s.Result.KS, s.Candidate.Describe())
}

// Report is the outcome of one repair pipeline run.
type Report struct {
	// Explanation is the provenance tree for the symptom (positive
	// provenance for Present symptoms; the candidate meta-provenance
	// trees cover missing symptoms).
	Explanation *provenance.Vertex
	// Suggestions are all backtested candidates, accepted first, then by
	// complexity (cost) — the §5.3 presentation order.
	Suggestions []Suggestion
	// Results are the same verdicts in candidate (cost) order — the
	// Table 2 / Table 6 row order.
	Results []backtest.Result
	// Candidates are the evaluated repairs in cost order.
	Candidates []metaprov.Candidate
	// Accepted counts suggestions that passed backtesting.
	Accepted int
	// Generated counts candidates produced by exploration, before any
	// filter or cap.
	Generated int
	// Filtered counts candidates removed by WithCandidateFilter.
	Filtered int
	// Dropped counts candidates discarded by the WithMaxCandidates cap —
	// always reported, never silent.
	Dropped int
	// Batches is how many shared runs evaluated the candidate set; Steps
	// counts explorer vertex expansions and Pruned the forks they did not
	// build because the pruning verdict found them unsatisfiable.
	Batches int
	Steps   int
	Pruned  int
	// Extracted, DuplicateSignatures and CappedStructures are the search's
	// commit-loop counts (see Exploration): how many repairs the explorer
	// extracted to emit the Generated ones.
	Extracted, DuplicateSignatures, CappedStructures int
	// EarlyStopped reports that PipelineFirstAccepted cut the run short:
	// the search and the unstarted batches were cancelled once a repair
	// passed. Evaluated counts candidates that actually have verdicts;
	// under early stop it can be smaller than len(Candidates), and the
	// unevaluated Results entries carry a zero verdict — IsEvaluated
	// distinguishes them.
	EarlyStopped bool
	Evaluated    int
	evaluated    []bool
	// Engine aggregates the NDlog engine counters across every shared
	// backtest run of this report — in particular GroupJoins, the shared
	// joins of delta evaluation that ndlog_delta_group_joins_total exports.
	// Sequential (per-candidate) runs do not contribute.
	Engine ndlog.EngineStats
	// Timing is the Figure 9a turnaround breakdown (exploration plus
	// backtest replay; the caller's diagnostic replay is not included).
	Timing Timing
	// Spans are the run's hierarchical wall-clock spans (run ⊃ explore /
	// backtest ⊃ batch / verdict) in completion order — the raw material
	// the Timing breakdown and the session_span metrics are derived from.
	Spans []Span
}

// IsEvaluated reports whether candidate i was actually backtested. Only a
// PipelineFirstAccepted early stop leaves candidates unevaluated.
func (r *Report) IsEvaluated(i int) bool {
	if r.evaluated == nil {
		return i >= 0 && i < len(r.Results)
	}
	return i >= 0 && i < len(r.evaluated) && r.evaluated[i]
}

// Render pretty-prints a report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d suggestion(s), %d accepted", len(r.Suggestions), r.Accepted)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped by candidate budget)", r.Dropped)
	}
	if r.Filtered > 0 {
		fmt.Fprintf(&b, " (%d filtered)", r.Filtered)
	}
	if r.EarlyStopped {
		fmt.Fprintf(&b, " (stopped at first accepted repair, %d of %d evaluated)",
			r.Evaluated, len(r.Candidates))
	}
	b.WriteByte('\n')
	for _, s := range r.Suggestions {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// rank sorts suggestions accepted-first then by cost — "the simplest
// candidate is shown first" (§5.3) — and renumbers them. Ties keep
// candidate order, whatever order the batches finished in.
func (r *Report) rank() {
	sort.Slice(r.Suggestions, func(i, j int) bool {
		si, sj := r.Suggestions[i], r.Suggestions[j]
		if si.Result.Accepted != sj.Result.Accepted {
			return si.Result.Accepted
		}
		if si.Candidate.Cost != sj.Candidate.Cost {
			return si.Candidate.Cost < sj.Candidate.Cost
		}
		return si.Index < sj.Index
	})
	r.Accepted = 0
	for i := range r.Suggestions {
		r.Suggestions[i].Rank = i + 1
		if r.Suggestions[i].Result.Accepted {
			r.Accepted++
		}
	}
}

// Run is a streaming repair evaluation in flight. Suggestions arrive on
// Suggestions() as each shared-run batch completes; Wait blocks until the
// pipeline finishes and returns the final ranked Report.
type Run struct {
	ch     chan Suggestion
	done   chan struct{}
	report *Report
	err    error
}

// newRun returns an in-flight evaluation handle whose suggestion channel
// is buffered for capacity verdicts. Every producer sizes the buffer for
// the largest set it can evaluate, so pushes never block, workers are
// never stalled by a slow consumer, and an abandoned Run leaks nothing —
// no goroutine stands behind the channel.
func newRun(capacity int) *Run {
	return &Run{
		ch:   make(chan Suggestion, capacity),
		done: make(chan struct{}),
	}
}

// push delivers one verdict to the suggestion stream.
func (r *Run) push(s Suggestion) { r.ch <- s }

// finish closes the suggestion stream.
func (r *Run) finish() { close(r.ch) }

// Suggestions returns the stream of per-candidate verdicts. The channel
// is buffered for the full candidate set (a slow consumer never stalls
// the workers) and closed once every batch has completed.
func (r *Run) Suggestions() <-chan Suggestion { return r.ch }

// Wait blocks until the evaluation finishes and returns the final report
// with the §5.3 accepted-then-cost ordering. It does not consume the
// suggestion stream; callers may read both.
func (r *Run) Wait() (*Report, error) {
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return r.report, nil
}
