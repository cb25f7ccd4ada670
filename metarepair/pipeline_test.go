package metarepair_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backtest"
	"repro/internal/obsv"
	"repro/metarepair"
	"repro/scenario"
)

// TestStreamingPipelineEvents: the streaming composition must emit the
// new per-candidate and overlap events alongside the classic envelope.
func TestStreamingPipelineEvents(t *testing.T) {
	var events []metarepair.Event
	sess, wl := runDiagnostic(t)
	report, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithBatchSize(2),
		metarepair.WithEventSink(metarepair.SinkFunc(func(e metarepair.Event) {
			events = append(events, e)
		})))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds["explore.candidate"] != len(report.Candidates) {
		t.Fatalf("explore.candidate events = %d, candidates = %d",
			kinds["explore.candidate"], len(report.Candidates))
	}
	for _, want := range []string{"explore.start", "explore.done", "backtest.start", "batch.done", "suggestion", "report"} {
		if kinds[want] == 0 {
			t.Errorf("no %q event; got %v", want, kinds)
		}
	}
	if report.EarlyStopped {
		t.Fatal("streaming mode must not early-stop without PipelineFirstAccepted")
	}
	if report.Evaluated != len(report.Candidates) {
		t.Fatalf("evaluated %d of %d without early stop", report.Evaluated, len(report.Candidates))
	}
}

// TestFirstAcceptedStopsPipeline: PipelineFirstAccepted must cancel the
// search and the unstarted batches once a repair passes — and tear every
// goroutine down (run under -race in CI).
func TestFirstAcceptedStopsPipeline(t *testing.T) {
	before := runtime.NumGoroutine()

	sess, wl := runDiagnostic(t, metarepair.WithMaxCandidates(24))
	var events []metarepair.Event
	run, err := sess.Stream(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithPipelineMode(metarepair.PipelineFirstAccepted),
		metarepair.WithBatchSize(1), metarepair.WithParallelism(1),
		metarepair.WithEventSink(metarepair.SinkFunc(func(e metarepair.Event) {
			events = append(events, e)
		})))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []metarepair.Suggestion
	for s := range run.Suggestions() {
		streamed = append(streamed, s)
	}
	report, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !report.EarlyStopped {
		t.Fatal("pipeline did not stop at the first accepted repair")
	}
	if report.Accepted == 0 {
		t.Fatal("early stop without an accepted suggestion")
	}
	if !report.Suggestions[0].Result.Accepted {
		t.Fatalf("top suggestion not accepted: %v", report.Suggestions[0])
	}
	if report.Evaluated != len(streamed) {
		t.Fatalf("report evaluated %d, streamed %d", report.Evaluated, len(streamed))
	}
	if report.Evaluated >= len(report.Candidates) && len(report.Candidates) >= 24 {
		t.Fatalf("early stop evaluated all %d candidates", report.Evaluated)
	}
	if !strings.Contains(report.Render(), "stopped at first accepted repair") {
		t.Fatal("Render must surface the early stop")
	}
	sawStop := false
	for _, e := range events {
		if e.Kind == "pipeline.stop" {
			sawStop = true
		}
	}
	if !sawStop {
		t.Fatal("no pipeline.stop event")
	}

	// No goroutine leaks: search workers, batch workers, and the feeder
	// must all exit after the early stop.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestExploreWorkersOptionEquivalence: any explore worker count produces
// the same report through the public session API.
func TestExploreWorkersOptionEquivalence(t *testing.T) {
	runWith := func(workers int) *metarepair.Report {
		t.Helper()
		sess, wl := runDiagnostic(t)
		rep, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
			metarepair.WithExploreWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one := runWith(1)
	four := runWith(4)
	if len(one.Results) != len(four.Results) {
		t.Fatalf("results differ: %d vs %d", len(one.Results), len(four.Results))
	}
	for i := range one.Results {
		a, b := one.Results[i], four.Results[i]
		if a.Candidate.Signature() != b.Candidate.Signature() || a.Accepted != b.Accepted {
			t.Fatalf("candidate %d differs: %s (accepted %v) vs %s (accepted %v)",
				i, a.Candidate.Describe(), a.Accepted, b.Candidate.Describe(), b.Accepted)
		}
	}
}

// sameVerdict compares everything a backtest decides about one candidate.
func sameVerdict(a, b backtest.Result) bool {
	return a.Candidate.Signature() == b.Candidate.Signature() &&
		a.Accepted == b.Accepted && a.Effective == b.Effective &&
		a.KS == b.KS && a.P == b.P && a.PacketInFactor == b.PacketInFactor && a.HopLimited == b.HopLimited
}

// TestOneCompositionAllProducers: Evaluate(slice), Stream under
// PipelineBarrier and the streaming producer all run through the same
// backtest pipeline and the same report assembler, so at any pool width
// they must agree on every verdict, the batch each candidate ran in, the
// batch and evaluated counts, the aggregated engine counters, the span
// hierarchy and the per-batch/per-suggestion events — and a first-accepted
// run, from either producer, must be a verdict-identical subset.
func TestOneCompositionAllProducers(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		report   *metarepair.Report
		streamed map[int]int // Suggestion.Index -> Batch, as streamed
		events   map[string]int
		spans    []string // "name<parent#index", sorted, explore excluded
		explored bool
	}
	run := func(t *testing.T, producer string, opts ...metarepair.Option) outcome {
		t.Helper()
		sink := &collectSink{}
		sess, wl := runDiagnostic(t)
		opts = append(opts, metarepair.WithBatchSize(2), metarepair.WithEventSink(sink))
		var r *metarepair.Run
		var err error
		if producer == "evaluate" {
			expl, xerr := sess.Explore(ctx, miniSymptom())
			if xerr != nil {
				t.Fatal(xerr)
			}
			r, err = sess.Evaluate(ctx, expl.Candidates, miniBacktest(wl), opts...)
		} else {
			r, err = sess.Stream(ctx, miniSymptom(), miniBacktest(wl), opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{streamed: make(map[int]int), events: make(map[string]int)}
		for sg := range r.Suggestions() {
			if _, dup := out.streamed[sg.Index]; dup {
				t.Fatalf("candidate %d streamed twice", sg.Index)
			}
			out.streamed[sg.Index] = sg.Batch
		}
		if out.report, err = r.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, e := range sink.snapshot() {
			out.events[e.Kind]++
		}
		for _, sp := range out.report.Spans {
			if sp.Name == metarepair.SpanExplore {
				out.explored = true
				continue
			}
			out.spans = append(out.spans, fmt.Sprintf("%s<%s#%d", sp.Name, sp.Parent, sp.Index))
		}
		slices.Sort(out.spans)
		return out
	}

	ref := run(t, "barrier", metarepair.WithPipelineMode(metarepair.PipelineBarrier), metarepair.WithParallelism(1))
	if ref.report.Batches < 3 || ref.report.Accepted == 0 {
		t.Fatalf("reference run too small to be telling: %d batches, %d accepted", ref.report.Batches, ref.report.Accepted)
	}
	if n := ref.events["explore.candidate"]; n != len(ref.report.Candidates) {
		t.Fatalf("the drained search announced %d candidates, the report has %d", n, len(ref.report.Candidates))
	}
	for _, tc := range []struct {
		producer string
		mode     metarepair.PipelineMode
	}{
		{"evaluate", metarepair.PipelineStreaming},
		{"barrier", metarepair.PipelineBarrier},
		{"streaming", metarepair.PipelineStreaming},
	} {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", tc.producer, width), func(t *testing.T) {
				got := run(t, tc.producer, metarepair.WithPipelineMode(tc.mode), metarepair.WithParallelism(width))
				rep, want := got.report, ref.report
				if len(rep.Results) != len(want.Results) {
					t.Fatalf("%d results, want %d", len(rep.Results), len(want.Results))
				}
				for i := range want.Results {
					if !sameVerdict(rep.Results[i], want.Results[i]) {
						t.Errorf("candidate %d: %+v, want %+v", i, rep.Results[i], want.Results[i])
					}
				}
				if rep.Batches != want.Batches || rep.Evaluated != want.Evaluated || rep.EarlyStopped {
					t.Errorf("batches %d evaluated %d early-stopped %v, want %d / %d / false",
						rep.Batches, rep.Evaluated, rep.EarlyStopped, want.Batches, want.Evaluated)
				}
				if rep.Engine != want.Engine {
					t.Errorf("engine counters %+v, want %+v", rep.Engine, want.Engine)
				}
				if len(got.streamed) != len(rep.Suggestions) {
					t.Errorf("%d suggestions streamed, %d in the report", len(got.streamed), len(rep.Suggestions))
				}
				for i, sg := range rep.Suggestions {
					if sg.Batch != sg.Index/2 || got.streamed[sg.Index] != sg.Batch {
						t.Errorf("candidate %d: report batch %d, streamed batch %d, want %d",
							sg.Index, sg.Batch, got.streamed[sg.Index], sg.Index/2)
					}
					if ws := want.Suggestions[i]; sg.Rank != ws.Rank || sg.Index != ws.Index {
						t.Errorf("rank %d is candidate %d, want candidate %d", sg.Rank, sg.Index, ws.Index)
					}
				}
				if !slices.Equal(got.spans, ref.spans) {
					t.Errorf("spans %v, want %v", got.spans, ref.spans)
				}
				if got.explored != (tc.producer != "evaluate") {
					t.Errorf("explore span present = %v under producer %s", got.explored, tc.producer)
				}
				kinds := []string{"backtest.start", "batch.done", "suggestion", "report"}
				if tc.producer != "evaluate" {
					// The one search, live or drained, announces the same candidates.
					kinds = append(kinds, "explore.start", "explore.candidate", "explore.done")
				}
				for _, kind := range kinds {
					if got.events[kind] != ref.events[kind] {
						t.Errorf("%d %s events, want %d", got.events[kind], kind, ref.events[kind])
					}
				}
			})
		}
	}

	// First-accepted is orthogonal to the producer: whatever it evaluated
	// before stopping carries the full run's verdicts.
	for _, producer := range []string{"evaluate", "streaming"} {
		t.Run("first-accepted/"+producer, func(t *testing.T) {
			got := run(t, producer, metarepair.WithPipelineMode(metarepair.PipelineFirstAccepted), metarepair.WithParallelism(1))
			rep := got.report
			if !rep.EarlyStopped || rep.Accepted == 0 || rep.Evaluated >= ref.report.Evaluated {
				t.Fatalf("early-stopped %v, accepted %d, evaluated %d of %d",
					rep.EarlyStopped, rep.Accepted, rep.Evaluated, ref.report.Evaluated)
			}
			if len(rep.Suggestions) != rep.Evaluated || len(got.streamed) != rep.Evaluated {
				t.Fatalf("evaluated %d, %d suggestions, %d streamed", rep.Evaluated, len(rep.Suggestions), len(got.streamed))
			}
			for i := range rep.Results {
				if rep.IsEvaluated(i) && !sameVerdict(rep.Results[i], ref.report.Results[i]) {
					t.Errorf("candidate %d: %+v, full run says %+v", i, rep.Results[i], ref.report.Results[i])
				}
			}
		})
	}
}

// TestStreamingPipelineMatchesBarrier runs the full repair pipeline both
// ways on Q1 and demands identical candidates and verdicts: the streaming
// composition changes wall-clock shape, never results.
func TestStreamingPipelineMatchesBarrier(t *testing.T) {
	ctx := context.Background()
	runMode := func(mode metarepair.PipelineMode) *metarepair.Report {
		t.Helper()
		s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
		sess, _, err := s.Diagnose()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Repair(ctx, s.Symptom(), s.Backtest(), metarepair.WithPipelineMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	barrier := runMode(metarepair.PipelineBarrier)
	stream := runMode(metarepair.PipelineStreaming)

	if len(stream.Candidates) != len(barrier.Candidates) {
		t.Fatalf("candidates: streaming %d, barrier %d", len(stream.Candidates), len(barrier.Candidates))
	}
	if len(stream.Results) != len(barrier.Results) {
		t.Fatalf("results: streaming %d, barrier %d", len(stream.Results), len(barrier.Results))
	}
	for i := range barrier.Results {
		bs, ss := barrier.Results[i], stream.Results[i]
		if bs.Candidate.Signature() != ss.Candidate.Signature() {
			t.Fatalf("candidate %d differs: %s vs %s", i, bs.Candidate.Describe(), ss.Candidate.Describe())
		}
		if bs.Accepted != ss.Accepted || bs.Effective != ss.Effective || bs.KS != ss.KS || bs.HopLimited != ss.HopLimited {
			t.Fatalf("candidate %d verdict differs: accepted %v/%v effective %v/%v KS %v/%v hop-limited %d/%d",
				i, bs.Accepted, ss.Accepted, bs.Effective, ss.Effective, bs.KS, ss.KS, bs.HopLimited, ss.HopLimited)
		}
	}
	if stream.Steps != barrier.Steps {
		t.Fatalf("steps: streaming %d, barrier %d", stream.Steps, barrier.Steps)
	}
	counts := func(r *metarepair.Report) [3]int {
		return [3]int{r.Extracted, r.DuplicateSignatures, r.CappedStructures}
	}
	if counts(stream) != counts(barrier) {
		t.Fatalf("extracted / duplicate / capped: streaming %v, barrier %v", counts(stream), counts(barrier))
	}
	if got := barrier.Extracted - barrier.DuplicateSignatures - barrier.CappedStructures; got != barrier.Generated {
		t.Fatalf("%d extracted - %d duplicates - %d capped = %d, but %d generated",
			barrier.Extracted, barrier.DuplicateSignatures, barrier.CappedStructures, got, barrier.Generated)
	}
	if stream.Batches != barrier.Batches {
		t.Fatalf("batches: streaming %d, barrier %d", stream.Batches, barrier.Batches)
	}
}

// TestSearchCountsPinned pins the exact counts of the repair search on the
// benchmark's cells: steps, emitted candidates, extracted repairs, how
// many of those were duplicate signatures or over the structure cap, and
// the forks the pruning verdicts removed. The
// stream-vs-sequential differential shares the expansion code and so
// cannot see a verdict change; these counts can — a change that moves
// them changed which repairs are found, not just how fast.
func TestSearchCountsPinned(t *testing.T) {
	wide := []metarepair.Option{
		metarepair.WithMaxCandidates(64),
		metarepair.WithBudget(metarepair.Budget{CostCutoff: 4.6, MaxPerStructure: 3}),
	}
	for _, c := range []struct {
		name  string
		flows int
		opts  []metarepair.Option
		want  [6]int // steps, candidates, extracted, duplicates, capped, pruned
	}{
		{"Q1/wide", 300, wide, [6]int{1417, 64, 354, 290, 0, 5985}},
		{"Q1", 600, nil, [6]int{752, 13, 72, 58, 1, 1785}},
		{"Q2", 600, nil, [6]int{285, 13, 58, 45, 0, 732}},
		{"Q3", 600, nil, [6]int{379, 13, 53, 40, 0, 1245}},
		{"Q4", 600, nil, [6]int{169, 3, 33, 30, 0, 32}},
		{"Q5", 600, nil, [6]int{19, 4, 25, 21, 0, 120}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := scenario.Default().Instantiate(c.name[:2], scenario.Scale{Switches: 19, Flows: c.flows})
			if err != nil {
				t.Fatal(err)
			}
			sess, _, err := s.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := sess.Explore(context.Background(), s.Symptom(), c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := [6]int{ex.Steps, ex.Generated, ex.Extracted, ex.DuplicateSignatures, ex.CappedStructures, ex.Pruned}
			if got != c.want {
				t.Fatalf("steps/candidates/extracted/duplicates/capped/pruned = %v, want %v", got, c.want)
			}
		})
	}
}

// TestSearchMetricsRecordReportCounts: metaprov_search_total{outcome}
// carries finished runs' exact search counts, summed over the runs
// recorded.
func TestSearchMetricsRecordReportCounts(t *testing.T) {
	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	sess, _, err := s.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Repair(context.Background(), s.Symptom(), s.Backtest(),
		metarepair.WithPipelineMode(metarepair.PipelineBarrier))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps == 0 || rep.Pruned == 0 || rep.Extracted == 0 {
		t.Fatalf("search did nothing to count: %d steps, %d pruned, %d extracted", rep.Steps, rep.Pruned, rep.Extracted)
	}
	reg := obsv.NewRegistry()
	m := metarepair.NewSearchMetrics(reg)
	m.Record(rep)
	m.Record(rep)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ := sc.Types["metaprov_search_total"]; typ != "counter" {
		t.Fatalf("metaprov_search_total: TYPE %q, want counter", typ)
	}
	for outcome, n := range map[string]int{
		"steps": rep.Steps, "pruned": rep.Pruned, "extracted": rep.Extracted,
		"duplicate": rep.DuplicateSignatures, "capped": rep.CappedStructures,
	} {
		if got, ok := sc.Value("metaprov_search_total", map[string]string{"outcome": outcome}); !ok || got != float64(2*n) {
			t.Errorf("metaprov_search_total{outcome=%s} = %v (present %v), want %d", outcome, got, ok, 2*n)
		}
	}
}
