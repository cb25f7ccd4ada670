package metarepair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/metarepair"
)

const miniProgram = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Sip < 64, Prt := 2.
r2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Sip >= 64, Prt := 3.
r5 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 1.
r7 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 2.
`

func miniNet() *sdn.Network {
	n := sdn.NewNetwork()
	s1, s2, s3 := sdn.NewSwitch("s1", 1), sdn.NewSwitch("s2", 2), sdn.NewSwitch("s3", 3)
	n.AddSwitch(s1)
	n.AddSwitch(s2)
	n.AddSwitch(s3)
	s1.Wire(2, "s2")
	s2.Wire(3, "s1")
	s1.Wire(3, "s3")
	s3.Wire(3, "s1")
	n.AddHostAt(sdn.NewHost("h1", 201, "s2"), 1)
	n.AddHostAt(sdn.NewHost("h2", 202, "s3"), 2)
	for i := 1; i <= 64; i++ {
		n.AddHostAt(sdn.NewHost(fmt.Sprintf("c%02d", i), int64(i), "s1"), 10+i)
	}
	return n
}

func miniWorkload() []trace.Entry {
	var sources []trace.HostSpec
	for i := 1; i <= 64; i++ {
		sources = append(sources, trace.HostSpec{ID: fmt.Sprintf("c%02d", i), IP: int64(i)})
	}
	return trace.Generate(trace.Config{
		Seed:     7,
		Sources:  sources,
		Services: []trace.Service{{DstIP: 201, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 1}},
		Flows:    400,
	})
}

// runDiagnostic builds a session over the mini scenario and replays the
// buggy run so the recorder holds the diagnostic history. The candidate
// cap keeps test runtimes proportionate; callers may override it.
func runDiagnostic(t *testing.T, opts ...metarepair.Option) (*metarepair.Session, []trace.Entry) {
	t.Helper()
	opts = append([]metarepair.Option{metarepair.WithMaxCandidates(12)}, opts...)
	sess, err := metarepair.NewSession(ndlog.MustParse("mini", miniProgram), opts...)
	if err != nil {
		t.Fatal(err)
	}
	net := miniNet()
	net.Ctrl = sess.Controller()
	wl := miniWorkload()
	trace.Replay(net, wl, 1)
	return sess, wl
}

func miniBacktest(wl []trace.Entry) metarepair.Backtest {
	return metarepair.Backtest{
		BuildNet: miniNet,
		Source:   trace.SliceSource(wl),
		Effective: func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
			return n.Hosts["h2"].PortCountFor(sdn.PortHTTP, tag) > 0
		},
	}
}

func miniSymptom() metarepair.Symptom {
	return metarepair.Missing("FlowTable",
		metarepair.Pin(3), nil, nil, nil, metarepair.Pin(80), metarepair.Pin(2))
}

func TestRepairMissingTuple(t *testing.T) {
	sess, wl := runDiagnostic(t)
	report, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suggestions) == 0 || report.Accepted == 0 {
		t.Fatalf("suggestions=%d accepted=%d", len(report.Suggestions), report.Accepted)
	}
	// Accepted suggestions must come first and the top one must be the
	// paper's fix.
	top := report.Suggestions[0]
	if !top.Result.Accepted {
		t.Fatalf("top suggestion not accepted: %v", top)
	}
	if !strings.Contains(top.Candidate.Describe(), "change constant 2 in r7 (sel/0/R) to 3") {
		t.Fatalf("top suggestion = %q", top.Candidate.Describe())
	}
	for i := 1; i < len(report.Suggestions); i++ {
		if report.Suggestions[i].Result.Accepted && !report.Suggestions[i-1].Result.Accepted {
			t.Fatal("accepted suggestion ranked after a rejected one")
		}
	}
	if len(report.Results) != len(report.Suggestions) {
		t.Fatalf("Results (%d) and Suggestions (%d) disagree", len(report.Results), len(report.Suggestions))
	}
	if !strings.Contains(report.Render(), "accepted") {
		t.Fatal("Render missing verdicts")
	}
	if report.Explanation == nil {
		t.Fatal("missing negative-provenance explanation")
	}
	if report.Timing.Total() <= 0 {
		t.Fatal("missing timing breakdown")
	}
}

func TestRepairPresentTuple(t *testing.T) {
	sess, wl := runDiagnostic(t)
	// The buggy r7 derives FlowTable(2,...,2) entries that hijack S2's
	// HTTP toward the unwired port 2: a positive symptom. Find one
	// concrete bad tuple from the recorder.
	var bad *ndlog.Tuple
	for _, tp := range sess.Recorder().TuplesOf("FlowTable") {
		if tp.Args[0].Int == 2 && tp.Args[5].Int == 2 {
			c := tp.Clone()
			bad = &c
			break
		}
	}
	if bad == nil {
		t.Fatal("no bad flow entry recorded")
	}
	report, err := sess.Repair(context.Background(), metarepair.Present(*bad), metarepair.Backtest{
		BuildNet: miniNet,
		Source:   trace.SliceSource(wl),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suggestions) == 0 {
		t.Fatal("no positive-symptom suggestions")
	}
	all := ""
	for _, s := range report.Suggestions {
		all += s.Candidate.Describe() + "\n"
	}
	if !strings.Contains(all, "r7") {
		t.Fatalf("no r7 repair among positive suggestions:\n%s", all)
	}
	if report.Explanation == nil || report.Explanation.Size() < 2 {
		t.Fatal("positive symptom must carry a provenance explanation")
	}
}

func TestRepairEmptySymptom(t *testing.T) {
	sess, wl := runDiagnostic(t)
	if _, err := sess.Repair(context.Background(), metarepair.Symptom{}, miniBacktest(wl)); err == nil {
		t.Fatal("expected empty-symptom error")
	}
}

func TestEvaluateRequiresBuildNet(t *testing.T) {
	sess, _ := runDiagnostic(t)
	if _, err := sess.Evaluate(context.Background(), nil, metarepair.Backtest{}); err == nil {
		t.Fatal("expected BuildNet error")
	}
	if _, err := sess.Stream(context.Background(), miniSymptom(), metarepair.Backtest{}); err == nil {
		t.Fatal("expected BuildNet error from Stream")
	}
}

func TestExplainFacades(t *testing.T) {
	sess, _ := runDiagnostic(t)
	tuples := sess.Recorder().TuplesOf("FlowTable")
	if len(tuples) == 0 {
		t.Fatal("no recorded flow entries")
	}
	if v := sess.Explain(tuples[0]); v == nil || v.Size() < 2 {
		t.Fatal("Explain returned a trivial tree")
	}
	if v := sess.ExplainMissing("FlowTable", nil); v == nil || len(v.Children) == 0 {
		t.Fatal("ExplainMissing returned no NDERIVE children")
	}
}

func TestNewSessionRejectsBadProgram(t *testing.T) {
	bad := &ndlog.Program{Name: "bad", Rules: []*ndlog.Rule{{ID: "r"}}}
	if _, err := metarepair.NewSession(bad); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestStreamDeliversAllSuggestions(t *testing.T) {
	sess, wl := runDiagnostic(t)
	run, err := sess.Stream(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithBatchSize(2))
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
	if len(streamed) != len(report.Suggestions) {
		t.Fatalf("streamed %d, report has %d", len(streamed), len(report.Suggestions))
	}
	// Every candidate index appears exactly once on the stream, and each
	// streamed verdict matches the report's candidate-order results.
	seen := make(map[int]bool)
	for _, s := range streamed {
		if seen[s.Index] {
			t.Fatalf("candidate %d streamed twice", s.Index)
		}
		seen[s.Index] = true
		if s.Result.Accepted != report.Results[s.Index].Accepted {
			t.Fatalf("candidate %d: streamed verdict %v != report %v",
				s.Index, s.Result.Accepted, report.Results[s.Index].Accepted)
		}
	}
	if report.Batches < 2 {
		t.Fatalf("expected multiple batches, got %d", report.Batches)
	}
}

// TestBatchingEquivalence verifies the headline property of the batched
// evaluator: splitting a candidate set — including one larger than a
// single shared run's 63-tag space — into concurrent shared-run batches
// produces exactly the accept/reject decisions of one shared run.
func TestBatchingEquivalence(t *testing.T) {
	sess, wl := runDiagnostic(t)
	ctx := context.Background()
	expl, err := sess.Explore(ctx, miniSymptom())
	if err != nil {
		t.Fatal(err)
	}
	base := expl.Candidates
	if len(base) < 4 {
		t.Fatalf("only %d candidates", len(base))
	}

	// Reference: one shared run over the base set.
	oneRun, err := sess.Evaluate(ctx, base, miniBacktest(wl),
		metarepair.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	oneRep, err := oneRun.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if oneRep.Batches != 1 {
		t.Fatalf("reference run used %d batches", oneRep.Batches)
	}

	// Replicate the set past the 63-candidate cliff; the old API errored
	// here, the new one must batch transparently.
	var big []metaprov.Candidate
	for len(big) < 70 {
		big = append(big, base...)
	}
	big = big[:70]
	batchedRun, err := sess.Evaluate(ctx, big, miniBacktest(wl),
		metarepair.WithBatchSize(16), metarepair.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	batchedRep, err := batchedRun.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(batchedRep.Results) != 70 {
		t.Fatalf("results = %d", len(batchedRep.Results))
	}
	if batchedRep.Batches != 5 {
		t.Fatalf("batches = %d, want 5", batchedRep.Batches)
	}
	for i, res := range batchedRep.Results {
		ref := oneRep.Results[i%len(base)]
		if res.Accepted != ref.Accepted || res.Effective != ref.Effective {
			t.Errorf("candidate %d (%s): batched accepted=%v effective=%v, shared run accepted=%v effective=%v",
				i, res.Candidate.Describe(), res.Accepted, res.Effective, ref.Accepted, ref.Effective)
		}
		if res.KS != ref.KS || res.HopLimited != ref.HopLimited {
			t.Errorf("candidate %d: batched KS %v, %d hop-limited; shared %v, %d", i, res.KS, res.HopLimited, ref.KS, ref.HopLimited)
		}
	}
}

func TestContextCancellationMidBacktest(t *testing.T) {
	sess, wl := runDiagnostic(t)
	ctx := context.Background()
	expl, err := sess.Explore(ctx, miniSymptom())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Candidates) < 3 {
		t.Fatalf("only %d candidates", len(expl.Candidates))
	}
	cancelCtx, cancel := context.WithCancel(ctx)
	run, err := sess.Evaluate(cancelCtx, expl.Candidates, miniBacktest(wl),
		metarepair.WithBatchSize(1), metarepair.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first batch lands; later batches must not run.
	first, ok := <-run.Suggestions()
	if !ok {
		t.Fatal("stream closed before first suggestion")
	}
	cancel()
	if _, err := run.Wait(); err == nil {
		t.Fatal("Wait must surface the cancellation")
	} else if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var rest int
	for range run.Suggestions() {
		rest++
	}
	if rest >= len(expl.Candidates)-1 {
		t.Fatalf("cancellation did not stop the run: %d further suggestions after #%d", rest, first.Index)
	}
}

func TestContextCancellationDuringExplore(t *testing.T) {
	sess, _ := runDiagnostic(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Explore(ctx, miniSymptom()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDroppedCandidatesAreReported(t *testing.T) {
	sess, wl := runDiagnostic(t)
	// Positive symptom: the full cost-ordered list is generated, then the
	// cap drops the surplus — visibly.
	var bad *ndlog.Tuple
	for _, tp := range sess.Recorder().TuplesOf("FlowTable") {
		if tp.Args[0].Int == 2 && tp.Args[5].Int == 2 {
			c := tp.Clone()
			bad = &c
			break
		}
	}
	if bad == nil {
		t.Fatal("no bad flow entry recorded")
	}
	var events []metarepair.Event
	report, err := sess.Repair(context.Background(), metarepair.Present(*bad),
		metarepair.Backtest{BuildNet: miniNet, Source: trace.SliceSource(wl)},
		metarepair.WithMaxCandidates(2),
		metarepair.WithEventSink(metarepair.SinkFunc(func(e metarepair.Event) {
			events = append(events, e)
		})))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suggestions) != 2 {
		t.Fatalf("suggestions = %d, want 2", len(report.Suggestions))
	}
	if report.Dropped == 0 {
		t.Fatal("Dropped not reported")
	}
	if report.Generated != len(report.Candidates)+report.Dropped {
		t.Fatalf("Generated %d != kept %d + dropped %d",
			report.Generated, len(report.Candidates), report.Dropped)
	}
	if !strings.Contains(report.Render(), "dropped by candidate budget") {
		t.Fatal("Render must surface the drop")
	}
	found := false
	for _, e := range events {
		if e.Kind == "candidates.dropped" && e.Dropped == report.Dropped {
			found = true
		}
	}
	if !found {
		t.Fatalf("no candidates.dropped event among %d events", len(events))
	}
}

func TestCandidateFilterReported(t *testing.T) {
	sess, wl := runDiagnostic(t)
	report, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithCandidateFilter(func(c metaprov.Candidate) bool {
			return !strings.Contains(c.Describe(), "insert")
		}))
	if err != nil {
		t.Fatal(err)
	}
	if report.Filtered == 0 {
		t.Fatal("filter removed nothing")
	}
	for _, s := range report.Suggestions {
		if strings.Contains(s.Candidate.Describe(), "insert") {
			t.Fatalf("filtered candidate evaluated: %s", s.Candidate.Describe())
		}
	}
}

func TestEvaluateAppliesCandidateFilter(t *testing.T) {
	sess, wl := runDiagnostic(t)
	ctx := context.Background()
	expl, err := sess.Explore(ctx, miniSymptom())
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Evaluate(ctx, expl.Candidates, miniBacktest(wl),
		metarepair.WithCandidateFilter(func(c metaprov.Candidate) bool {
			return !strings.Contains(c.Describe(), "insert")
		}))
	if err != nil {
		t.Fatal(err)
	}
	report, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if report.Filtered == 0 {
		t.Fatal("Evaluate must honor WithCandidateFilter")
	}
	if len(report.Results)+report.Filtered != len(expl.Candidates) {
		t.Fatalf("evaluated %d + filtered %d != supplied %d",
			len(report.Results), report.Filtered, len(expl.Candidates))
	}
	for _, s := range report.Suggestions {
		if strings.Contains(s.Candidate.Describe(), "insert") {
			t.Fatalf("filtered candidate evaluated: %s", s.Candidate.Describe())
		}
	}
}

func TestJSONLSinkEventLog(t *testing.T) {
	var buf bytes.Buffer
	sess, wl := runDiagnostic(t, metarepair.WithEventSink(metarepair.NewJSONLSink(&buf)))
	if _, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithBatchSize(2)); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e metarepair.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %q missing timestamp", e.Kind)
		}
		kinds[e.Kind]++
	}
	for _, want := range []string{"explore.start", "explore.done", "backtest.start", "batch.done", "suggestion", "report"} {
		if kinds[want] == 0 {
			t.Errorf("no %q event; got %v", want, kinds)
		}
	}
	if kinds["batch.done"] < 2 {
		t.Errorf("expected multiple batch.done events, got %d", kinds["batch.done"])
	}
	if kinds["suggestion"] != kinds["batch.done"] && kinds["suggestion"] < kinds["batch.done"] {
		t.Errorf("suggestion events (%d) fewer than batches (%d)", kinds["suggestion"], kinds["batch.done"])
	}
}
