package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/scenarios"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/metarepair"
	"repro/scenario"
)

// streamScale keeps the equivalence runs quick; the properties under test
// are scale-invariant.
func streamScale() scenarios.Scale { return scenarios.Scale{Switches: 19, Flows: 300} }

// diagnoseHistory replays a scenario's workload through its buggy program
// and returns the provenance history the explorer searches.
func diagnoseHistory(t *testing.T, s *scenario.Scenario) *provenance.Recorder {
	t.Helper()
	eng := ndlog.MustNewEngine(s.Prog)
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	net := s.BuildNet()
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	for _, st := range s.State {
		ctl.InsertState(net, st)
	}
	if n := trace.Replay(net, s.Workload, 1); n != len(s.Workload) {
		t.Fatalf("%s: replayed %d of %d entries", s.Name, n, len(s.Workload))
	}
	return rec
}

// newExplorer builds an explorer over a scenario's history with a budget
// matching the scenario suite's cost bounds.
func newExplorer(s *scenario.Scenario, rec *provenance.Recorder) *metaprov.Explorer {
	ex := metaprov.NewExplorer(meta.NewModel(s.Prog), rec)
	ex.Cutoff = 3.4
	ex.MaxCandidates = 12
	return ex
}

// TestExploreStreamEquivalenceAllScenarios is the acceptance property of
// the concurrent frontier: for every one of the five §5.3 case studies
// and several worker counts, ExploreStream yields the exact candidate
// sequence of the sequential search — the cost-epoch emitter releases a
// candidate only when no cheaper partial tree remains anywhere.
func TestExploreStreamEquivalenceAllScenarios(t *testing.T) {
	for _, s := range scenarios.All(streamScale()) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rec := diagnoseHistory(t, s)
			seq := newExplorer(s, rec).Explore(s.Goal)
			if len(seq) == 0 {
				t.Fatalf("%s: sequential search found no candidates", s.Name)
			}
			for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 1} {
				ex := newExplorer(s, rec)
				ex.Workers = workers
				cands, errc := ex.ExploreStream(context.Background(), s.Goal)
				var par []metaprov.Candidate
				for c := range cands {
					par = append(par, c)
				}
				if err := <-errc; err != nil {
					t.Fatalf("workers=%d: stream error: %v", workers, err)
				}
				if len(par) != len(seq) {
					t.Fatalf("workers=%d: %d candidates streamed, %d sequential", workers, len(par), len(seq))
				}
				for i := range seq {
					if seq[i].Signature() != par[i].Signature() || seq[i].Cost != par[i].Cost {
						t.Fatalf("workers=%d: candidate %d diverges:\n  sequential: [%.1f] %s\n  stream:     [%.1f] %s",
							workers, i, seq[i].Cost, seq[i].Describe(), par[i].Cost, par[i].Describe())
					}
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
		s := scenarios.Q1(streamScale())
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
