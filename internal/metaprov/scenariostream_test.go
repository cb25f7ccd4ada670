package metaprov_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/metaprov"
	"repro/scenario"
)

// TestExploreStreamEquivalenceAllScenarios is the acceptance property of
// the concurrent frontier: for every one of the five §5.3 case studies,
// plus Q1 under the wide search budget (cost cutoff 4.6, 64 candidates),
// and several worker counts, ExploreStream yields the exact candidate
// sequence of the sequential reference search and commits the same exact
// Stats counts — the cost-epoch emitter releases a candidate only when no
// cheaper partial tree remains anywhere.
func TestExploreStreamEquivalenceAllScenarios(t *testing.T) {
	sc := scenario.Scale{Switches: 19, Flows: 300}
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(sc)
		t.Run(s.Name, func(t *testing.T) { streamMatchesSequential(t, s, nil) })
	}
	t.Run("explore-wide", func(t *testing.T) {
		streamMatchesSequential(t, scenario.Q1Spec().MustInstantiate(sc), func(ex *metaprov.Explorer) {
			ex.Cutoff, ex.MaxCandidates, ex.MaxPerStructure = 4.6, 64, 3
		})
	})
}

// streamMatchesSequential searches s's goal sequentially and as a stream
// at two worker counts, with budget (if any) applied to every explorer.
func streamMatchesSequential(t *testing.T, s *scenario.Scenario, budget func(*metaprov.Explorer)) {
	rec := history(t, s)
	newEx := func() *metaprov.Explorer {
		ex := explorer(s, rec)
		if budget != nil {
			budget(ex)
		}
		return ex
	}
	seqEx := newEx()
	seq := seqEx.ExploreSequential(s.Goal)
	if len(seq) == 0 {
		t.Fatalf("%s: sequential search found no candidates", s.Name)
	}
	t.Logf("%d candidates, %+v", len(seq), seqEx.Stats())
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		ex := newEx()
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
		got, want := ex.Stats(), seqEx.Stats()
		got.SolveTime, want.SolveTime = 0, 0
		if got != want {
			t.Fatalf("workers=%d: committed counts %+v, sequential %+v", workers, got, want)
		}
	}
}
