package metaprov

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// collectStream drains an ExploreStream into a slice, failing the test on
// a stream error.
func collectStream(t *testing.T, ex *Explorer, goal Goal) []Candidate {
	t.Helper()
	cands, errc := ex.ExploreStream(context.Background(), goal)
	var out []Candidate
	for c := range cands {
		out = append(out, c)
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

// requireSameCandidates asserts two candidate sequences are identical
// position by position.
func requireSameCandidates(t *testing.T, seq, par []Candidate) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sequential %d candidates, stream %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Signature() != par[i].Signature() {
			t.Fatalf("candidate %d differs:\n  sequential: %s\n  stream:     %s",
				i, seq[i].Describe(), par[i].Describe())
		}
		if seq[i].Cost != par[i].Cost {
			t.Fatalf("candidate %d cost %v (sequential) vs %v (stream)", i, seq[i].Cost, par[i].Cost)
		}
	}
}

// exactCounts is the explorer's Stats without the one field that is timed:
// steps and the emitter's extracted / duplicate / capped counts repeat
// exactly, whichever loop committed them.
func exactCounts(ex *Explorer) Stats {
	s := ex.Stats()
	s.SolveTime = 0
	return s
}

// TestExploreStreamMatchesSequential is the core equivalence property on
// the Figure 2 scenario: for any worker count, ExploreStream yields the
// exact candidate sequence of the sequential reference search.
func TestExploreStreamMatchesSequential(t *testing.T) {
	prog, rec := runFig2(t)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	goal := PinnedGoal("FlowTable", &v3, &v80, &v2)

	seqEx := NewExplorer(meta.NewModel(prog), rec)
	seq := seqEx.exploreSequential(goal)
	if len(seq) == 0 {
		t.Fatal("sequential search found no candidates")
	}
	if st := seqEx.Stats(); st.Extracted != len(seq)+st.DuplicateSignatures+st.CappedStructures {
		t.Fatalf("%d candidates emitted of %+v", len(seq), st)
	}

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 2} {
		ex := NewExplorer(meta.NewModel(prog), rec)
		ex.Workers = workers
		par := collectStream(t, ex, goal)
		requireSameCandidates(t, seq, par)
		if got, want := exactCounts(ex), exactCounts(seqEx); got != want {
			t.Fatalf("workers=%d: committed counts %+v, sequential %+v", workers, got, want)
		}
	}
}

// twoPreds joins two body predicates, the second of which introduces a
// variable (Lvl) the head does not bind: the forks that cite different
// PacketIn tuples are siblings that share the instantiation's variable map
// and expand Allow — and the Lvl guard — on different workers at once.
const twoPreds = `
materialize(FlowTable, 1, 3, keys(0,1)).
materialize(Allow, 1, 3, keys(0,1)).
j1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Allow(@C,Hdr,Lvl), Swi == 2, Lvl > 0, Prt := 2.
`

// TestExploreStreamTwoBodyPredicates is the stream ≡ sequential property
// on a rule with two body predicates at four workers. Under -race it also
// proves an instantiation's variable map is read-only once the rule is
// expanded: sibling forks expand the second predicate concurrently.
func TestExploreStreamTwoBodyPredicates(t *testing.T) {
	prog := ndlog.MustParse("twopreds", twoPreds)
	eng := ndlog.MustNewEngine(prog)
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	for lvl, hdr := range []int64{53, 80, 443} {
		eng.Insert(ndlog.NewTuple("Allow", ndlog.Str("C"), ndlog.Int(hdr), ndlog.Int(int64(lvl))))
	}
	for swi := int64(1); swi <= 4; swi++ {
		for _, hdr := range []int64{53, 80, 443} {
			eng.Insert(ndlog.NewTuple("PacketIn", ndlog.Str("C"), ndlog.Int(swi), ndlog.Int(hdr)))
		}
	}
	v3, v2 := ndlog.Int(3), ndlog.Int(2)
	goal := PinnedGoal("FlowTable", &v3, nil, &v2)

	seqEx := NewExplorer(meta.NewModel(prog), rec)
	seq := seqEx.exploreSequential(goal)
	if len(seq) == 0 {
		t.Fatal("sequential search found no candidates")
	}
	for round := 0; round < 5; round++ {
		ex := NewExplorer(meta.NewModel(prog), rec)
		ex.Workers = 4
		requireSameCandidates(t, seq, collectStream(t, ex, goal))
		if got, want := exactCounts(ex), exactCounts(seqEx); got != want {
			t.Fatalf("committed counts %+v, sequential %+v", got, want)
		}
	}
}

// TestExploreStreamRespectsBounds mirrors the sequential bound invariants
// through the stream: MaxCandidates and MaxSteps cut the committed search
// at the same point for any worker count.
func TestExploreStreamRespectsBounds(t *testing.T) {
	prog, rec := runFig2(t)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	goal := PinnedGoal("FlowTable", &v3, &v80, &v2)

	seqEx := NewExplorer(meta.NewModel(prog), rec)
	seqEx.MaxCandidates = 3
	seq := seqEx.exploreSequential(goal)

	ex := NewExplorer(meta.NewModel(prog), rec)
	ex.MaxCandidates = 3
	ex.Workers = 4
	par := collectStream(t, ex, goal)
	requireSameCandidates(t, seq, par)

	exSteps := NewExplorer(meta.NewModel(prog), rec)
	exSteps.MaxSteps = 5
	exSteps.Workers = 4
	_ = collectStream(t, exSteps, goal)
	if got := exSteps.Stats().Steps; got > 5 {
		t.Fatalf("committed steps = %d, bound 5", got)
	}
}

// TestExploreStreamCancellation proves cancelling the context tears the
// whole stream down: both channels close and no worker goroutines are
// left behind.
func TestExploreStreamCancellation(t *testing.T) {
	prog, rec := runFig2(t)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	goal := PinnedGoal("FlowTable", &v3, &v80, &v2)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ex := NewExplorer(meta.NewModel(prog), rec)
	ex.Workers = 4
	cands, errc := ex.ExploreStream(ctx, goal)

	// Take one candidate, then abandon the stream mid-flight.
	if _, ok := <-cands; !ok {
		t.Fatal("stream closed before the first candidate")
	}
	cancel()
	for range cands {
	}
	if err := <-errc; err != context.Canceled {
		t.Fatalf("stream error = %v, want context.Canceled", err)
	}

	// Every goroutine the stream started must exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before stream, %d after cancel", before, now)
	}
}
