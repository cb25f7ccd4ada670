package backtest

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/trace"
)

// pipelineJob builds the Q1-mini job plus a candidate list for pipeline
// tests, reusing one diagnostic replay for both.
func pipelineJob(t *testing.T, max int) (*Job, []metaprov.Candidate) {
	t.Helper()
	job, rec := q1Job(t)
	ex := metaprov.NewExplorer(meta.NewModel(job.Prog), rec)
	ex.Cutoff = 3.2
	ex.MaxCandidates = max
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	cands := explore(t, ex, metaprov.PinnedGoal("FlowTable", &v3, nil, nil, nil, &v80, &v2))
	if len(cands) < 4 {
		t.Fatalf("too few candidates: %d", len(cands))
	}
	return job, cands
}

// feed turns a slice into a candidate stream.
func feed(cands []metaprov.Candidate) <-chan metaprov.Candidate {
	ch := make(chan metaprov.Candidate)
	go func() {
		defer close(ch)
		for _, c := range cands {
			ch <- c
		}
	}()
	return ch
}

// TestPipelineMatchesBatched: filling batches from a stream must produce
// exactly what hand-cut batches do. The reference is independent of the
// pipeline's scheduler: one direct RunShared per hand-cut batch for the
// exact verdicts and engine counters, plus the RunSequential oracle for
// the accept/effective decisions. A materialized list (pre-filled, closed
// channel) and a live stream must both match it at any pool width.
func TestPipelineMatchesBatched(t *testing.T) {
	job, cands := pipelineJob(t, 12)
	const batchSize = 4
	ctx := context.Background()

	type cut struct {
		start int
		out   []Result
		stats ndlog.EngineStats
	}
	var cuts []cut
	var ref []Result
	for start := 0; start < len(cands); start += batchSize {
		sub := *job
		sub.Candidates = cands[start:min(start+batchSize, len(cands))]
		out, st, err := sub.RunShared(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut{start: start, out: out, stats: st})
		ref = append(ref, out...)
	}
	seqJob := *job
	seqJob.Candidates = cands
	seq := runSequential(t, &seqJob)

	prefilled := func() <-chan metaprov.Candidate {
		ch := make(chan metaprov.Candidate, len(cands))
		for _, c := range cands {
			ch <- c
		}
		close(ch)
		return ch
	}
	for _, tc := range []struct {
		name        string
		parallelism int
		stream      func() <-chan metaprov.Candidate
	}{
		{"live/2", 2, func() <-chan metaprov.Candidate { return feed(cands) }},
		{"materialized/1", 1, prefilled},
		{"materialized/4", 4, prefilled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var batches []Batch
			p := &Pipeline{Job: job, BatchSize: batchSize, Parallelism: tc.parallelism,
				OnBatch: func(b Batch) { batches = append(batches, b) }}
			res, err := p.Run(ctx, tc.stream())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != len(ref) || res.EvaluatedCount() != len(cands) {
				t.Fatalf("pipeline results = %d (%d evaluated), reference = %d",
					len(res.Results), res.EvaluatedCount(), len(ref))
			}
			if res.Batches != len(cuts) || len(batches) != len(cuts) {
				t.Fatalf("batches = %d (%d observed), want %d", res.Batches, len(batches), len(cuts))
			}
			for i := range ref {
				got := res.Results[i]
				if got.Accepted != ref[i].Accepted || got.Effective != ref[i].Effective || got.KS != ref[i].KS || got.HopLimited != ref[i].HopLimited {
					t.Errorf("candidate %d (%s): pipeline %+v, hand-cut shared run %+v",
						i, ref[i].Candidate.Describe(), got, ref[i])
				}
				if got.Accepted != seq[i].Accepted || got.Effective != seq[i].Effective || got.HopLimited != seq[i].HopLimited {
					t.Errorf("candidate %d (%s): pipeline accepted=%v effective=%v hop-limited=%d, sequential oracle accepted=%v effective=%v hop-limited=%d",
						i, seq[i].Candidate.Describe(), got.Accepted, got.Effective, got.HopLimited, seq[i].Accepted, seq[i].Effective, seq[i].HopLimited)
				}
			}
			// Batch bookkeeping: the cuts fall where the hand-cut ones do and
			// every batch carries its own shared run's counters and bounds.
			for _, b := range batches {
				if b.Index < 0 || b.Index >= len(cuts) {
					t.Fatalf("batch index %d out of range", b.Index)
				}
				want := cuts[b.Index]
				if b.Start != want.start || len(b.Results) != len(want.out) {
					t.Errorf("batch %d covers [%d,+%d), want [%d,+%d)",
						b.Index, b.Start, len(b.Results), want.start, len(want.out))
				}
				if b.Stats != want.stats {
					t.Errorf("batch %d engine stats %+v, hand-cut run %+v", b.Index, b.Stats, want.stats)
				}
				if b.Began.IsZero() || b.Ended.Before(b.Began) {
					t.Errorf("batch %d has incoherent bounds [%v, %v]", b.Index, b.Began, b.Ended)
				}
			}
		})
	}
}

// TestPipelineDefaultParallelism: an unset Parallelism means GOMAXPROCS, not
// the machine's CPU count — a process confined to one P must run one shared
// replay at a time.
func TestPipelineDefaultParallelism(t *testing.T) {
	job, cands := pipelineJob(t, 12)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var batches []Batch
	p := &Pipeline{Job: job, BatchSize: 2,
		OnBatch: func(b Batch) { batches = append(batches, b) }}
	if _, err := p.Run(context.Background(), feed(cands)); err != nil {
		t.Fatal(err)
	}
	if len(batches) < 3 {
		t.Fatalf("only %d batches ran", len(batches))
	}
	for i, a := range batches {
		for _, b := range batches[i+1:] {
			if a.Began.Before(b.Ended) && b.Began.Before(a.Ended) {
				t.Fatalf("batches %d [%v, %v] and %d [%v, %v] were in flight together under GOMAXPROCS(1)",
					a.Index, a.Began, a.Ended, b.Index, b.Began, b.Ended)
			}
		}
	}
}

// TestPipelineOverlapsProducer: a batch must complete while the producer
// is still emitting — the whole point of the streamed pipeline.
func TestPipelineOverlapsProducer(t *testing.T) {
	job, cands := pipelineJob(t, 12)

	var batchesSeen atomic.Int32
	release := make(chan struct{})
	ch := make(chan metaprov.Candidate)
	go func() {
		defer close(ch)
		for i, c := range cands {
			if i == len(cands)-1 {
				// Hold the last candidate back until a batch of the
				// earlier ones has finished.
				<-release
			}
			ch <- c
		}
	}()
	p := &Pipeline{
		Job: job, BatchSize: 2, Parallelism: 2,
		OnBatch: func(b Batch) {
			if batchesSeen.Add(1) == 1 {
				close(release)
			}
		},
	}
	res, err := p.Run(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvaluatedCount() != len(cands) {
		t.Fatalf("evaluated %d of %d", res.EvaluatedCount(), len(cands))
	}
	if res.FirstBatchStart.IsZero() {
		t.Fatal("no batch launch recorded")
	}
}

// TestPipelineFirstAccepted: the first accepted repair stops the search
// and the remaining batches, without leaking goroutines.
func TestPipelineFirstAccepted(t *testing.T) {
	job, cands := pipelineJob(t, 12)

	before := runtime.NumGoroutine()
	var searchCancelled atomic.Bool
	produced := 0
	stop := make(chan struct{})
	ch := make(chan metaprov.Candidate)
	go func() {
		defer close(ch)
		for _, c := range cands {
			select {
			case ch <- c:
				produced++
			case <-stop:
				return
			}
		}
	}()
	p := &Pipeline{
		Job: job, BatchSize: 2, Parallelism: 1,
		FirstAccepted: true,
		CancelSearch: func() {
			if searchCancelled.CompareAndSwap(false, true) {
				close(stop)
			}
		},
	}
	res, err := p.Run(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("pipeline did not stop early despite an accepted repair")
	}
	if !searchCancelled.Load() {
		t.Fatal("CancelSearch was not invoked")
	}
	accepted := false
	for i, ok := range res.Evaluated {
		if ok && res.Results[i].Accepted {
			accepted = true
		}
	}
	if !accepted {
		t.Fatal("early stop without an accepted verdict")
	}
	if res.EvaluatedCount() == len(cands) && len(res.Candidates) == len(cands) {
		// All candidates may evaluate if the accept lands in the last
		// batch; with the intuitive fix cheap and first, it must not.
		t.Fatalf("early stop evaluated everything: %d candidates", res.EvaluatedCount())
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// gateSource yields its base workload, then idles at the tail emitting
// harmless probe entries (unknown source host: Inject is a no-op) until it
// receives a completion token — or until the run's cancelSource aborts the
// scan. It lets a test hold a shared replay in-flight indefinitely.
type gateSource struct {
	base    []trace.Entry
	started chan struct{}
	tokens  chan struct{}
}

func (g *gateSource) Scan(fn func(trace.Entry) error) error {
	g.started <- struct{}{}
	for _, e := range g.base {
		if err := fn(e); err != nil {
			return err
		}
	}
	probe := trace.Entry{SrcHost: "gate-probe-no-such-host"}
	for {
		select {
		case <-g.tokens:
			return nil
		default:
		}
		if err := fn(probe); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineFirstAcceptedAbortsInflight: when one batch accepts, a shared
// run still replaying on another worker must be cancelled mid-replay — not
// allowed to finish silently — and no goroutine may leak.
func TestPipelineFirstAcceptedAbortsInflight(t *testing.T) {
	job, cands := pipelineJob(t, 12)

	// Find an accepted candidate so every batch below contains one.
	ref := *job
	ref.Candidates = cands
	refOut, err := runShared(&ref)
	if err != nil {
		t.Fatal(err)
	}
	accepted := -1
	for i, r := range refOut {
		if r.Accepted {
			accepted = i
			break
		}
	}
	if accepted < 0 {
		t.Fatal("no accepted candidate in the reference run")
	}

	before := runtime.NumGoroutine()
	gate := &gateSource{
		base:    job.Workload,
		started: make(chan struct{}, 4),
		tokens:  make(chan struct{}, 1),
	}
	sub := *job
	sub.Source = gate
	sub.Workload = nil

	// Two batches of two copies of the accepting candidate: both replays
	// park at the gate, one token releases exactly one of them, its accept
	// must abort the other mid-replay.
	stream := []metaprov.Candidate{cands[accepted], cands[accepted], cands[accepted], cands[accepted]}
	p := &Pipeline{Job: &sub, BatchSize: 2, Parallelism: 2, FirstAccepted: true}
	done := make(chan struct{})
	var res *PipelineResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = p.Run(context.Background(), feed(stream))
	}()
	<-gate.started
	<-gate.started // both batches are now in-flight
	gate.tokens <- struct{}{}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline did not return: the in-flight batch was not cancelled")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !res.EarlyStopped {
		t.Fatal("pipeline did not stop early")
	}
	if res.Batches != 1 {
		t.Fatalf("batches completed = %d, want 1 (the other must be aborted mid-replay)", res.Batches)
	}
	if res.EvaluatedCount() != 2 {
		t.Fatalf("evaluated %d candidates, want the released batch's 2", res.EvaluatedCount())
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestPipelineCancellation: parent-context cancellation surfaces and stops
// unstarted batches.
func TestPipelineCancellation(t *testing.T) {
	job, cands := pipelineJob(t, 12)

	ctx, cancel := context.WithCancel(context.Background())
	var batches atomic.Int32
	p := &Pipeline{
		Job: job, BatchSize: 1, Parallelism: 1,
		OnBatch: func(Batch) {
			if batches.Add(1) == 1 {
				cancel()
			}
		},
	}
	res, err := p.Run(ctx, feed(cands))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.EvaluatedCount() >= len(cands) {
		t.Fatalf("cancellation did not stop the pipeline: %d evaluated", res.EvaluatedCount())
	}
}

// TestPipelineEmptyStream: an empty candidate stream is a clean no-op.
func TestPipelineEmptyStream(t *testing.T) {
	job, _ := q1Job(t)
	p := &Pipeline{Job: job}
	res, err := p.Run(context.Background(), feed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 || res.Batches != 0 {
		t.Fatalf("unexpected work on empty stream: %+v", res)
	}
}

// endlessSource yields probe entries until its callback fails.
type endlessSource struct{}

func (endlessSource) Scan(fn func(trace.Entry) error) error {
	for {
		if err := fn(trace.Entry{SrcHost: "no-such-host"}); err != nil {
			return err
		}
	}
}

// cancelSource tests a flag the context sets, not the context: an already
// cancelled context must still fail the first entry, a cancellation in
// mid-scan must stop the scan with the context's error, and an undisturbed
// scan must deliver everything.
func TestCancelSourceStopsTheScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := (&cancelSource{ctx: ctx, src: endlessSource{}}).Scan(func(trace.Entry) error {
		if n++; n == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || n < 10 {
		t.Fatalf("cancelled at entry 10: scan returned %v after %d entries", err, n)
	}
	n = 0
	err = (&cancelSource{ctx: ctx, src: endlessSource{}}).Scan(func(trace.Entry) error { n++; return nil })
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("context cancelled beforehand: scan returned %v after %d entries, want none", err, n)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	n = 0
	src := trace.SliceSource(make([]trace.Entry, 100))
	if err := (&cancelSource{ctx: live, src: src}).Scan(func(trace.Entry) error { n++; return nil }); err != nil || n != 100 {
		t.Fatalf("live context: scan returned %v after %d of 100 entries", err, n)
	}
}
