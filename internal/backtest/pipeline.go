package backtest

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
)

// Pipeline is the one backtest scheduler: it cuts a candidate stream into
// ≤63-tag shared-run batches in arrival order (every BatchSize candidates,
// remainder on stream close) and runs each batch as one Job.RunShared —
// with its own tag-0 baseline, so verdicts do not depend on where the cuts
// fall — on a worker pool.
//
// The stream may be live: fed by the meta-provenance stream search, batches
// launch while the producer is still exploring, and the explore and replay
// phases of the Figure 9a breakdown overlap instead of meeting at a barrier.
// A materialized candidate list is the same pipeline over a pre-filled,
// closed channel; serial evaluation is Parallelism 1.
type Pipeline struct {
	// Job is the backtesting template; its Candidates field is ignored —
	// candidates come from the stream.
	Job *Job
	// BatchSize caps candidates per shared run (clamped to
	// MaxSharedCandidates; <=0 means the maximum).
	BatchSize int
	// Parallelism is the batch worker-pool width (<=0: GOMAXPROCS).
	Parallelism int
	// FirstAccepted stops the pipeline as soon as any batch reports an
	// accepted repair: CancelSearch is invoked, unstarted batches are
	// dropped, and Run returns with the verdicts computed so far.
	FirstAccepted bool
	// CancelSearch, when non-nil, is called exactly once when
	// FirstAccepted triggers (or a batch fails) so the candidate producer
	// stops exploring. The pipeline always drains the candidate channel,
	// so a producer that honors the cancellation never blocks.
	CancelSearch func()
	// OnBatch, when non-nil, observes each finished batch in completion
	// order (calls are serialized) — callers stream incremental verdicts
	// from it.
	OnBatch func(Batch)
}

// Batch is one finished batch of a Pipeline run: a ≤63-candidate slice of
// the candidate stream.
type Batch struct {
	// Index is the batch's position in the split (0-based).
	Index int
	// Start is the offset of the batch's first candidate in the stream.
	Start int
	// Results are the batch's verdicts, in candidate order.
	Results []Result
	// Began and Ended bound the batch's replay on the worker, so observers
	// can reconstruct per-batch spans without re-timing.
	Began time.Time
	Ended time.Time
	// Stats snapshots the batch's shared-run engine counters, including
	// the delta-evaluation families; per-job reports accumulate them.
	Stats ndlog.EngineStats
}

// PipelineResult is the outcome of one streamed backtesting run.
type PipelineResult struct {
	// Candidates are every candidate consumed from the stream, in arrival
	// order; Results is index-aligned with it. Under FirstAccepted some
	// batches may never run: those entries carry the candidate with a
	// zero verdict and Evaluated[i] is false.
	Candidates []metaprov.Candidate
	Results    []Result
	Evaluated  []bool
	// Batches counts the batches that completed.
	Batches int
	// EarlyStopped reports that FirstAccepted cut the run short.
	EarlyStopped bool
	// FirstBatchStart is when the first batch launched (zero if none
	// did) — the overlap measurement point.
	FirstBatchStart time.Time
}

// EvaluatedCount returns how many candidates actually have verdicts.
func (pr *PipelineResult) EvaluatedCount() int {
	n := 0
	for _, ok := range pr.Evaluated {
		if ok {
			n++
		}
	}
	return n
}

// Run consumes the candidate stream until it closes (or the run stops
// early), backtesting batches as they fill. It returns the arrival-order
// verdicts; ctx cancellation stops unstarted batches and surfaces
// ctx.Err().
func (p *Pipeline) Run(ctx context.Context, cands <-chan metaprov.Candidate) (*PipelineResult, error) {
	batchSize := p.BatchSize
	if batchSize <= 0 || batchSize > MaxSharedCandidates {
		batchSize = MaxSharedCandidates
	}
	parallelism := p.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type span struct {
		idx, start int
		cands      []metaprov.Candidate
	}
	// Generously buffered so a burst of small batches never blocks the
	// dispatcher (and therefore the explorer) behind busy workers.
	work := make(chan span, 256)

	res := &PipelineResult{}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		firstErr   error
		searchDone bool
	)
	stopSearch := func() {
		if !searchDone {
			searchDone = true
			if p.CancelSearch != nil {
				p.CancelSearch()
			}
		}
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				if runCtx.Err() != nil {
					continue // drain: the batch stays unevaluated
				}
				began := time.Now()
				// The run's replay watches runCtx, so a FirstAccepted stop
				// (or a failure elsewhere) aborts in-flight batches mid-replay
				// instead of letting them finish silently.
				sub := *p.Job
				sub.Candidates = sp.cands
				out, st, err := sub.RunShared(runCtx)
				ended := time.Now()
				mu.Lock()
				if err != nil {
					// A replay aborted by cancellation is a drain, not a
					// batch failure: someone asked the pool to stop.
					if firstErr == nil && runCtx.Err() == nil {
						firstErr = fmt.Errorf("backtest: batch %d: %w", sp.idx, err)
						stopSearch()
						cancel()
					}
					mu.Unlock()
					continue
				}
				copy(res.Results[sp.start:sp.start+len(out)], out)
				for i := range out {
					res.Evaluated[sp.start+i] = true
				}
				res.Batches++
				if p.OnBatch != nil {
					p.OnBatch(Batch{Index: sp.idx, Start: sp.start, Results: out, Began: began, Ended: ended, Stats: st})
				}
				if p.FirstAccepted && !res.EarlyStopped {
					for _, r := range out {
						if r.Accepted {
							res.EarlyStopped = true
							stopSearch()
							cancel()
							break
						}
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Dispatcher: accumulate arrivals, flush full batches immediately, and
	// flush the remainder when the stream closes. The slices backing
	// Results/Evaluated are only ever grown here; workers write disjoint
	// committed spans under mu.
	pendingFrom := 0
	batchIdx := 0
	flush := func() {
		mu.Lock()
		n := len(res.Candidates)
		if n > pendingFrom && runCtx.Err() == nil {
			sp := span{idx: batchIdx, start: pendingFrom, cands: res.Candidates[pendingFrom:n:n]}
			if res.FirstBatchStart.IsZero() {
				res.FirstBatchStart = time.Now()
			}
			batchIdx++
			pendingFrom = n
			mu.Unlock()
			select {
			case work <- sp:
			case <-runCtx.Done():
			}
			return
		}
		mu.Unlock()
	}
	for c := range cands {
		mu.Lock()
		res.Candidates = append(res.Candidates, c)
		res.Results = append(res.Results, Result{Candidate: c})
		res.Evaluated = append(res.Evaluated, false)
		n := len(res.Candidates)
		mu.Unlock()
		if n-pendingFrom >= batchSize {
			flush()
		}
	}
	flush()
	close(work)
	wg.Wait()

	mu.Lock()
	stopSearch()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}
