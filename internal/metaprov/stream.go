package metaprov

import (
	"context"
	"runtime"
	"sync"
)

// ExploreStream runs the forest search concurrently and streams repair
// candidates in cost order: exactly the order in which a sequential loop
// popping the same frontier from one heap would emit them (the reference
// this package's tests hold it to).
//
// The search is split into two roles:
//
//   - Workers (Explorer.Workers of them, default GOMAXPROCS) claim partial
//     trees from a shared frontier in frontier order and expand them
//     speculatively: QUERY(v) plus the per-fork satisfiability prune for
//     partial trees, constraint-pool extraction for complete ones.
//     Expansion depends only on the claimed tree and the explorer's
//     read-only model/history, so any interleaving computes the same
//     results.
//
//   - A single commit loop retires those results in the frontier's strict
//     total order — (cost, unexpanded count, admission seq) — exactly as
//     the sequential loop pops its heap. A candidate is released only when
//     its tree is the cheapest uncommitted tree anywhere in the forest
//     (the cost-epoch guarantee), and all order-sensitive state — step
//     and prune accounting, dedup, the per-structure cap, the MaxSteps /
//     MaxCandidates / cutoff bounds — advances only at commit time. So
//     does the validity guard, which only a first-seen signature needs.
//
// Work the sequential search would never have reached (beyond a bound or
// after the cutoff) may be expanded speculatively, but it is never
// committed, so the candidate stream is candidate-for-candidate identical
// to the sequential search's. Speculation is bounded by a small window
// above the frontier head.
//
// The candidate channel is unbuffered and closes when the search ends; the
// error channel then yields ctx's error, if any, and closes. Cancel ctx to
// abandon the stream — both channels close promptly and no goroutines are
// left behind.
func (ex *Explorer) ExploreStream(ctx context.Context, goal Goal) (<-chan Candidate, <-chan error) {
	out := make(chan Candidate)
	errc := make(chan error, 1)
	workers := ex.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	em := ex.newEmitter()
	f := newFrontier(workers)
	f.add(em.stamp(ex.rootTree(goal)))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex.streamWorker(f)
		}()
	}
	// The commit loop blocks in cond.Wait and channel sends; wake it (and
	// shut the workers down) the moment the context is cancelled.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			f.close()
		case <-stopWatch:
		}
	}()
	go func() {
		err := ex.commitLoop(ctx, f, em, out)
		f.close()
		close(stopWatch)
		wg.Wait()
		close(out)
		if err != nil {
			errc <- err
		}
		close(errc)
	}()
	return out, errc
}

// commitLoop is the sequential search loop with expansion outsourced to
// the workers: it retires frontier heads in total order and applies the
// order-sensitive bookkeeping.
func (ex *Explorer) commitLoop(ctx context.Context, f *frontier, em *emitter, out chan<- Candidate) error {
	emitted := 0
	for {
		head, exp, err, done := f.awaitHead(ctx, em, emitted, ex.Cutoff)
		if err != nil || done {
			return err
		}
		if head.Complete() {
			if exp.ok && em.admit(head, &exp.cand) {
				select {
				case out <- exp.cand:
					emitted++
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			continue
		}
		ex.steps.Add(1)
		ex.pruned.Add(int64(exp.pruned))
		f.admitKids(em, exp.kids)
	}
}

// streamWorker claims trees and posts their speculative expansions until
// the frontier closes.
func (ex *Explorer) streamWorker(f *frontier) {
	for {
		t, ok := f.claim()
		if !ok {
			return
		}
		var exp expansion
		if t.Complete() {
			exp.cand, exp.ok = ex.extract(t)
		} else {
			exp = ex.expandStep(t)
		}
		f.post(t, exp)
	}
}

// expansion is one worker's speculative result for a claimed tree.
type expansion struct {
	kids   []*Tree   // surviving forks (partial trees)
	pruned int       // forks the pruning verdict removed (partial trees)
	cand   Candidate // extraction result (complete trees)
	ok     bool
}

// frontier is the shared concurrent search frontier. canon holds every
// uncommitted tree in the search's total order; avail is the subset not
// yet claimed by a worker; ready holds posted expansions awaiting commit.
type frontier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	canon    treeHeap
	avail    treeHeap
	ready    map[*Tree]expansion
	inflight int
	// window bounds speculation: at most this many expansions may be in
	// flight or awaiting commit, except that the canonical head is always
	// claimable (the commit loop waits on it).
	window int
	closed bool
}

func newFrontier(workers int) *frontier {
	window := 2 * workers
	if window < 8 {
		window = 8
	}
	f := &frontier{ready: make(map[*Tree]expansion), window: window}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// add seeds the frontier with a stamped tree.
func (f *frontier) add(t *Tree) {
	f.mu.Lock()
	f.canon.push(t)
	f.avail.push(t)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// claim hands the caller the cheapest unclaimed tree, blocking until one
// is claimable or the frontier closes (ok=false).
func (f *frontier) claim() (*Tree, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, false
		}
		if f.avail.Len() > 0 {
			// avail ⊆ canon under the same order, so the heads coincide
			// exactly when the canonical head is unclaimed — and that head
			// must always be claimable or the commit loop would stall.
			head := f.avail.Peek()
			if head == f.canon.Peek() || f.inflight+len(f.ready) < f.window {
				f.avail.pop()
				f.inflight++
				return head, true
			}
		}
		f.cond.Wait()
	}
}

// post publishes a worker's expansion for commit.
func (f *frontier) post(t *Tree, exp expansion) {
	f.mu.Lock()
	f.inflight--
	f.ready[t] = exp
	f.cond.Broadcast()
	f.mu.Unlock()
}

// awaitHead blocks until the canonical head's expansion is ready, then
// retires the head and returns it with its expansion. done reports that
// the search is over: frontier exhausted, bounds reached, or the head's
// cost passed the cutoff (the frontier is cost-ordered, so everything
// behind it is too expensive — the sequential loop's break).
func (f *frontier) awaitHead(ctx context.Context, em *emitter, emitted int, cutoff float64) (*Tree, expansion, error, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, expansion{}, err, true
		}
		if f.canon.Len() == 0 || !em.searching(emitted) {
			return nil, expansion{}, nil, true
		}
		head := f.canon.Peek()
		if head.Cost > cutoff {
			return nil, expansion{}, nil, true
		}
		if exp, ok := f.ready[head]; ok {
			f.canon.pop()
			delete(f.ready, head)
			f.cond.Broadcast() // window space freed
			return head, exp, nil, false
		}
		f.cond.Wait()
	}
}

// admitKids stamps a committed expansion's children in child order and
// makes them available to the workers.
func (f *frontier) admitKids(em *emitter, kids []*Tree) {
	f.mu.Lock()
	for _, kid := range kids {
		em.stamp(kid)
		f.canon.push(kid)
		f.avail.push(kid)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// close ends the search: workers drain and exit, claim returns false.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}
