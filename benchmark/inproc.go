package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backtest"
	"repro/internal/bench"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/metarepair"
)

const (
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps = 9
	// probeReps is how often each out-of-band layer probe is repeated.
	probeReps = 5
	// pairedReps is how many Diagnose/Baseline pairs the provenance-cost
	// probe takes: the difference of two near-equal noisy times needs more
	// samples than a plain probe.
	pairedReps = 12
	// opTimeout fails an op that has not produced its report by then.
	opTimeout = 30 * time.Second
	// packetInEvents sizes the engine-only PacketIn probe of each cell.
	packetInEvents = 5000
)

// runConfig is what the command line fixes for one run of one workload.
type runConfig struct {
	Seed    int64
	Seconds float64
	// Rounds, when positive, replaces the time limit by a fixed number of
	// rounds (in-process) or jobs (service) — the smoke tests' mode.
	Rounds  int
	Trace   int
	Scratch string // directory this run may write under; removed at exit
	Spans   string // traced runs write their spans here when set
	Daemon  string // metarepaird binary, for the service workload
}

func (c runConfig) traced() bool { return c.Trace == 1 }

// tracer returns the span recorder of a traced run, nil for an untraced one.
func (c runConfig) tracer() *tracer {
	if c.traced() {
		return &tracer{}
	}
	return nil
}

// done reports whether the measured loop is over: after Rounds
// iterations, or, without a fixed count, once Seconds have passed and at
// least min iterations ran.
func (c runConfig) done(start time.Time, iterations, min int) bool {
	if c.Rounds > 0 {
		return iterations >= c.Rounds
	}
	return iterations >= min && time.Since(start).Seconds() >= c.Seconds
}

// opCounts are the exact work counts of one op, read from the public
// stats the layers already keep (Session.EngineStats, Report.Engine,
// Exploration). They must repeat exactly for a seed.
type opCounts struct {
	DiagnoseFirings, BacktestFirings, GroupJoins, DeltaInserts int64
	IndexLookups, IndexRows                                    int64
	Steps, Candidates, Batches, Accepted                       int
}

func (a *opCounts) add(b opCounts) {
	a.DiagnoseFirings += b.DiagnoseFirings
	a.BacktestFirings += b.BacktestFirings
	a.GroupJoins += b.GroupJoins
	a.DeltaInserts += b.DeltaInserts
	a.IndexLookups += b.IndexLookups
	a.IndexRows += b.IndexRows
	a.Steps += b.Steps
	a.Candidates += b.Candidates
	a.Batches += b.Batches
	a.Accepted += b.Accepted
}

// stagedOp is one traced op: the sequential composition Diagnose →
// Explore → Evaluate, each call wrapped in a span of the benchmark's own.
type stagedOp struct {
	total, diagnose, explore, evaluate time.Duration
	counts                             opCounts
	cands                              []metaprov.Candidate
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// productionOp repairs the cell the way `metarepair run` does — Diagnose,
// then the default streaming Repair — and checks the report.
func productionOp(ctx context.Context, in *instance, ck *checker) (time.Duration, metarepair.Timing, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	sess, _, err := in.sc.Diagnose(in.Opts...)
	if err != nil {
		return 0, metarepair.Timing{}, err
	}
	rep, err := sess.Repair(ctx, in.sc.Symptom(), in.sc.Backtest())
	if err != nil {
		return 0, metarepair.Timing{}, err
	}
	err = ck.check(in.Name, in.sc.IntuitiveFix, verdictsOf(rep))
	return time.Since(start), rep.Timing, err
}

// stagedRepair is the traced op. It must reach the same verdicts as the
// production op; the checker holds both to one reference.
func stagedRepair(ctx context.Context, in *instance, ck *checker, tr *tracer, op int) (stagedOp, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var s stagedOp
	endOp := tr.span(op, "op", "")
	start := time.Now()

	end := tr.span(op, "scenario.diagnose", "op")
	sess, _, err := in.sc.Diagnose(in.Opts...)
	end()
	if err != nil {
		return s, err
	}
	s.diagnose = time.Since(start)

	t := time.Now()
	end = tr.span(op, "metaprov.explore", "op")
	expl, err := sess.Explore(ctx, in.sc.Symptom())
	end()
	if err != nil {
		return s, err
	}
	s.explore = time.Since(t)

	t = time.Now()
	end = tr.span(op, "backtest.evaluate", "op")
	run, err := sess.Evaluate(ctx, expl.Candidates, in.sc.Backtest())
	var rep *metarepair.Report
	if err == nil {
		rep, err = run.Wait()
	}
	end()
	if err != nil {
		return s, err
	}
	s.evaluate = time.Since(t)

	err = ck.check(in.Name, in.sc.IntuitiveFix, verdictsOf(rep))
	s.total = time.Since(start)
	endOp()

	diag := sess.EngineStats()
	s.counts = opCounts{
		DiagnoseFirings: diag.Firings,
		BacktestFirings: rep.Engine.Firings,
		GroupJoins:      rep.Engine.GroupJoins,
		DeltaInserts:    rep.Engine.DeltaInserts,
		IndexLookups:    diag.IndexLookups + rep.Engine.IndexLookups,
		IndexRows:       diag.IndexRows + rep.Engine.IndexRows,
		Steps:           expl.Steps,
		Candidates:      expl.Generated,
		Batches:         rep.Batches,
		Accepted:        rep.Accepted,
	}
	s.cands = expl.Candidates
	return s, err
}

// setUpCells runs the workload's set-up setupReps times and keeps the
// last set of instances. It returns each repetition's wall time and, for
// the traced metrics, each repetition's time inside scenario.Instantiate.
func setUpCells(cells []cell, scratch string, tr *tracer) (insts []*instance, total, instantiateOnly []float64, err error) {
	for rep := 0; rep < setupReps; rep++ {
		closeAll(insts)
		dir := filepath.Join(scratch, fmt.Sprintf("setup%d", rep))
		if rep > 0 {
			if err := os.RemoveAll(filepath.Join(scratch, fmt.Sprintf("setup%d", rep-1))); err != nil {
				return nil, nil, nil, err
			}
		}
		insts = insts[:0]
		start := time.Now()
		var instantiateTime time.Duration
		for _, c := range cells {
			in, err := instantiate(c, dir, tr)
			if err != nil {
				closeAll(insts)
				return nil, nil, nil, err
			}
			insts = append(insts, in)
			instantiateTime += in.instantiateDur
		}
		total = append(total, time.Since(start).Seconds())
		instantiateOnly = append(instantiateOnly, ms(instantiateTime))
	}
	return insts, total, instantiateOnly, nil
}

func closeAll(insts []*instance) {
	for _, in := range insts {
		in.close()
	}
}

// runInProcess measures an in-process workload: one client goroutine in a
// closed loop, rounds of one op per cell until the time is up. A traced
// run alternates staged rounds (the per-layer spans) with production
// rounds, so it can state the staged-vs-streaming difference itself.
func runInProcess(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.Name, Trace: cfg.Trace, Seed: cfg.Seed}
	tr := cfg.tracer()
	g, err := loadGolden(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker(g)

	insts, setupTotals, instantiateMS, err := setUpCells(w.seeded(cfg.Seed), cfg.Scratch, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer closeAll(insts)

	// One untimed op per cell fills lazily built state (plans, pools, page cache).
	for _, in := range insts {
		if _, _, err := productionOp(ctx, in, ck); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", in.Name, err)
		}
	}

	production := map[string][]float64{} // cell → op ms
	// Per production round in which every op passed: wall and CPU time of
	// the round, and Report.Timing components summed over its cells.
	var roundWall, roundCPU, solve, history []float64
	var stagedRounds [][]stagedOp // rounds in which every op passed; ops in cell order
	fail := func(in *instance, err error) {
		res.opFailed(fmt.Sprintf("op %d (%s)", res.Attempted, in.Name), err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	minRounds := 1
	if cfg.traced() {
		minRounds = 2 // one staged, one production
	}
	start := time.Now()
	for round := 0; !cfg.done(start, round, minRounds) && ctx.Err() == nil; round++ {
		if cfg.traced() && round%2 == 0 {
			ops := make([]stagedOp, 0, len(insts))
			for _, in := range insts {
				res.Attempted++
				op, err := stagedRepair(ctx, in, ck, tr, res.Attempted)
				if err != nil {
					fail(in, err)
					continue
				}
				ops = append(ops, op)
			}
			if len(ops) == len(insts) {
				stagedRounds = append(stagedRounds, ops)
			}
			continue
		}
		var roundTiming metarepair.Timing
		failed := res.Failed
		roundStart, cpuStart := time.Now(), selfCPUSeconds()
		for _, in := range insts {
			res.Attempted++
			d, timing, err := productionOp(ctx, in, ck)
			if err != nil {
				fail(in, err)
				continue
			}
			production[in.Name] = append(production[in.Name], ms(d))
			roundTiming.ConstraintSolving += timing.ConstraintSolving
			roundTiming.HistoryLookups += timing.HistoryLookups
		}
		if res.Failed == failed {
			roundWall = append(roundWall, time.Since(roundStart).Seconds())
			roundCPU = append(roundCPU, selfCPUSeconds()-cpuStart)
			solve = append(solve, ms(roundTiming.ConstraintSolving))
			history = append(history, ms(roundTiming.HistoryLookups))
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Seconds = wall.Seconds()
	ok := float64(res.Attempted - res.Failed)
	if len(roundWall) == 0 {
		return nil, errors.New("no round completed without a failed op")
	}

	// Per-cell figures and their geometric mean, so that a short cell (Q5)
	// weighs as much as a long one (Q1).
	var cellQuiet, cellP50, normalised []float64
	for _, in := range insts {
		p50 := median(production[in.Name])
		cellQuiet = append(cellQuiet, quiet(production[in.Name]))
		cellP50 = append(cellP50, p50)
		res.set("turnaround_ms_p50."+in.Name, "ms", p50)
		for _, d := range production[in.Name] {
			normalised = append(normalised, d/p50)
		}
	}
	turnaround := geomean(cellP50)
	// The tail is taken over ops normalised by their cell's median and
	// scaled back, so cells of different length pool into one sample.
	if p, v := tailPercentile(normalised); p > 0 {
		res.set("turnaround_ms_tail", "ms", v*turnaround)
		res.set("turnaround_ms_tail.percentile", "count", p)
	}
	res.set("turnaround_ms_tail.samples", "count", float64(len(normalised)))

	cells := float64(len(insts))
	res.set("setup_s", "s", median(setupTotals))
	res.set("turnaround_ms_p10", "ms", geomean(cellQuiet))
	res.set("turnaround_ms_p50", "ms", turnaround)
	res.set("repairs_per_s", "1/s", cells/quiet(roundWall))
	res.set("repairs_per_s.mean", "1/s", ok/wall.Seconds())
	res.set("alloc_mb_per_repair", "MB", float64(after.TotalAlloc-before.TotalAlloc)/1e6/ok)
	res.set("cpu_s_per_repair", "s", quiet(roundCPU)/cells)
	res.set("allocs_per_repair", "count", float64(after.Mallocs-before.Mallocs)/ok)
	res.set("gc_cycles_per_repair", "count", float64(after.NumGC-before.NumGC)/ok)
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		res.set("peak_rss_mb", "MB", rss)
	}
	// From Report.Timing of the production ops; per round like the stage times.
	res.set("solver.solve_ms", "ms", median(solve))
	res.set("provenance.history_ms", "ms", median(history))

	if cfg.traced() {
		res.set("scenario.instantiate_ms", "ms", median(instantiateMS))
		if err := stagedMetrics(res, stagedRounds, turnaround); err != nil {
			return nil, err
		}
		if err := probeLayers(res, insts, stagedRounds[len(stagedRounds)-1]); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := tr.write(cfg.Spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stagedMetrics turns the staged rounds into per-layer metrics. Stage
// times are medians over rounds of the round's summed span time, so they
// add up to round_ms_p50; counts are one round's sums and must repeat.
func stagedMetrics(res *result, rounds [][]stagedOp, turnaround float64) error {
	if len(rounds) == 0 {
		return errors.New("no staged round completed")
	}
	var roundMS, diagnose, explore, evaluate []float64
	var first opCounts
	for i, ops := range rounds {
		var total, d, x, e time.Duration
		var counts opCounts
		for _, op := range ops {
			total += op.total
			d += op.diagnose
			x += op.explore
			e += op.evaluate
			counts.add(op.counts)
		}
		roundMS = append(roundMS, ms(total))
		diagnose = append(diagnose, ms(d))
		explore = append(explore, ms(x))
		evaluate = append(evaluate, ms(e))
		if i == 0 {
			first = counts
		} else if counts != first {
			res.note("work counts differ between rounds 0 and %d: %+v vs %+v", i, first, counts)
		}
	}
	round := median(roundMS)
	res.set("round_ms_p50", "ms", round)
	res.set("round_ms_p50.samples", "count", float64(len(rounds)))
	res.set("scenario.diagnose_ms", "ms", median(diagnose))
	res.set("metaprov.explore_ms", "ms", median(explore))
	res.set("backtest.evaluate_ms", "ms", median(evaluate))

	// The three stage spans must cover the op span: whatever they miss is
	// time the per-layer table cannot attribute.
	coverage := 100 * (median(diagnose) + median(explore) + median(evaluate)) / round
	res.set("stage_coverage", "%", coverage)
	if coverage < 95 {
		res.note("stage spans cover %.1f%% of the traced round, want >= 95%%", coverage)
	}

	var stagedP50 []float64
	for cell := range rounds[0] {
		var ds []float64
		for _, ops := range rounds {
			ds = append(ds, ms(ops[cell].total))
		}
		stagedP50 = append(stagedP50, median(ds))
	}
	// Positive when the default streaming Repair beats running the stages
	// one after the other.
	res.set("streaming_gain_ms", "ms", geomean(stagedP50)-turnaround)

	c := first
	res.set("ndlog.diagnose_firings", "count", float64(c.DiagnoseFirings))
	res.set("ndlog.backtest_firings", "count", float64(c.BacktestFirings))
	res.set("ndlog.backtest_group_joins", "count", float64(c.GroupJoins))
	res.set("ndlog.delta_inserts", "count", float64(c.DeltaInserts))
	if c.BacktestFirings > 0 {
		res.set("ndlog.delta_hit_rate", "%", 100*(1-float64(c.GroupJoins)/float64(c.BacktestFirings)))
	}
	if c.IndexLookups > 0 {
		res.set("ndlog.index_rows_per_lookup", "count", float64(c.IndexRows)/float64(c.IndexLookups))
	}
	res.set("metaprov.steps", "count", float64(c.Steps))
	res.set("metaprov.candidates", "count", float64(c.Candidates))
	res.set("backtest.batches", "count", float64(c.Batches))
	if c.Candidates > 0 {
		res.set("metaprov.steps_per_candidate", "count", float64(c.Steps)/float64(c.Candidates))
		res.set("backtest.ms_per_candidate", "ms", median(evaluate)/float64(c.Candidates))
		res.set("backtest.accepted_share", "%", 100*float64(c.Accepted)/float64(c.Candidates))
	}
	return nil
}

// probe times fn probeReps times and returns the median in milliseconds.
func probe(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(start)))
	}
	return median(ds), nil
}

// probeLayers calls single layers directly, outside any op span, with the
// cells' own programs and workloads. Like the stage times, each metric is
// summed over the workload's cells.
func probeLayers(res *result, insts []*instance, lastRound []stagedOp) error {
	var parse, baseline, record, packetIn, packetInProv, build, ks, scan float64
	var entries, storeEntries, storeBytes int64
	var appendDur time.Duration
	for i, in := range insts {
		sc := in.sc
		src := sc.Prog.String()
		d, err := probe(func() error { _, err := ndlog.Parse(in.Name, src); return err })
		if err != nil {
			return err
		}
		parse += d

		// Diagnose and the same replay minus recorder and tags, in pairs so
		// that both meet the machine in the same state, each from a
		// collected heap so that neither pays for the other's garbage, and
		// in alternating order: the median of the differences is what
		// recording provenance costs.
		job := &backtest.Job{Prog: sc.Prog, BuildNet: sc.BuildNet, State: sc.State,
			Workload: sc.Workload, Source: sc.Source}
		var dist []int64
		timed := func(withRecorder bool) (time.Duration, error) {
			runtime.GC()
			start := time.Now()
			var err error
			if withRecorder {
				_, _, err = sc.Diagnose(in.Opts...)
			} else {
				dist, _, err = job.Baseline()
			}
			return time.Since(start), err
		}
		var base, diff []float64
		for i := 0; i < pairedReps; i++ {
			first := i%2 == 0
			a, err := timed(first)
			if err != nil {
				return err
			}
			b, err := timed(!first)
			if err != nil {
				return err
			}
			if !first {
				a, b = b, a
			}
			base = append(base, ms(b))
			diff = append(diff, ms(a-b))
		}
		baseline += median(base)
		record += median(diff)
		entries += int64(in.entries())

		d, _ = probe(func() error { stats.KSFromCounts(dist, dist); return nil })
		ks += d * 1000

		for _, withProv := range []bool{false, true} {
			d, err = probe(func() error { _, err := bench.StressController(sc.Prog, packetInEvents, withProv); return err })
			if err != nil {
				return err
			}
			if withProv {
				packetInProv += d
			} else {
				packetIn += d
			}
		}

		cands := lastRound[i].cands
		if len(cands) > backtest.MaxSharedCandidates {
			cands = cands[:backtest.MaxSharedCandidates]
		}
		d, err = probe(func() error { _, _, _, err := backtest.BuildSharedProgram(sc.Prog, cands, true); return err })
		if err != nil {
			return err
		}
		build += d

		if in.store != nil {
			var n int64
			d, err = probe(func() error {
				n = 0
				return in.store.Source().Scan(func(trace.Entry) error { n++; return nil })
			})
			if err != nil {
				return err
			}
			if n != int64(in.entries()) {
				return fmt.Errorf("%s: store scan saw %d entries, captured %d", in.Name, n, in.entries())
			}
			scan += d
			st := in.store.Stats()
			storeEntries += st.Entries
			storeBytes += st.Bytes
			appendDur += in.appendDur
		}
	}
	join, err := probe(func() error { _, err := bench.JoinStress(600, 300); return err })
	if err != nil {
		return err
	}

	res.set("ndlog.parse_ms", "ms", parse)
	res.set("ndlog.join_probe_ms", "ms", join)
	res.set("ndlog.packetin_probe_ms", "ms", packetIn)
	res.set("provenance.packetin_probe_ms", "ms", packetInProv)
	res.set("backtest.baseline_ms", "ms", baseline)
	res.set("replay.entries_per_s", "1/s", float64(entries)/(baseline/1000))
	res.set("provenance.record_ms", "ms", record)
	res.set("backtest.build_ms", "ms", build)
	res.set("stats.ks_probe_us", "us", ks)
	if storeEntries > 0 {
		res.set("tracestore.scan_ms", "ms", scan)
		res.set("tracestore.scan_entries_per_s", "1/s", float64(storeEntries)/(scan/1000))
		res.set("tracestore.bytes_per_entry", "B", float64(storeBytes)/float64(storeEntries))
		res.set("tracestore.append_mb_per_s", "MB/s", float64(storeBytes)/1e6/appendDur.Seconds())
	}
	return nil
}
