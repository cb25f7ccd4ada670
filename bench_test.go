// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (§5, Appendices A and E); EXPERIMENTS.md maps
// each benchmark to its artifact and records the measured shapes against
// the paper's. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/backtest"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// benchScale keeps per-iteration work around a second so the full suite
// stays tractable; shapes are scale-invariant.
func benchScale() scenario.Scale { return scenario.Scale{Switches: 19, Flows: 600} }

// BenchmarkTable1_RepairCandidates regenerates Table 1: all five
// diagnostic queries end to end (generate + backtest).
func BenchmarkTable1_RepairCandidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable1(rows))
		}
	}
}

// BenchmarkTable2_Q1Candidates regenerates Table 2: Q1's candidate list
// with KS statistics and verdicts.
func BenchmarkTable2_Q1Candidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CandidateTable(context.Background(), scenario.Q1Spec().MustInstantiate(benchScale()))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatCandidates("Table 2", rows))
		}
	}
}

// BenchmarkTable3_CrossLanguage regenerates Table 3: the five scenarios
// under the Trema and Pyretic front-ends.
func BenchmarkTable3_CrossLanguage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable3(rows))
		}
	}
}

// BenchmarkTable6_Q2toQ5Candidates regenerates the Appendix E panels.
func BenchmarkTable6_Q2toQ5Candidates(b *testing.B) {
	names := []string{"Q2", "Q3", "Q4", "Q5"}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			s, err := scenario.Instantiate(name, benchScale())
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			rows, err := experiments.CandidateTable(context.Background(), s)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			if i == 0 {
				b.Log("\n" + experiments.FormatCandidates("Table 6 "+name, rows))
			}
		}
	}
}

// BenchmarkFigure9a_TurnaroundTime regenerates Figure 9a: the per-scenario
// turnaround breakdown.
func BenchmarkFigure9a_TurnaroundTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9a(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure9a(rows))
		}
	}
}

// BenchmarkFigure9b_Backtesting regenerates Figure 9b: Q1's first k
// candidates backtested one simulation per candidate (Job.RunSequential)
// and in one multi-query shared run (Job.RunShared).
func BenchmarkFigure9b_Backtesting(b *testing.B) {
	ctx := context.Background()
	sess, cands, bt, err := experiments.QuickCandidates(ctx, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	job := experiments.BacktestJob(sess.Program(), bt, cands[:min(len(cands), 9)])
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := job.RunSequential(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MultiQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := job.RunShared(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The incremental-backtesting headline: one shared run filled to the
	// 63-tag ceiling, full fixpoint per run versus the delta path that
	// runs the base fixpoint once and replays every candidate as a tagged
	// delta against it. Delta/Full is the speedup EXPERIMENTS.md records.
	wsess, wide, wbt, err := experiments.WideCandidates(ctx, scenario.Scale{Switches: 19, Flows: 300})
	if err != nil {
		b.Fatal(err)
	}
	if len(wide) > backtest.MaxSharedCandidates {
		wide = wide[:backtest.MaxSharedCandidates]
	}
	shared := func(b *testing.B, eval metarepair.EvalMode) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run, err := wsess.Evaluate(ctx, wide, wbt,
				metarepair.WithParallelism(1),
				metarepair.WithEvalMode(eval))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := run.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Shared63/Full", func(b *testing.B) { shared(b, metarepair.EvalFull) })
	b.Run("Shared63/Delta", func(b *testing.B) { shared(b, metarepair.EvalDelta) })
}

// BenchmarkBatchedBacktest measures the batched-parallel evaluation of a
// candidate set larger than one shared run's 63-tag space: the same
// batches run serially and then concurrently on the worker pool. On a
// multi-core machine the parallel path wins by roughly the batch count
// (up to core count).
func BenchmarkBatchedBacktest(b *testing.B) {
	ctx := context.Background()
	sess, base, bt, err := experiments.QuickCandidates(ctx, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	if len(base) == 0 {
		b.Fatal("no candidates")
	}
	// Replicate Q1's cost-ordered candidates past the 63-tag cliff; each
	// copy is evaluated independently, so verdicts stay comparable.
	var cands []metaprov.Candidate
	for len(cands) < 72 {
		cands = append(cands, base...)
	}
	cands = cands[:72]
	for _, bench := range []struct {
		name string
		opts []metarepair.Option
	}{
		{"SerialBatches", []metarepair.Option{metarepair.WithParallelism(1)}},
		{"ParallelBatches", nil}, // default width: GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := sess.Evaluate(ctx, cands, bt,
					append(bench.opts, metarepair.WithBatchSize(12))...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := run.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplorePipeline measures the end-to-end explore+backtest
// pipeline on Q1 under a widened search budget (64 candidates, cutoff
// 4.6) that puts constraint solving at the top of the profile — the
// paper's Figure 9a regime, and where PR 4's join work left this
// codebase. Three comparisons, all against the Barrier baseline (the
// search drained into a list, then batched backtesting — the
// pre-streaming shape):
//
//   - StreamN: the full report through the streaming pipeline with N
//     explore workers. Candidates and verdicts are identical (see
//     TestStreamingPipelineMatchesBarrier); wall clock improves with
//     hardware parallelism, so on a single-core host this is flat.
//   - FirstAccepted: the early-stop mode — the search and the unstarted
//     batches are cancelled once a repair passes, cutting evaluated work
//     from 64 candidates to one small probe batch.
//   - FirstVerdict/*: latency to the first streamed verdict, the
//     operator-facing number — the streaming pipeline backtests the
//     cheapest batch while the search is still running, instead of
//     waiting for the whole candidate set.
func BenchmarkExplorePipeline(b *testing.B) {
	ctx := context.Background()
	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	sess, _, err := s.Diagnose()
	if err != nil {
		b.Fatal(err)
	}
	wide := []metarepair.Option{
		metarepair.WithMaxCandidates(64),
		metarepair.WithBudget(metarepair.Budget{CostCutoff: 4.6, MaxPerStructure: 3}),
	}
	repair := func(b *testing.B, opts ...metarepair.Option) *metarepair.Report {
		rep, err := sess.Repair(ctx, s.Symptom(), s.Backtest(),
			append(append([]metarepair.Option{}, wide...), opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Accepted == 0 {
			b.Fatal("no accepted repair")
		}
		return rep
	}
	b.Run("Barrier", func(b *testing.B) {
		var rep *metarepair.Report
		for i := 0; i < b.N; i++ {
			rep = repair(b, metarepair.WithPipelineMode(metarepair.PipelineBarrier))
		}
		// Exact and the same in every mode: what the search did for what
		// it emitted.
		b.Logf("%d steps, %d repairs extracted: %d emitted, %d duplicate signatures, %d over the structure cap; %d batches",
			rep.Steps, rep.Extracted, rep.Generated, rep.DuplicateSignatures, rep.CappedStructures, rep.Batches)
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("Stream%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repair(b, metarepair.WithPipelineMode(metarepair.PipelineStreaming),
					metarepair.WithExploreWorkers(workers))
			}
		})
	}
	b.Run("FirstAccepted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := repair(b, metarepair.WithPipelineMode(metarepair.PipelineFirstAccepted),
				metarepair.WithBatchSize(8))
			if !rep.EarlyStopped {
				b.Fatal("first-accepted run did not stop early")
			}
		}
	})
	firstVerdict := func(b *testing.B, opts ...metarepair.Option) {
		run, err := sess.Stream(ctx, s.Symptom(), s.Backtest(),
			append(append([]metarepair.Option{}, wide...), opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := <-run.Suggestions(); !ok {
			b.Fatal("no suggestion streamed")
		}
		b.StopTimer()
		for range run.Suggestions() {
		}
		if _, err := run.Wait(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.Run("FirstVerdict/Barrier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			firstVerdict(b, metarepair.WithPipelineMode(metarepair.PipelineBarrier))
		}
	})
	b.Run("FirstVerdict/Stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			firstVerdict(b, metarepair.WithPipelineMode(metarepair.PipelineStreaming),
				metarepair.WithBatchSize(8))
		}
	})
}

// captureToStore writes a workload into a fresh trace store that lives as
// long as the benchmark.
func captureToStore(b *testing.B, wl []trace.Entry) *tracestore.Store {
	b.Helper()
	st, err := tracestore.Open(b.TempDir(), tracestore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if err := st.Append(wl...); err != nil {
		b.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkReplaySource compares in-memory slice replay against
// streaming replay from the segmented on-disk trace store (binary §5.4
// records): the storage layer's cost for the O(segment)-memory replay
// path that removes the workload-size ceiling.
func BenchmarkReplaySource(b *testing.B) {
	s := scenario.Q1Spec().MustInstantiate(benchScale())
	wl := s.Workload
	st := captureToStore(b, wl)
	b.Run("Memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := s.BuildNet()
			if n := trace.Replay(net, wl, 1); n != len(wl) {
				b.Fatalf("replayed %d of %d", n, len(wl))
			}
		}
	})
	b.Run("Disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := s.BuildNet()
			n, err := trace.ReplaySource(net, st.Source(), 1)
			if err != nil {
				b.Fatal(err)
			}
			if n != len(wl) {
				b.Fatalf("replayed %d of %d", n, len(wl))
			}
		}
	})
}

// BenchmarkReplayFlowRuns is the diagnostic replay of the log-length-bound
// cell of the replay-store workload (Q5 at 6 000 flows, ~95 000 entries in
// runs of ~16 per flow) from memory and from a trace store. Besides time
// and bytes it reports walks/op — the injections that walked the flow
// tables; the rest were applied from the previous traversal's record
// (sdn.Network.Inject) — so entries/op − walks/op over entries/op is the
// record's hit rate behind the ns/entry figure. Scan reads the store with
// a no-op callback: the store read's own share of the Store figure.
func BenchmarkReplayFlowRuns(b *testing.B) {
	s := scenario.Q5Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 6000})
	st := captureToStore(b, s.Workload)
	entries := func(b *testing.B) {
		b.ReportMetric(float64(len(s.Workload)), "entries/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(s.Workload))), "ns/entry")
	}
	for _, from := range []struct {
		name string
		src  trace.Source
	}{
		{"Memory", trace.SliceSource(s.Workload)},
		{"Store", st.Source()},
	} {
		b.Run(from.name, func(b *testing.B) {
			b.ReportAllocs()
			var walks int64
			for i := 0; i < b.N; i++ {
				sess, err := metarepair.NewSession(s.Prog)
				if err != nil {
					b.Fatal(err)
				}
				net := s.BuildNet()
				ctl := sess.Controller()
				net.Ctrl = ctl
				for _, t := range s.State {
					ctl.InsertState(net, t)
				}
				n, err := trace.ReplaySource(net, from.src, 1)
				if err != nil {
					b.Fatal(err)
				}
				if n != len(s.Workload) {
					b.Fatalf("replayed %d of %d", n, len(s.Workload))
				}
				walks += net.Walks
			}
			entries(b)
			b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
		})
	}
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		src := st.Source()
		for i := 0; i < b.N; i++ {
			n, err := src.Count()
			if err != nil {
				b.Fatal(err)
			}
			if n != int64(len(s.Workload)) {
				b.Fatalf("scanned %d of %d", n, len(s.Workload))
			}
		}
		entries(b)
	})
}

// BenchmarkSuiteMatrix measures the concurrent suite runner against a
// one-worker pool on the full Q1–Q5 matrix at one scale: cells are
// independent pipelines, so on a multi-core machine the pool width is
// roughly the speedup (bounded by the slowest cell).
func BenchmarkSuiteMatrix(b *testing.B) {
	for _, bench := range []struct {
		name     string
		parallel int
	}{
		{"Sequential", 1},
		{"Parallel", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				suite := &scenario.Suite{
					Scales:   []scenario.Scale{benchScale()},
					Parallel: bench.parallel,
				}
				m, err := suite.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9c_NetworkScalability regenerates Figure 9c: Q1
// turnaround as the campus grows from 19 to 169 switches.
func BenchmarkFigure9c_NetworkScalability(b *testing.B) {
	for _, n := range []int{19, 49, 79, 109, 139, 169} {
		b.Run(fmt.Sprintf("switches=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: n, Flows: 600})
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10_ProgramScalability regenerates Figure 10 (Appendix
// A): Q1 turnaround as the controller program grows to ~900 lines.
func BenchmarkFigure10_ProgramScalability(b *testing.B) {
	for _, lines := range []int{100, 300, 500, 700, 900} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := scenario.Q1Spec().MustInstantiate(benchScale())
				s.Prog = experiments.AugmentProgram(s.Prog, lines)
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineJoin measures the evaluation core's multi-way join at
// suite scale: a 3-way join (two link hops plus a cost lookup) driven by
// probe events over tables sized like the scenario suite's state. The
// Indexed run uses the compile-time plan and per-table hash indexes; the
// PlannedScan run is the same plan answered by sequential scans — the
// oracle strategy, isolating what the indexes buy. (The seed engine's
// sort-per-join strategy, the ≥10× baseline recorded in EXPERIMENTS.md at
// PR 4, was removed in PR 13.)
func BenchmarkEngineJoin(b *testing.B) {
	const (
		nodes  = 600 // one link + one cost row each, ~suite flow count
		probes = 300
	)
	prog := ndlog.MustParse("join3", bench.JoinStressProgram)
	run := func(b *testing.B, strat ndlog.JoinStrategy) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := ndlog.MustNewEngine(prog)
			eng.SetJoinStrategy(strat)
			for n := 0; n < nodes; n++ {
				eng.Insert(ndlog.NewTuple("Link", ndlog.Int(int64(n)), ndlog.Int(int64((n+1)%nodes))))
				eng.Insert(ndlog.NewTuple("Cost", ndlog.Int(int64(n)), ndlog.Int(int64(10*n))))
			}
			for p := 0; p < probes; p++ {
				eng.Insert(ndlog.NewTuple("Probe", ndlog.Int(int64(p*2%nodes))))
			}
			if got := eng.Count("TwoHop"); got != probes {
				b.Fatalf("TwoHop rows = %d, want %d", got, probes)
			}
		}
	}
	b.Run("Indexed", func(b *testing.B) { run(b, ndlog.JoinIndexed) })
	b.Run("PlannedScan", func(b *testing.B) { run(b, ndlog.JoinScan) })
}

// BenchmarkOverhead_Provenance measures the §5.4 runtime overhead: the
// controller under a Cbench-style PacketIn stream with and without
// provenance maintenance.
func BenchmarkOverhead_Provenance(b *testing.B) {
	s := scenario.Q1Spec().MustInstantiate(benchScale())
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchStress(s.Prog, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchStress(s.Prog, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep, err := experiments.Overhead(benchScale(), 20000)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + experiments.FormatOverhead(rep))
}

func benchStress(prog *ndlog.Program, withProv bool) (any, error) {
	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return nil, err
	}
	if withProv {
		eng.Listen(provenance.NewRecorder())
	}
	for i := 0; i < 2000; i++ {
		eng.Insert(ndlog.NewTuple("PacketIn",
			ndlog.Str("C"), ndlog.Int(int64(1+i%4)), ndlog.Int(1),
			ndlog.Int(int64(1000+i%97)), ndlog.Int(201),
			ndlog.Int(int64(1024+i%511)), ndlog.Int(80)))
	}
	return eng, nil
}

// BenchmarkStorage_LogRate measures the §5.4 logging rate (fixed-width
// binary records per packet, via the trace codec's accounting).
func BenchmarkStorage_LogRate(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		s := scenario.Q1Spec().MustInstantiate(benchScale())
		rate = float64(trace.Bytes(s.Workload))
	}
	b.ReportMetric(rate, "bytes/run")
}

// BenchmarkAblation_CostOrder compares cost-ordered forest exploration
// against uniform-cost exploration under the same step budget (§3.5).
func BenchmarkAblation_CostOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oSteps, fSteps, oCands, fCands, err := experiments.AblationCostOrder(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("ordered: %d steps -> %d candidates; uniform: %d steps -> %d candidates",
				oSteps, oCands, fSteps, fCands)
		}
	}
}

// BenchmarkAblation_Coalescing compares shared backtesting with and
// without identical-rule coalescing (§4.4).
func BenchmarkAblation_Coalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.AblationCoalescing(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("with coalescing %v, without %v", with, without)
		}
	}
}

// BenchmarkAblation_MiniSolver compares a pool that propagation alone
// solves (the paper's mini-solver fast path) against one that leaves a
// variable to the candidate search (§5.1).
func BenchmarkAblation_MiniSolver(b *testing.B) {
	mk := func() *solver.Pool {
		p := solver.NewPool()
		p.Add(solver.Eq(solver.V("A"), solver.CInt(3)))
		p.Add(solver.Eq(solver.V("B"), solver.V("A")))
		p.Add(solver.Eq(solver.V("C"), solver.V("B")))
		return p
	}
	b.Run("mini", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s solver.Solver
			if _, ok := s.Solve(mk()); !ok {
				b.Fatal("unsat")
			}
		}
	})
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s solver.Solver
			p := mk()
			p.Add(solver.Cmp(solver.V("D"), ndlog.OpGt, solver.V("C"))) // D stays free: forces search
			if _, ok := s.Solve(p); !ok {
				b.Fatal("unsat")
			}
		}
	})
}
