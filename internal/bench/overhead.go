// Package bench implements the runtime-overhead measurements of §5.4: a
// Cbench-style stress test streams PacketIn events through the controller
// with and without provenance maintenance, measuring per-event latency and
// sustained throughput, and a storage accountant derives the on-disk
// logging rate from a traffic trace (120-byte records).
package bench

import (
	"fmt"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// StressResult is one stress-test measurement.
type StressResult struct {
	Events     int
	Elapsed    time.Duration
	Throughput float64       // events per second
	MeanLat    time.Duration // mean per-event controller latency
	// Eval are the engine's work counters for the run — firings, and the
	// index-lookup vs full-scan split introduced by the join planner —
	// and Rules their per-rule share, in program order.
	Eval  ndlog.EngineStats
	Rules []ndlog.RuleStats
}

// StressController streams n synthetic PacketIn events through a fresh
// engine compiled from prog; when withProvenance is set, a provenance
// recorder listens (the condition the paper measures against).
func StressController(prog *ndlog.Program, n int, withProvenance bool) (StressResult, error) {
	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return StressResult{}, err
	}
	if withProvenance {
		eng.Listen(provenance.NewRecorder())
	}
	// Cbench-style: distinct flows round-robin over switches and ports.
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.Insert(ndlog.NewTuple("PacketIn",
			ndlog.Str("C"),
			ndlog.Int(int64(1+i%4)),       // switch
			ndlog.Int(int64(1+i%8)),       // in port
			ndlog.Int(int64(1000+i%251)),  // src ip
			ndlog.Int(201),                // dst ip
			ndlog.Int(int64(1024+i%6000)), // src port
			ndlog.Int(80),
		))
	}
	elapsed := time.Since(start)
	res := StressResult{Events: n, Elapsed: elapsed, Eval: eng.Stats, Rules: eng.RuleStats()}
	if elapsed > 0 {
		res.Throughput = float64(n) / elapsed.Seconds()
		res.MeanLat = elapsed / time.Duration(n)
	}
	return res, nil
}

// JoinStressProgram is a 3-way join driven by probe events — the single
// source of truth for the join shape both BenchmarkEngineJoin and
// JoinStress measure; it exercises the planner and hash indexes so the
// engine's index-lookup/scan counters are meaningful (scenario controllers
// are mostly single-atom reactive rules, which never extend a join).
const JoinStressProgram = `
materialize(Link, 1, 2, keys(0,1)).
materialize(Cost, 1, 2, keys(0,1)).
materialize(TwoHop, 1, 3, keys(0,1,2)).
j TwoHop(@X,Z,C) :- Probe(@X), Link(@X,Y), Link(@Y,Z), Cost(@Z,C).
`

// JoinStress streams probe events through the 3-way-join program over
// tables of the given size and returns the measurement, including the
// engine's evaluation counters (index lookups vs scans).
func JoinStress(rows, probes int) (StressResult, error) {
	if rows <= 0 || probes <= 0 {
		return StressResult{}, fmt.Errorf("bench: JoinStress needs positive rows and probes, got %d/%d", rows, probes)
	}
	prog, err := ndlog.Parse("joinstress", JoinStressProgram)
	if err != nil {
		return StressResult{}, err
	}
	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return StressResult{}, err
	}
	for n := 0; n < rows; n++ {
		eng.Insert(ndlog.NewTuple("Link", ndlog.Int(int64(n)), ndlog.Int(int64((n+1)%rows))))
		eng.Insert(ndlog.NewTuple("Cost", ndlog.Int(int64(n)), ndlog.Int(int64(10*n))))
	}
	start := time.Now()
	for p := 0; p < probes; p++ {
		eng.Insert(ndlog.NewTuple("Probe", ndlog.Int(int64(p%rows))))
	}
	elapsed := time.Since(start)
	res := StressResult{Events: probes, Elapsed: elapsed, Eval: eng.Stats}
	if elapsed > 0 {
		res.Throughput = float64(probes) / elapsed.Seconds()
		res.MeanLat = elapsed / time.Duration(probes)
	}
	return res, nil
}

// Overhead compares provenance-on vs provenance-off stress runs and
// returns the relative latency increase and throughput reduction — the
// §5.4 quantities (the paper reports +4.2% latency, −9.8% throughput).
func Overhead(prog *ndlog.Program, n int) (latencyIncrease, throughputReduction float64, on, off StressResult, err error) {
	off, err = StressController(prog, n, false)
	if err != nil {
		return 0, 0, on, off, err
	}
	on, err = StressController(prog, n, true)
	if err != nil {
		return 0, 0, on, off, err
	}
	if off.MeanLat > 0 {
		latencyIncrease = float64(on.MeanLat-off.MeanLat) / float64(off.MeanLat)
	}
	if off.Throughput > 0 {
		throughputReduction = (off.Throughput - on.Throughput) / off.Throughput
	}
	return latencyIncrease, throughputReduction, on, off, nil
}

// StorageRate computes the §5.4 logging rate for an in-memory trace:
// bytes per simulated second per switch under the binary codec's
// fixed-width records. The trace timeline uses its own tick unit;
// ticksPerSecond calibrates it.
func StorageRate(entries []trace.Entry, switches int, ticksPerSecond float64) (bytesPerSecPerSwitch float64) {
	if len(entries) == 0 {
		return 0
	}
	return storageRate(trace.Bytes(entries),
		entries[len(entries)-1].Time-entries[0].Time, switches, ticksPerSecond)
}

// StorageRateFromStore computes the same rate from a durable trace
// store, using the real on-disk segment sizes and the segment indexes'
// timestamp range — the accountant measures what the log actually
// costs, codec overhead included, instead of multiplying by a constant.
func StorageRateFromStore(st *tracestore.Store, switches int, ticksPerSecond float64) (bytesPerSecPerSwitch float64) {
	stats := st.Stats()
	if stats.Entries == 0 {
		return 0
	}
	return storageRate(stats.Bytes, stats.MaxTime-stats.MinTime, switches, ticksPerSecond)
}

func storageRate(totalBytes, ticks int64, switches int, ticksPerSecond float64) float64 {
	if totalBytes == 0 || switches <= 0 || ticksPerSecond <= 0 {
		return 0
	}
	if ticks <= 0 {
		ticks = 1
	}
	seconds := float64(ticks) / ticksPerSecond
	return float64(totalBytes) / seconds / float64(switches)
}
