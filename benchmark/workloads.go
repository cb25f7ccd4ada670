package main

import (
	"fmt"
	"path/filepath"
	"time"

	_ "repro/internal/scenarios" // register Q1–Q5 in the default registry
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// cell is one scenario × scale × options combination. An op repairs one
// cell once; a round runs every cell of the workload once.
type cell struct {
	Name  string // also the registered scenario name
	Scale scenario.Scale
	// Opts are session options on top of the scenario's own defaults.
	Opts []metarepair.Option
	// Store captures the workload into an on-disk trace store at set-up
	// and replays every op from it instead of from memory.
	Store bool
}

// workload is one named input mix. Why is the one-line reason it exists
// (BENCHMARK.json repeats it; the README has the long form).
type workload struct {
	Name    string
	Why     string
	Cells   []cell
	Service bool // driven through a metarepaird child over HTTP
}

// wideSearch is the BenchmarkExplorePipeline regime: a budget wide enough
// that meta-provenance search and constraint solving dominate the op.
var wideSearch = []metarepair.Option{
	metarepair.WithMaxCandidates(64),
	metarepair.WithBudget(metarepair.Budget{CostCutoff: 4.6, MaxPerStructure: 3}),
}

// workloads are the benchmark's four input mixes. Scales sit where each
// scenario's hand-written oracle holds: Q1/Q4 at 6000 flows accept no
// candidate at all, which is a finding for the program, not an input for
// a benchmark whose ops must not fail.
var workloads = []workload{
	{
		Name: "table1",
		Why:  "Q1-Q5 at 19 switches/600 flows from memory: the paper's Table 1 mix, no layer dominates, so a gain on one layer that costs another shows",
		Cells: []cell{
			{Name: "Q1", Scale: scenario.Scale{Switches: 19, Flows: 600}},
			{Name: "Q2", Scale: scenario.Scale{Switches: 19, Flows: 600}},
			{Name: "Q3", Scale: scenario.Scale{Switches: 19, Flows: 600}},
			{Name: "Q4", Scale: scenario.Scale{Switches: 19, Flows: 600}},
			{Name: "Q5", Scale: scenario.Scale{Switches: 19, Flows: 600}},
		},
	},
	{
		Name: "explore-wide",
		Why:  "Q1 at 300 flows under a 64-candidate search budget: metaprov and solver do most of the op, replay and store almost none",
		Cells: []cell{
			{Name: "Q1", Scale: scenario.Scale{Switches: 19, Flows: 300}, Opts: wideSearch},
		},
	},
	{
		Name: "replay-store",
		Why:  "Q4 at 169 switches and Q5 at 6000 flows replayed from an on-disk trace store: at most 4 candidates, so store, sdn and forward evaluation do the work",
		Cells: []cell{
			{Name: "Q4", Scale: scenario.Scale{Switches: 169, Flows: 600}, Store: true},
			{Name: "Q5", Scale: scenario.Scale{Switches: 19, Flows: 6000}, Store: true},
		},
	},
	{
		Name:    "service",
		Why:     "first-accepted Q1 jobs over HTTP against metarepaird with one client per core, beside live trace ingest: early stop, job queue, SSE and the store write path",
		Service: true,
		Cells: []cell{
			{Name: "Q1", Scale: scenario.Scale{Switches: 19, Flows: 600}},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// flowJitterPermille bounds the seed-derived increase of each cell's
// flow count. It is the benchmark's only input knob besides cell order:
// the program sees nothing of the seed but the generated scenario. The
// range is kept small so that the alloc metric, which follows the trace
// length exactly, spreads across seeds by well under its 5% bound.
const flowJitterPermille = 10

// mix is splitmix64: a fixed, well-spread hash of the seed and a cell index.
func mix(seed int64, i int) uint64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seeded returns the workload's cells for a seed: each cell's flow count
// raised by a seed-derived 0–1%, and the round order rotated.
func (w workload) seeded(seed int64) []cell {
	n := len(w.Cells)
	out := make([]cell, n)
	rot := int(mix(seed, -1) % uint64(n))
	for i := range w.Cells {
		c := w.Cells[i]
		span := uint64(c.Scale.Flows*flowJitterPermille/1000 + 1)
		c.Scale.Flows += int(mix(seed, i) % span)
		out[(i+rot)%n] = c
	}
	return out
}

// instance is a cell made runnable by set-up.
type instance struct {
	cell
	sc *scenario.Scenario
	// instantiateDur is the time scenario.Instantiate took.
	instantiateDur time.Duration
	// store backs sc.Source on Store cells; appendDur covers Append+Sync.
	store     *tracestore.Store
	appendDur time.Duration
}

// entries is the length of the instance's recorded workload.
func (in *instance) entries() int { return len(in.sc.Workload) }

func (in *instance) close() {
	if in.store != nil {
		in.store.Close()
	}
}

// instantiate is the set-up of one in-process cell: resolve the scenario
// (topology, trace generation, NDlog parse) and, on Store cells, capture
// the workload into a fresh store under dir that the ops replay from.
func instantiate(c cell, dir string, tr *tracer) (*instance, error) {
	end := tr.span(0, "scenario.instantiate", "setup")
	start := time.Now()
	sc, err := scenario.Instantiate(c.Name, c.Scale)
	end()
	if err != nil {
		return nil, err
	}
	in := &instance{cell: c, sc: sc, instantiateDur: time.Since(start)}
	if !c.Store {
		return in, nil
	}
	end = tr.span(0, "tracestore.append", "setup")
	defer end()
	st, err := tracestore.Open(filepath.Join(dir, c.Name), tracestore.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: opening store: %w", c.Name, err)
	}
	start = time.Now()
	if err := st.Append(sc.Workload...); err != nil {
		st.Close()
		return nil, fmt.Errorf("%s: capturing workload: %w", c.Name, err)
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return nil, fmt.Errorf("%s: syncing store: %w", c.Name, err)
	}
	in.appendDur = time.Since(start)
	in.store = st
	sc.Source = st.Source()
	return in, nil
}
