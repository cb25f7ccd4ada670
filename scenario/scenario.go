// Package scenario is the public declarative scenario surface of the
// debugger: a Spec describes a diagnostic case study — a buggy controller
// program, a topology generator, a workload generator, a symptom goal,
// and an effectiveness oracle — and a Registry makes specs addressable by
// name, so third-party packages define scenarios exactly the way the
// built-in §5.3 case studies (Q1–Q5, registered on import) do.
//
// A Spec is instantiated at a Scale into a runnable Scenario, which
// executes the full diagnose → generate → backtest pipeline through the
// metarepair.Session API. The Suite runner evaluates scenario × scale
// matrices concurrently on a worker pool, streaming per-cell progress
// through the metarepair event-sink machinery and aggregating a
// Figure 9-style matrix report.
//
// Defining a scenario:
//
//	spec := scenario.Spec{
//	    Name:     "my-bug",
//	    Topology: topo.Linear{},                   // any topo.Generator
//	    Attach:   func(f *topo.Fabric) { ... },    // wire the reactive zone
//	    Program:  func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) { ... },
//	    Workload: func(f *topo.Fabric, sc scenario.Scale) []trace.Entry { ... },
//	    Goal:     func(f *topo.Fabric) metaprov.Goal { ... },
//	    Oracle:   func(f *topo.Fabric) scenario.Effectiveness { ... },
//	}
//	scenario.MustRegister(spec)
//	s, err := scenario.Instantiate("my-bug", scenario.DefaultScale())
//	out, err := s.Run(ctx)
package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/backtest"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/metarepair"
)

// Scale sizes a scenario instance: the topology's switch budget (19
// reproduces the paper's base campus; up to 169 for Figure 9c) and the
// workload volume.
type Scale struct {
	Switches int
	Flows    int
}

// DefaultScale is the base evaluation setting.
func DefaultScale() Scale { return Scale{Switches: 19, Flows: 900} }

// String labels the scale in reports and event logs.
func (sc Scale) String() string { return fmt.Sprintf("%dsw/%dfl", sc.Switches, sc.Flows) }

// Timing is the Figure 9a turnaround breakdown.
type Timing = metarepair.Timing

// Effectiveness judges whether the symptom is fixed for a tag in a
// replayed network — the per-candidate oracle of §4.3.
type Effectiveness = func(net *sdn.Network, ctl *sdn.NDlogController, tag int) bool

// Scenario is one runnable diagnostic case study, produced by
// Spec.Instantiate. Its fields are the fully resolved pipeline inputs;
// experiments may mutate them (e.g. swapping Prog for a scaled program or
// Source for a trace-store view) before Run.
type Scenario struct {
	Name  string
	Query string
	// Scale is the instantiation scale; Topology names the generated
	// shape. Both are informational (reports, event labels).
	Scale    Scale
	Topology string

	Prog  *ndlog.Program
	State []ndlog.Tuple

	// BuildNet returns a network no other run touches: the topology with
	// proactive routes installed and the reactive zone wired (no
	// controller). Instantiate sets it to the Fork method of the frozen
	// reference fabric; a replacement must likewise be deterministic and
	// safe to call concurrently — backtesting takes one network per
	// in-flight batch.
	BuildNet func() *sdn.Network
	// Workload is the recorded traffic, generated in memory.
	Workload []trace.Entry
	// Source, when set, streams the recorded traffic instead — e.g. a
	// tracestore view replaying a captured log — so scenario runs never
	// materialize the workload. Takes precedence over Workload.
	Source trace.Source
	// Goal is the missing-tuple symptom (negative symptoms; all five
	// built-in case studies are phrased this way, as in Table 1).
	Goal metaprov.Goal
	// Effective checks whether the symptom is fixed under a tag.
	Effective Effectiveness
	// IntuitiveFix is a substring of the repair a human operator would
	// choose; it must be generated and accepted.
	IntuitiveFix string
	// Options are the scenario's session options (search budget, candidate
	// cap), matching the paper's per-query cost bounds.
	Options []metarepair.Option
	// MaxPacketInFactor enables the controller-load metric (Q4).
	MaxPacketInFactor float64
}

// Outcome is one end-to-end run: diagnose → generate → backtest.
type Outcome struct {
	Scenario   *Scenario
	Session    *metarepair.Session
	Report     *metarepair.Report
	Candidates []metaprov.Candidate
	Results    []backtest.Result
	Generated  int
	Passed     int
	Timing     Timing
}

// IntuitiveFixAccepted reports whether the scenario's intuitive fix was
// generated and survived backtesting; scenarios that do not declare one
// trivially pass.
func (o *Outcome) IntuitiveFixAccepted() bool {
	if o.Scenario == nil || o.Scenario.IntuitiveFix == "" {
		return true
	}
	for _, r := range o.Results {
		if r.Accepted && strings.Contains(r.Candidate.Describe(), o.Scenario.IntuitiveFix) {
			return true
		}
	}
	return false
}

// sessionOptions merges scenario tuning with per-call extras.
func (s *Scenario) sessionOptions(extra []metarepair.Option) []metarepair.Option {
	opts := append([]metarepair.Option{}, s.Options...)
	if s.MaxPacketInFactor > 0 {
		opts = append(opts, metarepair.WithMaxPacketInFactor(s.MaxPacketInFactor))
	}
	return append(opts, extra...)
}

// Diagnose replays the workload through the buggy program inside a fresh
// repair session, recording provenance — the run in which the operator
// observes the symptom. The returned session holds the history every
// later pipeline stage consumes.
func (s *Scenario) Diagnose(extra ...metarepair.Option) (*metarepair.Session, time.Duration, error) {
	start := time.Now()
	sess, err := metarepair.NewSession(s.Prog, s.sessionOptions(extra)...)
	if err != nil {
		return nil, 0, err
	}
	net := s.BuildNet()
	ctl := sess.Controller()
	net.Ctrl = ctl
	for _, st := range s.State {
		ctl.InsertState(net, st)
	}
	n, err := trace.ReplaySource(net, s.workloadSource(), 1)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: replaying workload: %w", s.Name, err)
	}
	if s.Source == nil && n != len(s.Workload) {
		return nil, 0, fmt.Errorf("%s: partial replay: %d of %d entries", s.Name, n, len(s.Workload))
	}
	if s.Effective != nil && s.Effective(net, ctl, 0) {
		return nil, 0, fmt.Errorf("%s: bug not reproduced — symptom absent in buggy run", s.Name)
	}
	return sess, time.Since(start), nil
}

// Symptom is the scenario's diagnostic query as a pipeline symptom.
func (s *Scenario) Symptom() metarepair.Symptom {
	return metarepair.Symptom{Goal: s.Goal}
}

// workloadSource streams the scenario's traffic: a captured store view
// when set, otherwise the generated in-memory slice.
func (s *Scenario) workloadSource() trace.Source {
	if s.Source != nil {
		return s.Source
	}
	return trace.SliceSource(s.Workload)
}

// Backtest is the scenario's historical evidence for candidate
// evaluation. The workload is handed over as a stream, so store-backed
// scenarios backtest in O(segment) memory.
func (s *Scenario) Backtest() metarepair.Backtest {
	return metarepair.Backtest{
		BuildNet:  s.BuildNet,
		State:     s.State,
		Source:    s.workloadSource(),
		Effective: s.Effective,
	}
}

// Run executes the full pipeline and collects the Figure 9a breakdown.
func (s *Scenario) Run(ctx context.Context, extra ...metarepair.Option) (*Outcome, error) {
	sess, replayTime, err := s.Diagnose(extra...)
	if err != nil {
		return nil, err
	}
	rep, err := sess.Repair(ctx, s.Symptom(), s.Backtest())
	if err != nil {
		return nil, err
	}
	return s.outcome(sess, rep, replayTime), nil
}

// outcome folds a report and the diagnostic replay time into the
// scenario-level view.
func (s *Scenario) outcome(sess *metarepair.Session, rep *metarepair.Report, replayTime time.Duration) *Outcome {
	t := rep.Timing
	t.Replay += replayTime
	return &Outcome{
		Scenario:   s,
		Session:    sess,
		Report:     rep,
		Candidates: rep.Candidates,
		Results:    rep.Results,
		Generated:  len(rep.Candidates),
		Passed:     rep.Accepted,
		Timing:     t,
	}
}
