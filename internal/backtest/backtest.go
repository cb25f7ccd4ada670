// Package backtest evaluates repair candidates against historical traffic
// (§4.3–§4.4): each candidate's patched program is replayed over the
// recorded workload, per-host delivery distributions are compared to the
// pre-repair baseline with a two-sample KS test, and candidates that are
// ineffective (symptom persists) or too disruptive (distribution shifts
// significantly) are rejected. RunShared implements the multi-query
// optimization: all candidates run in one tagged simulation, sharing every
// computation their programs have in common. Pipeline is the one scheduler
// above it: it cuts a candidate stream (live or pre-materialized) into
// ≤63-candidate shared runs on a worker pool. RunSequential — one
// simulation per candidate — is the reference oracle.
package backtest

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MaxSharedCandidates is the tag-space limit of one shared run: tag bit 0
// carries the baseline, leaving 63 bits for candidates. Larger candidate
// sets are split into batches by Pipeline.
const MaxSharedCandidates = 63

// alpha is the KS significance level of the §4.3 disruption test: a
// candidate whose delivery distribution differs from the baseline's at
// p < alpha is rejected. It is the paper's level.
const alpha = 0.05

// Job describes one backtesting task.
type Job struct {
	// Prog is the original (buggy) controller program.
	Prog *ndlog.Program
	// Candidates are the repairs to evaluate (at most 63 per shared run).
	Candidates []metaprov.Candidate
	// BuildNet returns a network no other run touches (topology +
	// proactive state, no controller attached), once per simulation and
	// concurrently across batches. Build the network once, Freeze it and
	// pass its Fork method: a fork costs O(switches + hosts), a rebuild
	// every proactive entry.
	BuildNet func() *sdn.Network
	// State are controller tuples inserted before traffic (policy tables).
	State []ndlog.Tuple
	// Workload is the recorded packet trace to replay, as an in-memory
	// slice — the compatibility adapter. Source takes precedence.
	Workload []trace.Entry
	// Source streams the recorded workload (e.g. from a segmented
	// on-disk trace store); replay memory is then independent of trace
	// length. Sources are re-scanned once per simulation, so they must
	// be rewindable (every tracestore view is).
	Source trace.Source
	// Effective decides whether the symptom is fixed for a tag in the
	// replayed network (e.g. "H2 received HTTP traffic"). The controller
	// is exposed so checks can inspect controller state (Q5's learning
	// table).
	Effective func(net *sdn.Network, ctl *sdn.NDlogController, tag int) bool
	// MaxPacketInFactor, when positive, rejects candidates whose
	// controller PacketIn load exceeds this multiple of the baseline —
	// the "significant increases of controller traffic" side effect the
	// paper's Q4 evaluation rejects (Table 6(c)).
	MaxPacketInFactor float64
	// Coalesce merges syntactically identical candidate rule copies in
	// shared runs (the §4.4 static-analysis optimization); on by default
	// via NewJob-style zero handling — set SkipCoalesce to disable.
	SkipCoalesce bool
	// Eval selects the engine evaluation mode for shared runs:
	// ndlog.EvalDelta switches the controller engine to delta-grouped
	// trigger evaluation, evaluating each candidate as a delta over the
	// shared baseline computation. The zero value (ndlog.EvalFull) keeps
	// the reference engine path; the replay network is the same either
	// way, and so are the verdicts (the delta differential tests are the
	// oracle).
	Eval ndlog.EvalMode
}

// Result is the verdict for one candidate.
type Result struct {
	Candidate metaprov.Candidate
	// Effective: the symptom is gone under this candidate.
	Effective bool
	// KS is the D statistic vs. the baseline distribution; P its p-value.
	KS float64
	P  float64
	// PacketInFactor is the candidate's controller load relative to the
	// baseline (1 = unchanged).
	PacketInFactor float64
	// HopLimited counts the packet copies the candidate's replay dropped at
	// the hop limit: nonzero means its tables loop traffic. It is evidence
	// for the report, not a rejection rule.
	HopLimited int64
	// Accepted = effective and not significantly disruptive.
	Accepted bool
}

// String renders the result as a Table 2 row.
func (r Result) String() string {
	verdict := "rejected"
	if r.Accepted {
		verdict = "ACCEPTED"
	}
	return fmt.Sprintf("%-70s KS=%.5f  %s", r.Candidate.Describe(), r.KS, verdict)
}

// workloadSource resolves the streaming source: an explicit Source wins,
// otherwise the in-memory slice is adapted.
func (j *Job) workloadSource() trace.Source {
	if j.Source != nil {
		return j.Source
	}
	return trace.SliceSource(j.Workload)
}

// runOne replays the workload through one program variant and returns the
// resulting network and controller (tag 0 carries the variant).
func (j *Job) runOne(prog *ndlog.Program, inserts, deletes []ndlog.Tuple) (*sdn.Network, *sdn.NDlogController, error) {
	net := j.BuildNet()
	eng := ndlog.MustNewEngine(prog)
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	deleted := make(map[string]bool)
	for _, d := range deletes {
		deleted[d.Key()] = true
	}
	for _, st := range j.State {
		if deleted[st.Key()] {
			continue
		}
		ctl.InsertState(net, st)
	}
	for _, ins := range inserts {
		ctl.InsertState(net, ins)
	}
	if _, err := trace.ReplaySource(net, j.workloadSource(), 1); err != nil {
		return nil, nil, fmt.Errorf("backtest: replaying workload: %w", err)
	}
	return net, ctl, nil
}

// Baseline replays the unmodified program and returns its per-host
// delivery distribution and controller PacketIn count.
func (j *Job) Baseline() ([]int64, int64, error) {
	net, _, err := j.runOne(j.Prog, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return net.Distribution(0), net.PacketInsByTag[0], nil
}

// RunSequential backtests each candidate in its own simulation (the upper
// curve of Figure 9b) — the reference oracle shared runs are checked
// against. Cancelling ctx stops between candidate replays and returns the
// verdicts reached so far.
func (j *Job) RunSequential(ctx context.Context) ([]Result, error) {
	baseline, basePI, err := j.Baseline()
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(j.Candidates))
	baseErr := meta.Validate(j.Prog) // Apply validates only what a patch edits
	for _, c := range j.Candidates {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		patch, err := c.Apply(j.Prog)
		if err != nil || baseErr != nil {
			out = append(out, Result{Candidate: c})
			continue
		}
		net, ctl, err := j.runOne(patch.Prog, patch.Inserts, patch.Deletes)
		if err != nil {
			return out, err
		}
		out = append(out, j.judge(c, baseline, net, ctl, 0, basePI))
	}
	return out, nil
}

// cancelSource wraps a workload source with a per-entry cancellation check
// so a first-accepted early stop aborts an in-flight shared replay instead
// of letting it finish silently. The check is a flag the context sets while
// a scan runs: ctx.Err takes the context's mutex, once per replayed entry.
type cancelSource struct {
	ctx context.Context
	src trace.Source
}

func (c *cancelSource) Scan(fn func(trace.Entry) error) error {
	var cancelled atomic.Bool
	stop := context.AfterFunc(c.ctx, func() { cancelled.Store(true) })
	defer stop()
	if c.ctx.Err() != nil {
		cancelled.Store(true) // AfterFunc's goroutine may not have run yet
	}
	return c.src.Scan(func(e trace.Entry) error {
		if cancelled.Load() {
			return c.ctx.Err()
		}
		return fn(e)
	})
}

// RunShared backtests all candidates (at most MaxSharedCandidates) in a
// single tagged simulation (§4.4): tag bit 0 is the baseline program;
// candidate i runs under tag bit i+1. Rules untouched by a candidate keep
// its tag bit, so shared computation happens once. Cancelling ctx aborts
// the replay between workload entries. The returned stats snapshot the
// shared-run engine's work counters (the delta accounting surfaced on
// /metrics).
func (j *Job) RunShared(ctx context.Context) ([]Result, ndlog.EngineStats, error) {
	var zero ndlog.EngineStats
	if len(j.Candidates) > MaxSharedCandidates {
		return nil, zero, fmt.Errorf("backtest: %d candidates exceed the %d-tag limit (use Pipeline)",
			len(j.Candidates), MaxSharedCandidates)
	}
	shared, inserts, deletes, err := BuildSharedProgram(j.Prog, j.Candidates, !j.SkipCoalesce)
	if err != nil {
		return nil, zero, err
	}
	fullMask := uint64(1)<<(len(j.Candidates)+1) - 1

	net := j.BuildNet()
	eng := ndlog.MustNewEngine(shared)
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	if j.Eval == ndlog.EvalDelta {
		eng.SetEvalMode(ndlog.EvalDelta)
	}

	// Seed controller state: a tuple deleted by candidate i is inserted
	// with i's tag bit cleared. The key is computed on the clone so the
	// interned string stays goroutine-local when batches run in parallel
	// over shared state slices.
	for _, st := range j.State {
		tp := st.Clone()
		tp.Tags = fullMask &^ deletes[tp.Key()]
		ctl.InsertState(net, tp)
	}
	// Candidate-specific manual insertions.
	for bit, ins := range inserts {
		for _, tp := range ins {
			t2 := tp.Clone()
			t2.Tags = 1 << uint(bit)
			ctl.InsertState(net, t2)
		}
	}
	src := j.workloadSource()
	if ctx.Done() != nil {
		src = &cancelSource{ctx: ctx, src: src}
	}
	if _, err := trace.ReplaySource(net, src, fullMask); err != nil {
		return nil, eng.Stats, fmt.Errorf("backtest: replaying workload: %w", err)
	}

	baseline := net.Distribution(0)
	basePI := net.PacketInsByTag[0]
	out := make([]Result, 0, len(j.Candidates))
	for i, c := range j.Candidates {
		tag := i + 1
		out = append(out, j.judge(c, baseline, net, ctl, tag, basePI))
	}
	return out, eng.Stats, nil
}

// judge applies the §4.3 acceptance test to the candidate replayed under
// tag: effective, KS-compatible with the baseline at significance alpha,
// and without a controller-load blowup.
func (j *Job) judge(c metaprov.Candidate, baseline []int64, net *sdn.Network, ctl *sdn.NDlogController, tag int, basePI int64) Result {
	d, p := stats.KSFromCounts(baseline, net.Distribution(tag))
	pi := net.PacketInsByTag[tag]
	eff := true
	if j.Effective != nil {
		eff = j.Effective(net, ctl, tag)
	}
	factor := 1.0
	if basePI > 0 {
		factor = float64(pi) / float64(basePI)
	} else if pi > 0 {
		factor = float64(pi)
	}
	accepted := eff && p >= alpha
	if j.MaxPacketInFactor > 0 && factor > j.MaxPacketInFactor {
		accepted = false
	}
	return Result{
		Candidate:      c,
		Effective:      eff,
		KS:             d,
		P:              p,
		PacketInFactor: factor,
		HopLimited:     net.HopLimitedByTag[tag],
		Accepted:       accepted,
	}
}

// BuildSharedProgram assembles the §4.4 backtesting program: every
// original rule restricted away from the candidates that modify or delete
// it, plus per-candidate copies of the modified rules restricted to that
// candidate's tag. Which rules those are is read off each candidate's
// patch (meta.Patch.Edited / Dropped): the candidate is applied once and no
// Change kind needs to be known here. It returns the program,
// per-candidate-bit manual insertions, and a map from base-tuple key to the
// tag bits that delete it.
func BuildSharedProgram(prog *ndlog.Program, cands []metaprov.Candidate, coalesce bool) (*ndlog.Program, map[int][]ndlog.Tuple, map[string]uint64, error) {
	type variant struct {
		rule   *ndlog.Rule
		bits   uint64
		origID string // "" for candidate-added rules
	}
	touched := make(map[string]uint64) // rule ID -> bits of candidates changing/deleting it
	var variants []variant
	inserts := make(map[int][]ndlog.Tuple)
	deletes := make(map[string]uint64)

	origStr := make(map[string]string) // base rules rendered, at most once each
	baseErr := meta.Validate(prog)     // Apply validates only what a patch edits
	for i, c := range cands {
		bit := uint64(1) << uint(i+1)
		patch, err := c.Apply(prog)
		if err != nil || baseErr != nil {
			// Unapplicable candidate: give it no rules at all so it is
			// judged ineffective rather than failing the whole batch.
			continue
		}
		for _, ins := range patch.Inserts {
			inserts[i+1] = append(inserts[i+1], ins)
		}
		for _, del := range patch.Deletes {
			deletes[del.Key()] |= bit
		}
		// The patch's own edit log names the rules it touched, in program
		// order with added rules last — the variant order of each
		// candidate's sequential run.
		for _, id := range patch.Dropped() {
			touched[id] |= bit
		}
		for _, r := range patch.Edited() {
			origID := ""
			if orig := prog.Rule(r.ID); orig != nil {
				os, cached := origStr[r.ID]
				if !cached {
					os = orig.String()
					origStr[r.ID] = os
				}
				if os == r.String() {
					continue // edited back to what it was: the original serves
				}
				origID = r.ID
			}
			touched[r.ID] |= bit
			cp := r.Clone()
			cp.ID = fmt.Sprintf("%s~c%d", r.ID, i+1)
			variants = append(variants, variant{rule: cp, bits: bit, origID: origID})
		}
	}
	// Coalescing (§4.4): merge candidate copies whose bodies are
	// syntactically identical, OR-ing their tag bits.
	if coalesce {
		merged := make(map[string]int)
		var kept []variant
		for _, v := range variants {
			key := ruleBodyKey(v.rule)
			if idx, ok := merged[key]; ok {
				kept[idx].bits |= v.bits
				continue
			}
			merged[key] = len(kept)
			kept = append(kept, v)
		}
		variants = kept
	}
	// Assemble the shared program: each original rule (restricted away
	// from the candidates that touch it) immediately followed by its
	// candidate variants, preserving the original rule order — flow
	// entries with tied priorities then install in the same order as in
	// each candidate's sequential run.
	fullMask := uint64(1)<<(len(cands)+1) - 1
	shared := prog.Clone()
	var rules []*ndlog.Rule
	for _, r := range shared.Rules {
		r.TagMask = fullMask &^ touched[r.ID]
		rules = append(rules, r)
		for _, v := range variants {
			if v.origID == r.ID {
				cp := v.rule
				cp.TagMask = v.bits
				rules = append(rules, cp)
			}
		}
	}
	for _, v := range variants {
		if v.origID == "" {
			cp := v.rule
			cp.TagMask = v.bits
			rules = append(rules, cp)
		}
	}
	shared.Rules = rules
	return shared, inserts, deletes, nil
}

// ruleBodyKey canonicalizes a rule for coalescing: everything except its ID.
func ruleBodyKey(r *ndlog.Rule) string {
	c := r.Clone()
	c.ID = "x"
	return c.String()
}
