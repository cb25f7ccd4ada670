package repro

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/backtest"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/scenario"
)

// sharedRunEngine replays a scenario's workload through the tagged shared
// program of its first ≤63 candidates — backtest.Job.RunShared's set-up,
// kept here so the test can reach the engine RunShared only snapshots.
func sharedRunEngine(t *testing.T, s *scenario.Scenario, cands []metaprov.Candidate, mode ndlog.EvalMode) *ndlog.Engine {
	t.Helper()
	shared, inserts, deletes, err := backtest.BuildSharedProgram(s.Prog, cands, true)
	if err != nil {
		t.Fatal(err)
	}
	fullMask := uint64(1)<<(len(cands)+1) - 1
	net := s.BuildNet()
	eng := ndlog.MustNewEngine(shared)
	eng.SetEvalMode(mode)
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	for _, st := range s.State {
		tp := st.Clone()
		tp.Tags = fullMask &^ deletes[tp.Key()]
		ctl.InsertState(net, tp)
	}
	bits := make([]int, 0, len(inserts))
	for bit := range inserts {
		bits = append(bits, bit)
	}
	sort.Ints(bits)
	for _, bit := range bits {
		for _, tp := range inserts[bit] {
			t2 := tp.Clone()
			t2.Tags = 1 << uint(bit)
			ctl.InsertState(net, t2)
		}
	}
	if _, err := trace.ReplaySource(net, trace.SliceSource(s.Workload), fullMask); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRuleStatsSumToEngineStats: on every case study's shared backtest run,
// under both evaluation modes, the per-rule counters add up to the engine
// totals, and the two modes attribute the same firings and derivations to
// the same rules. `go test -v` prints each scenario's top five rules by
// firings — the table EXPERIMENTS.md records for Q3.
func TestRuleStatsSumToEngineStats(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every scenario's shared run twice")
	}
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(benchScale())
		out, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		cands := out.Candidates
		if len(cands) > backtest.MaxSharedCandidates {
			cands = cands[:backtest.MaxSharedCandidates]
		}
		var perMode [2][]ndlog.RuleStats
		for i, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
			eng := sharedRunEngine(t, s, cands, mode)
			rules := eng.RuleStats()
			if len(rules) != len(eng.Program().Rules) {
				t.Fatalf("%s %v: %d rule counters for %d rules", s.Name, mode, len(rules), len(eng.Program().Rules))
			}
			var sum ndlog.RuleStats
			for j, rs := range rules {
				if rs.ID != eng.Program().Rules[j].ID {
					t.Fatalf("%s %v: counter %d is for rule %s, program order has %s", s.Name, mode, j, rs.ID, eng.Program().Rules[j].ID)
				}
				sum.Firings += rs.Firings
				sum.Derivations += rs.Derivations
				sum.GroupJoins += rs.GroupJoins
			}
			st := eng.Stats
			if sum.Firings != st.Firings || sum.Derivations != st.Derivations || sum.GroupJoins != st.GroupJoins {
				t.Errorf("%s %v: per-rule counters sum to %d firings / %d derivations / %d group joins, engine counted %d / %d / %d",
					s.Name, mode, sum.Firings, sum.Derivations, sum.GroupJoins, st.Firings, st.Derivations, st.GroupJoins)
			}
			if st.Firings == 0 || (mode == ndlog.EvalDelta) != (st.GroupJoins > 0) {
				t.Errorf("%s %v: %d firings, %d group joins", s.Name, mode, st.Firings, st.GroupJoins)
			}
			perMode[i] = rules
		}
		for j, f := range perMode[0] {
			if d := perMode[1][j]; f.Firings != d.Firings || f.Derivations != d.Derivations {
				t.Errorf("%s rule %s: full %d firings / %d derivations, delta %d / %d",
					s.Name, f.ID, f.Firings, f.Derivations, d.Firings, d.Derivations)
			}
		}
		var firings, joins int64
		for _, rs := range perMode[1] {
			firings += rs.Firings
			joins += rs.GroupJoins
		}
		t.Logf("%s, %d candidates, %d rules in the shared program, %d firings off %d group joins; top rules by firings (delta):\n%s",
			s.Name, len(cands), len(perMode[1]), firings, joins, topRules(perMode[1], 5))
	}
}

// topRules renders the n busiest rules, one per line.
func topRules(rules []ndlog.RuleStats, n int) string {
	rules = append([]ndlog.RuleStats(nil), rules...)
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Firings > rules[j].Firings })
	var total int64
	for _, rs := range rules {
		total += rs.Firings
	}
	var b strings.Builder
	for _, rs := range rules[:min(n, len(rules))] {
		fmt.Fprintf(&b, "  %-14s %8d firings (%4.1f%%) %7d derivations %7d group joins\n",
			rs.ID, rs.Firings, 100*float64(rs.Firings)/float64(max(total, 1)), rs.Derivations, rs.GroupJoins)
	}
	return b.String()
}
