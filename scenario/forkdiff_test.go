package scenario_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/metarepair"
	"repro/scenario"
)

// rebuildPerCall is the BuildNet a Scenario had before the reference
// fabric was frozen and forked: generate and attach from scratch on every
// call. It is the oracle forks are held to.
func rebuildPerCall(spec scenario.Spec, sc scenario.Scale) func() *sdn.Network {
	gen := spec.Topology
	if gen == nil {
		gen = topo.Campus{}
	}
	return func() *sdn.Network {
		f := gen.Generate(topo.Size{Switches: sc.Switches})
		if spec.Attach != nil {
			spec.Attach(f)
		}
		return f.Net
	}
}

// repairTranscript runs Diagnose + Repair and renders everything a caller
// can observe of the result: candidates in report order with their
// verdicts and KS to five decimals, and the engine work of the shared
// backtests and of the diagnostic run. The barrier pipeline fixes the
// batch cut, so the counters are comparable run to run.
func repairTranscript(t *testing.T, s *scenario.Scenario) string {
	t.Helper()
	sess, _, err := s.Diagnose(metarepair.WithPipelineMode(metarepair.PipelineBarrier))
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	rep, err := sess.Repair(context.Background(), s.Symptom(), s.Backtest())
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	var b strings.Builder
	for i, r := range rep.Results {
		fmt.Fprintf(&b, "%d %s effective=%v accepted=%v KS=%.5f PI=%.5f\n",
			i, r.Candidate.Describe(), r.Effective, r.Accepted, r.KS, r.PacketInFactor)
	}
	fmt.Fprintf(&b, "accepted %d\nbacktest engine %+v\nsession engine %+v\n",
		rep.Accepted, rep.Engine, sess.EngineStats())
	return b.String()
}

// TestForkedBuildNetMatchesRebuild: for every built-in case study, the
// pipeline over forks of the frozen reference fabric reports exactly what
// it reports over networks rebuilt from scratch per replay.
func TestForkedBuildNetMatchesRebuild(t *testing.T) {
	sc := scenario.Scale{Switches: 19, Flows: 300}
	for _, spec := range []scenario.Spec{
		scenario.Q1Spec(), scenario.Q2Spec(), scenario.Q3Spec(), scenario.Q4Spec(), scenario.Q5Spec(),
	} {
		forked := spec.MustInstantiate(sc)
		rebuilt := spec.MustInstantiate(sc)
		rebuilt.BuildNet = rebuildPerCall(spec, sc)
		got, want := repairTranscript(t, forked), repairTranscript(t, rebuilt)
		if got != want {
			t.Errorf("%s: forked BuildNet\n%s\nrebuilt per call\n%s", spec.Name, got, want)
		}
		if !strings.Contains(got, "accepted=true") {
			t.Errorf("%s: no accepted repair, the comparison shows nothing:\n%s", spec.Name, got)
		}
	}
}

// A resolver that writes to the reference fabric would leak into every
// later replay; Instantiate must report it as an invalid spec rather than
// let it through or crash the caller.
func TestInstantiateRejectsResolverMutatingFabric(t *testing.T) {
	spec := scenario.Q1Spec()
	oracle := spec.Oracle
	spec.Oracle = func(f *topo.Fabric) scenario.Effectiveness {
		f.Net.Switches[f.CoreIDs[0]].Install(sdn.FlowEntry{
			Match: sdn.Match{}, Action: sdn.Action{Kind: sdn.ActionDrop}, Tags: ndlog.AllTags})
		return oracle(f)
	}
	s, err := spec.Instantiate(scenario.Scale{Switches: 19, Flows: 100})
	if err == nil || s != nil {
		t.Fatalf("Instantiate = %v, %v; want an error", s, err)
	}
	if !strings.Contains(err.Error(), "Q1") || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("error does not name the scenario and the frozen fabric: %v", err)
	}
}
