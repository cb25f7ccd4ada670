package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/metarepair"
	"repro/scenario"
)

// A third-party spec on a non-campus topology gets the same report from
// forks of its frozen fabric as from networks rebuilt per replay (the
// built-in case studies are held to this in package scenario).
func TestChainSpecForkMatchesRebuild(t *testing.T) {
	spec, sc := chainSpec(), scenario.Scale{Switches: 8, Flows: 300}
	transcript := func(s *scenario.Scenario) string {
		sess, _, err := s.Diagnose(metarepair.WithPipelineMode(metarepair.PipelineBarrier))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Repair(context.Background(), s.Symptom(), s.Backtest())
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("accepted %d\n%+v\n%+v\n", rep.Accepted, rep.Engine, sess.EngineStats())
		for _, r := range rep.Results {
			out += fmt.Sprintf("%s accepted=%v KS=%.5f\n", r.Candidate.Describe(), r.Accepted, r.KS)
		}
		return out
	}
	forked := spec.MustInstantiate(sc)
	rebuilt := spec.MustInstantiate(sc)
	rebuilt.BuildNet = func() *sdn.Network {
		f := spec.Topology.Generate(topo.Size{Switches: sc.Switches})
		spec.Attach(f)
		return f.Net
	}
	got, want := transcript(forked), transcript(rebuilt)
	if got != want || !strings.Contains(got, "accepted=true") {
		t.Fatalf("forked BuildNet\n%s\nrebuilt per call\n%s", got, want)
	}
}
