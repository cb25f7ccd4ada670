package scenarios

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/backtest"
	"repro/internal/sdn"
	"repro/metarepair"
	"repro/scenario"
)

// smallScale keeps unit-test runtimes reasonable while preserving the
// workload proportions the KS filter depends on.
func smallScale() scenario.Scale { return scenario.Scale{Switches: 19, Flows: 700} }

// runScenario executes the full pipeline and applies the Table 1 shape
// checks: candidates generated, a few accepted, the intuitive fix among
// the accepted ones.
func runScenario(t *testing.T, s *scenario.Scenario) *scenario.Outcome {
	t.Helper()
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if out.Generated == 0 {
		t.Fatalf("%s: no repair candidates generated", s.Name)
	}
	if out.Passed == 0 {
		for _, r := range out.Results {
			t.Logf("%s: %s", s.Name, r)
		}
		t.Fatalf("%s: no candidate passed backtesting", s.Name)
	}
	if out.Passed == out.Generated && out.Generated > 4 {
		t.Fatalf("%s: backtesting filtered nothing (%d/%d)", s.Name, out.Passed, out.Generated)
	}
	found := false
	for _, r := range out.Results {
		if strings.Contains(r.Candidate.Describe(), s.IntuitiveFix) {
			found = true
			if !r.Accepted {
				for _, rr := range out.Results {
					t.Logf("%s: %s", s.Name, rr)
				}
				t.Fatalf("%s: intuitive fix %q rejected (KS=%.5f, p=%.4g, eff=%v)",
					s.Name, s.IntuitiveFix, r.KS, r.P, r.Effective)
			}
		}
	}
	if !found {
		for _, c := range out.Candidates {
			t.Logf("%s candidate: %s", s.Name, c.Describe())
		}
		t.Fatalf("%s: intuitive fix %q not among candidates", s.Name, s.IntuitiveFix)
	}
	if !out.IntuitiveFixAccepted() {
		t.Fatalf("%s: IntuitiveFixAccepted disagrees with the per-result scan", s.Name)
	}
	return out
}

func TestQ1EndToEnd(t *testing.T) {
	out := runScenario(t, scenario.Q1Spec().MustInstantiate(smallScale()))
	// Paper band: ~9-13 generated, 2-3 accepted.
	if out.Generated < 5 {
		t.Errorf("Q1 generated %d candidates, want >= 5", out.Generated)
	}
	if out.Passed > out.Generated/2+1 {
		t.Errorf("Q1 accepted %d of %d — filter too lax", out.Passed, out.Generated)
	}
}

func TestQ2EndToEnd(t *testing.T) {
	runScenario(t, scenario.Q2Spec().MustInstantiate(smallScale()))
}

func TestQ3EndToEnd(t *testing.T) {
	out := runScenario(t, scenario.Q3Spec().MustInstantiate(smallScale()))
	// The firewall-bypass repair (deleting the white-list check) must be
	// rejected: it admits the scanners.
	for _, r := range out.Results {
		if strings.Contains(r.Candidate.Describe(), "delete predicate FwWhite") && r.Accepted {
			t.Errorf("Q3: white-list deletion accepted (KS=%.5f)", r.KS)
		}
	}
}

// TestQ3LoopEvidence: two of Q3's candidates send traffic round a
// forwarding loop. The shared run reports each candidate's hop-limited
// copies exactly as its own sequential run (Job.RunSequential, the
// reference oracle) does, no accepted repair has
// any, and the shared run charges the loops as laps instead of walking
// them to the hop limit.
func TestQ3LoopEvidence(t *testing.T) {
	s := scenario.Q3Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 600})
	ctx := context.Background()
	sess, _, err := s.Diagnose(metarepair.WithPipelineMode(metarepair.PipelineBarrier))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var nets []*sdn.Network
	bt := s.Backtest()
	bt.BuildNet = func() *sdn.Network {
		n := s.BuildNet()
		mu.Lock()
		nets = append(nets, n)
		mu.Unlock()
		return n
	}
	shared, err := sess.Repair(ctx, s.Symptom(), bt)
	if err != nil {
		t.Fatal(err)
	}
	seqBt := s.Backtest()
	job := &backtest.Job{Prog: s.Prog, Candidates: shared.Candidates, BuildNet: seqBt.BuildNet,
		State: seqBt.State, Source: seqBt.Source, Effective: seqBt.Effective,
		MaxPacketInFactor: s.MaxPacketInFactor}
	seq, err := job.RunSequential(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Results) != len(seq) {
		t.Fatalf("%d shared verdicts, %d sequential", len(shared.Results), len(seq))
	}
	looping := 0
	for i, r := range shared.Results {
		q := seq[i]
		if r.Candidate.Signature() != q.Candidate.Signature() || r.Accepted != q.Accepted || r.HopLimited != q.HopLimited {
			t.Errorf("candidate %d: shared %s accepted=%v hop-limited=%d, sequential %s accepted=%v hop-limited=%d", i,
				r.Candidate.Describe(), r.Accepted, r.HopLimited, q.Candidate.Describe(), q.Accepted, q.HopLimited)
		}
		if r.HopLimited > 0 {
			looping++
			t.Logf("%d hop-limited copies: %s", r.HopLimited, r)
			if r.Accepted {
				t.Errorf("accepted repair loops traffic: %s", r)
			}
		}
	}
	var walks, laps, hops int64
	for _, n := range nets {
		walks, laps, hops = walks+n.Walks, laps+n.Laps, hops+n.Hops
	}
	t.Logf("shared run: %d walks, %d laps closed, %d hops", walks, laps, hops)
	if looping == 0 || laps == 0 {
		t.Fatalf("%d looping candidates and %d laps; Q3's loops are gone, the test shows nothing", looping, laps)
	}
}

func TestQ4EndToEnd(t *testing.T) {
	out := runScenario(t, scenario.Q4Spec().MustInstantiate(smallScale()))
	// Head-change repairs degenerate into per-packet forwarding and must
	// be rejected on controller load.
	for _, r := range out.Results {
		if strings.Contains(r.Candidate.Describe(), "change the head of g1") && r.Accepted {
			t.Errorf("Q4: head change accepted despite PacketIn factor %.1f", r.PacketInFactor)
		}
	}
}

func TestQ5EndToEnd(t *testing.T) {
	runScenario(t, scenario.Q5Spec().MustInstantiate(smallScale()))
}

func TestAllScenariosDistinct(t *testing.T) {
	sc := smallScale()
	names := map[string]bool{}
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(sc)
		if names[s.Name] {
			t.Fatalf("duplicate scenario %s", s.Name)
		}
		names[s.Name] = true
		if s.Prog == nil || s.BuildNet == nil || len(s.Workload) == 0 {
			t.Fatalf("%s incomplete", s.Name)
		}
	}
}

// TestSpecsRegistered asserts that importing package scenario alone —
// this package holds no code — registers the five case studies in the
// default registry in paper order, lookups resolve them, and a typo
// produces the descriptive menu error instead of a nil scenario.
func TestSpecsRegistered(t *testing.T) {
	names := scenario.Names()
	if got, want := strings.Join(names, ","), "Q1,Q2,Q3,Q4,Q5"; got != want {
		t.Fatalf("registry lists %s, want %s", got, want)
	}
	for _, name := range names {
		if _, err := scenario.Lookup(name); err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
	}
	_, err := scenario.Lookup("Q6")
	if err == nil {
		t.Fatal("Lookup(Q6) must error")
	}
	for _, want := range []string{"Q1", "Q5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("lookup error %q does not list %s", err, want)
		}
	}
}

// TestSpecParity asserts the registry path (Instantiate by name) and the
// exported specs (Q1Spec…Q5Spec) instantiate identical scenarios: same
// program, goal, workload, and zone wiring.
func TestSpecParity(t *testing.T) {
	sc := smallScale()
	for _, spec := range []scenario.Spec{
		scenario.Q1Spec(), scenario.Q2Spec(), scenario.Q3Spec(), scenario.Q4Spec(), scenario.Q5Spec(),
	} {
		want := spec.MustInstantiate(sc)
		got, err := scenario.Instantiate(want.Name, sc)
		if err != nil {
			t.Fatalf("Instantiate(%s): %v", want.Name, err)
		}
		if got.Prog.String() != want.Prog.String() {
			t.Fatalf("%s: registry program differs from the exported spec's", want.Name)
		}
		if got.Goal.String() != want.Goal.String() {
			t.Fatalf("%s: goal differs: %s vs %s", want.Name, got.Goal, want.Goal)
		}
		if len(got.Workload) != len(want.Workload) {
			t.Fatalf("%s: workload %d vs %d entries", want.Name, len(got.Workload), len(want.Workload))
		}
		for i := range got.Workload {
			if got.Workload[i] != want.Workload[i] {
				t.Fatalf("%s: workload entry %d differs", want.Name, i)
			}
		}
		if len(got.State) != len(want.State) {
			t.Fatalf("%s: state %d vs %d tuples", want.Name, len(got.State), len(want.State))
		}
		gn, wn := got.BuildNet(), want.BuildNet()
		if len(gn.Switches) != len(wn.Switches) || len(gn.Hosts) != len(wn.Hosts) {
			t.Fatalf("%s: networks differ: %d/%d switches, %d/%d hosts",
				want.Name, len(gn.Switches), len(wn.Switches), len(gn.Hosts), len(wn.Hosts))
		}
	}
}

// TestSpecOutcomeParity runs Q1 end to end via the registry and asserts
// the outcome matches Q1Spec's: same generated and passed counts and the
// same accepted intuitive fix.
func TestSpecOutcomeParity(t *testing.T) {
	sc := smallScale()
	ctx := context.Background()
	direct, err := scenario.Q1Spec().MustInstantiate(sc).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := scenario.Instantiate("Q1", sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := viaRegistry.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Generated != direct.Generated || out.Passed != direct.Passed {
		t.Fatalf("registry run %d/%d, direct run %d/%d",
			out.Generated, out.Passed, direct.Generated, direct.Passed)
	}
	if out.IntuitiveFixAccepted() != direct.IntuitiveFixAccepted() {
		t.Fatal("intuitive-fix verdicts differ between registry and direct runs")
	}
	for i := range out.Results {
		if out.Results[i].Accepted != direct.Results[i].Accepted {
			t.Fatalf("candidate %d verdict differs", i)
		}
	}
}
