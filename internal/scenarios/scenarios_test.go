package scenarios

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/backtest"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/metarepair"
	"repro/scenario"
)

// smallScale keeps unit-test runtimes reasonable while preserving the
// workload proportions the KS filter depends on.
func smallScale() Scale { return Scale{Switches: 19, Flows: 700} }

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
	out := runScenario(t, Q1(smallScale()))
	// Paper band: ~9-13 generated, 2-3 accepted.
	if out.Generated < 5 {
		t.Errorf("Q1 generated %d candidates, want >= 5", out.Generated)
	}
	if out.Passed > out.Generated/2+1 {
		t.Errorf("Q1 accepted %d of %d — filter too lax", out.Passed, out.Generated)
	}
}

func TestQ2EndToEnd(t *testing.T) {
	runScenario(t, Q2(smallScale()))
}

func TestQ3EndToEnd(t *testing.T) {
	out := runScenario(t, Q3(smallScale()))
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
	s := Q3(Scale{Switches: 19, Flows: 600})
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
	out := runScenario(t, Q4(smallScale()))
	// Head-change repairs degenerate into per-packet forwarding and must
	// be rejected on controller load.
	for _, r := range out.Results {
		if strings.Contains(r.Candidate.Describe(), "change the head of g1") && r.Accepted {
			t.Errorf("Q4: head change accepted despite PacketIn factor %.1f", r.PacketInFactor)
		}
	}
}

func TestQ5EndToEnd(t *testing.T) {
	runScenario(t, Q5(smallScale()))
}

func TestAllScenariosDistinct(t *testing.T) {
	sc := smallScale()
	names := map[string]bool{}
	for _, s := range All(sc) {
		if names[s.Name] {
			t.Fatalf("duplicate scenario %s", s.Name)
		}
		names[s.Name] = true
		if s.Prog == nil || s.BuildNet == nil || len(s.Workload) == 0 {
			t.Fatalf("%s incomplete", s.Name)
		}
	}
}

// TestSpecsRegistered asserts importing this package registers the five
// case studies in the default registry, lookups resolve them, and a typo
// produces the descriptive menu error instead of a nil scenario.
func TestSpecsRegistered(t *testing.T) {
	names := scenario.Names()
	for _, want := range []string{"Q1", "Q2", "Q3", "Q4", "Q5"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not registered (registry: %v)", want, names)
		}
		if _, err := scenario.Lookup(want); err != nil {
			t.Fatalf("Lookup(%s): %v", want, err)
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

// TestSpecParity asserts the registry path and the direct constructors
// instantiate identical scenarios: same program, goal, workload, and
// zone wiring — the guarantee that migrating Q1–Q5 onto Specs changed
// nothing about what runs.
func TestSpecParity(t *testing.T) {
	sc := smallScale()
	direct := All(sc)
	for _, want := range direct {
		got, err := scenario.Instantiate(want.Name, sc)
		if err != nil {
			t.Fatalf("Instantiate(%s): %v", want.Name, err)
		}
		if got.Prog.String() != want.Prog.String() {
			t.Fatalf("%s: registry program differs from direct constructor", want.Name)
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

// TestSpecOutcomeParity runs one migrated spec end to end via the
// registry and asserts the outcome matches the direct constructor's:
// same generated and passed counts and the same accepted intuitive fix —
// the seed behaviour, reproduced through the new API.
func TestSpecOutcomeParity(t *testing.T) {
	sc := smallScale()
	ctx := context.Background()
	direct, err := Q1(sc).Run(ctx)
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

// TestBackgroundServicesSampling pins the satellite fix: the sample is
// exact at small host counts (all hosts when count >= hosts) and evenly
// spread with no duplicates otherwise.
func TestBackgroundServicesSampling(t *testing.T) {
	build := func(hosts int) *topo.Fabric {
		return topo.Linear{}.Generate(topo.Size{Switches: 2, Hosts: hosts})
	}
	for _, tc := range []struct {
		hosts, count, want int
	}{
		{hosts: 5, count: 12, want: 5},   // fewer hosts than services: take all
		{hosts: 12, count: 12, want: 12}, // exact fit
		{hosts: 13, count: 12, want: 12}, // the old step==0 path clustered here
		{hosts: 259, count: 12, want: 12},
	} {
		svcs := backgroundServices(build(tc.hosts), tc.count)
		if len(svcs) != tc.want {
			t.Fatalf("hosts=%d count=%d: got %d services, want %d",
				tc.hosts, tc.count, len(svcs), tc.want)
		}
		seen := map[int64]bool{}
		for _, s := range svcs {
			if seen[s.DstIP] {
				t.Fatalf("hosts=%d count=%d: duplicate service host %d", tc.hosts, tc.count, s.DstIP)
			}
			seen[s.DstIP] = true
		}
	}
	// Spread: with 2x hosts the sample must span the whole range, not
	// cluster at its start.
	svcs := backgroundServices(build(24), 12)
	last := svcs[len(svcs)-1].DstIP
	first := svcs[0].DstIP
	if last-first < 20 {
		t.Fatalf("sample clustered: spans [%d, %d] of 24 hosts", first, last)
	}
	if backgroundServices(build(4), 0) != nil {
		t.Fatal("count<=0 must yield no services")
	}
}
