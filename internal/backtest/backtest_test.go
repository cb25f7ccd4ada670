package backtest

import (
	"context"
	"strings"
	"testing"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/sdn"
	"repro/internal/trace"
)

// q1Mini is the Figure 2 bug on a small concrete network:
// s1 load-balances HTTP on the virtual IP (Sip < 40 to s2/h1, else s3/h2)
// and forwards DNS; s2 serves h1 (port 1) and dns (port 2); s3 serves h2
// (port 2); s4 (port 1) serves an unrelated web server h3 that over-general
// repairs disturb. r7 was copied from r5: the port was changed to 2, the
// switch was not, so only client 40's offloaded traffic is lost.
const q1Mini = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 201, Sip < 40, Prt := 2.
r2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 201, Sip >= 40, Prt := 3.
r3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 53, Prt := 2.
r4 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dip == 204, Prt := 4.
r5 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 1.
r6 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 53, Prt := 2.
r7 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 2.
r8 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 4, Dpt == 80, Prt := 1.
`

const (
	numClients = 40
	serviceIP  = 201
	dnsIP      = 203
	webIP      = 204
)

// buildMiniNet wires the 4-switch zone with 40 clients on s1.
func buildMiniNet() *sdn.Network {
	n := sdn.NewNetwork()
	s1, s2 := sdn.NewSwitch("s1", 1), sdn.NewSwitch("s2", 2)
	s3, s4 := sdn.NewSwitch("s3", 3), sdn.NewSwitch("s4", 4)
	n.AddSwitch(s1)
	n.AddSwitch(s2)
	n.AddSwitch(s3)
	n.AddSwitch(s4)
	s1.Wire(2, "s2")
	s2.Wire(3, "s1")
	s1.Wire(3, "s3")
	s3.Wire(3, "s1")
	s1.Wire(4, "s4")
	s4.Wire(3, "s1")
	n.AddHostAt(sdn.NewHost("h1", serviceIP, "s2"), 1)
	n.AddHostAt(sdn.NewHost("dns", dnsIP, "s2"), 2)
	n.AddHostAt(sdn.NewHost("h2", serviceIP+1, "s3"), 2)
	n.AddHostAt(sdn.NewHost("h3", webIP, "s4"), 1)
	for i := 1; i <= numClients; i++ {
		n.AddHostAt(sdn.NewHost(clientID(i), int64(i), "s1"), 10+i)
	}
	return n
}

func clientID(i int) string { return "c" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

func miniWorkload() []trace.Entry {
	var sources []trace.HostSpec
	for i := 1; i <= numClients; i++ {
		sources = append(sources, trace.HostSpec{ID: clientID(i), IP: int64(i)})
	}
	return trace.Generate(trace.Config{
		Seed:    11,
		Sources: sources,
		Services: []trace.Service{
			{DstIP: serviceIP, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 4},
			{DstIP: dnsIP, Port: sdn.PortDNS, Proto: sdn.ProtoUDP, Weight: 3},
			{DstIP: webIP, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 3},
		},
		Flows: 700,
	})
}

// effectiveQ1 reports whether h2 received HTTP under the tag.
func effectiveQ1(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
	return n.Hosts["h2"].PortCountFor(sdn.PortHTTP, tag) > 0
}

func q1Job(t *testing.T) (*Job, *provenance.Recorder) {
	t.Helper()
	prog := ndlog.MustParse("q1mini", q1Mini)
	// Diagnostic run: record history for the explorer.
	rec := provenance.NewRecorder()
	eng := ndlog.MustNewEngine(prog)
	eng.Listen(rec)
	net := buildMiniNet()
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	wl := miniWorkload()
	trace.Replay(net, wl, 1)
	if effectiveQ1(net, ctl, 0) {
		t.Fatal("bug not reproduced: h2 received HTTP in the buggy run")
	}
	return &Job{
		Prog:      prog,
		BuildNet:  buildMiniNet,
		Workload:  wl,
		Effective: effectiveQ1,
	}, rec
}

func TestSequentialBacktestQ1(t *testing.T) {
	job, rec := q1Job(t)
	ex := metaprov.NewExplorer(meta.NewModel(job.Prog), rec)
	ex.Cutoff = 3.2 // admits single edits, double constants, and deletions
	ex.MaxCandidates = 20
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	job.Candidates = explore(t, ex, metaprov.PinnedGoal("FlowTable", &v3, nil, nil, nil, &v80, &v2))
	if len(job.Candidates) < 4 {
		t.Fatalf("too few candidates: %d", len(job.Candidates))
	}
	results := runSequential(t, job)

	var intuitive *Result
	accepted := 0
	for i := range results {
		r := &results[i]
		if r.Accepted {
			accepted++
		}
		if strings.Contains(r.Candidate.Describe(), "change constant 2 in r7 (sel/0/R) to 3") {
			intuitive = r
		}
	}
	if intuitive == nil {
		t.Fatal("intuitive repair (Swi==2 -> Swi==3) not among candidates")
	}
	if !intuitive.Effective {
		t.Fatalf("intuitive repair judged ineffective: %+v", *intuitive)
	}
	if !intuitive.Accepted {
		t.Fatalf("intuitive repair rejected by KS (D=%v p=%v)", intuitive.KS, intuitive.P)
	}
	if accepted == len(results) {
		t.Fatalf("no candidate was filtered: %d/%d accepted (KS filter inert)", accepted, len(results))
	}
	// The over-general deletion of Swi==2 must be rejected: it hijacks
	// S2's HTTP traffic to the DNS port.
	for _, r := range results {
		if strings.Contains(r.Candidate.Describe(), "delete Swi == 2 in r7") && r.Accepted {
			t.Fatalf("over-general deletion accepted: %+v", r)
		}
	}
}

func TestSharedMatchesSequential(t *testing.T) {
	job, rec := q1Job(t)
	ex := metaprov.NewExplorer(meta.NewModel(job.Prog), rec)
	ex.Cutoff = 3.2
	ex.MaxCandidates = 12
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	job.Candidates = explore(t, ex, metaprov.PinnedGoal("FlowTable", &v3, nil, nil, nil, &v80, &v2))
	seq := runSequential(t, job)
	shr, err := runShared(job)
	if err != nil {
		t.Fatalf("shared run: %v", err)
	}
	if len(seq) != len(shr) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(shr))
	}
	for i := range seq {
		if seq[i].Effective != shr[i].Effective {
			t.Errorf("candidate %d (%s): effective %v vs %v",
				i, seq[i].Candidate.Describe(), seq[i].Effective, shr[i].Effective)
		}
		if seq[i].Accepted != shr[i].Accepted {
			t.Errorf("candidate %d (%s): accepted %v (KS %.5f) vs %v (KS %.5f)",
				i, seq[i].Candidate.Describe(), seq[i].Accepted, seq[i].KS, shr[i].Accepted, shr[i].KS)
		}
		if seq[i].HopLimited != shr[i].HopLimited {
			t.Errorf("candidate %d (%s): %d hop-limited copies vs %d",
				i, seq[i].Candidate.Describe(), seq[i].HopLimited, shr[i].HopLimited)
		}
	}
}

func TestSharedProgramConstruction(t *testing.T) {
	prog := ndlog.MustParse("q1mini", q1Mini)
	cands := []metaprov.Candidate{
		{Changes: []meta.Change{meta.SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)}}},
		{Changes: []meta.Change{meta.SetOper{RuleID: "r7", SelIdx: 0, Old: ndlog.OpEq, New: ndlog.OpGt, Sel: "Swi == 2"}}},
	}
	shared, _, _, err := BuildSharedProgram(prog, cands, true)
	if err != nil {
		t.Fatal(err)
	}
	// r7's shared copy must exclude tags 1 and 2 (bits 2 and 4).
	r7 := shared.Rule("r7")
	if r7.TagMask&0b110 != 0 {
		t.Fatalf("r7 mask = %b, want bits 1,2 cleared", r7.TagMask)
	}
	if r7.TagMask&1 == 0 {
		t.Fatal("r7 mask lost the baseline bit")
	}
	// Untouched rules carry all three tags.
	r1 := shared.Rule("r1")
	if r1.TagMask&0b111 != 0b111 {
		t.Fatalf("r1 mask = %b", r1.TagMask)
	}
	// Exactly two candidate copies were added.
	copies := 0
	for _, r := range shared.Rules {
		if strings.Contains(r.ID, "~c") {
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("candidate copies = %d, want 2", copies)
	}
}

func TestSharedCoalescing(t *testing.T) {
	prog := ndlog.MustParse("q1mini", q1Mini)
	// Two candidates producing the same patched rule must coalesce.
	same := meta.SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)}
	cands := []metaprov.Candidate{
		{Changes: []meta.Change{same}},
		{Changes: []meta.Change{same}},
	}
	shared, _, _, err := BuildSharedProgram(prog, cands, true)
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	var mask uint64
	for _, r := range shared.Rules {
		if strings.Contains(r.ID, "~c") {
			copies++
			mask = r.TagMask
		}
	}
	if copies != 1 {
		t.Fatalf("coalescing failed: %d copies", copies)
	}
	if mask != 0b110 {
		t.Fatalf("coalesced mask = %b, want 110", mask)
	}
	// Without coalescing: two copies.
	shared2, _, _, _ := BuildSharedProgram(prog, cands, false)
	copies = 0
	for _, r := range shared2.Rules {
		if strings.Contains(r.ID, "~c") {
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("no-coalesce copies = %d, want 2", copies)
	}
}

func TestInsertCandidateBacktest(t *testing.T) {
	job, _ := q1Job(t)
	fe := ndlog.NewTuple("FlowTable",
		ndlog.Int(3), ndlog.Wild(), ndlog.Wild(), ndlog.Wild(), ndlog.Int(80), ndlog.Int(2))
	job.Candidates = []metaprov.Candidate{
		{Changes: []meta.Change{meta.InsertTuple{Tuple: fe}}, Cost: 2.5},
	}
	seq := runSequential(t, job)
	if !seq[0].Effective {
		t.Fatalf("manual flow entry ineffective: %+v", seq[0])
	}
	shr, err := runShared(job)
	if err != nil {
		t.Fatal(err)
	}
	if !shr[0].Effective {
		t.Fatalf("manual flow entry ineffective in shared run: %+v", shr[0])
	}
}

func TestTooManyCandidates(t *testing.T) {
	job := &Job{Prog: ndlog.MustParse("p", `r1 A(@X) :- B(@X).`)}
	job.Candidates = make([]metaprov.Candidate, 64)
	if _, err := runShared(job); err == nil {
		t.Fatal("expected 63-candidate limit error")
	}
}

// runSequential is the reference oracle without cancellation.
func runSequential(t *testing.T, job *Job) []Result {
	t.Helper()
	out, err := job.RunSequential(context.Background())
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return out
}

// explore drains the explorer's candidate stream for goal.
func explore(t *testing.T, ex *metaprov.Explorer, goal metaprov.Goal) []metaprov.Candidate {
	t.Helper()
	stream, errc := ex.ExploreStream(context.Background(), goal)
	var out []metaprov.Candidate
	for c := range stream {
		out = append(out, c)
	}
	if err := <-errc; err != nil {
		t.Fatalf("explore: %v", err)
	}
	return out
}

// runShared is one shared run without cancellation or stats.
func runShared(job *Job) ([]Result, error) {
	out, _, err := job.RunShared(context.Background())
	return out, err
}
