package scenario

import (
	"fmt"
	"strings"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Q1 addresses: the load-balanced web service, its two backends, the DNS
// server, and an unrelated web server behind a fourth zone switch.
const (
	q1VIP = 201 // load-balanced web service virtual IP
	q1H2  = 202 // backup web server host IP (behind zone switch 3)
	q1DNS = 203
	q1Web = 204 // unrelated web server (behind zone switch 4)
)

// q1Program is the Figure 2 controller generalized to full headers. r7 was
// copied from r5 when the backup server H2 was added: the port was changed
// to 2, but the switch guard still says 2 instead of 3 — the §2.3
// copy-and-paste error.
const q1Program = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 201, Sip < %THRESH%, Prt := 2.
r2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 201, Sip >= %THRESH%, Prt := 3.
r3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 53, Prt := 2.
r4 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dip == 204, Prt := 4.
r5 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 1.
r6 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 53, Prt := 2.
r7 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 2.
r8 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 4, Dpt == 80, Prt := 1.
`

// q1Threshold computes the load-balancer split for a fabric: the last 3
// hosts' source IPs are offloaded to the backup server.
func q1Threshold(f *topo.Fabric) int64 {
	last := f.Net.Hosts[f.HostIDs[len(f.HostIDs)-1]].IP
	return last - 2
}

// q1Overrides steers the zone service IPs into the reactive zone.
var q1Overrides = map[int64]string{
	q1VIP: "q1s1", q1DNS: "q1s1", q1Web: "q1s1", q1H2: "q1s1",
}

// q1Attach wires the four-switch reactive zone onto the fabric and
// installs the proactive routes around it.
func q1Attach(f *topo.Fabric) {
	s1, s2 := sdn.NewSwitch("q1s1", 1), sdn.NewSwitch("q1s2", 2)
	s3, s4 := sdn.NewSwitch("q1s3", 3), sdn.NewSwitch("q1s4", 4)
	for _, s := range []*sdn.Switch{s1, s2, s3, s4} {
		f.Net.AddSwitch(s)
	}
	s1.Wire(2, "q1s2")
	s2.Wire(3, "q1s1")
	s1.Wire(3, "q1s3")
	s3.Wire(3, "q1s1")
	s1.Wire(4, "q1s4")
	s4.Wire(3, "q1s1")
	f.Net.AddHostAt(sdn.NewHost("q1h1", q1VIP, "q1s2"), 1)
	f.Net.AddHostAt(sdn.NewHost("q1dns", q1DNS, "q1s2"), 2)
	f.Net.AddHostAt(sdn.NewHost("q1h2", q1H2, "q1s3"), 2)
	f.Net.AddHostAt(sdn.NewHost("q1h3", q1Web, "q1s4"), 1)
	f.Net.Link("q1s1", f.CoreIDs[0])
	f.InstallProactiveRoutes(q1Overrides, "q1s1", "q1s2", "q1s3", "q1s4")
}

// Q1Spec declares the copy-and-paste scenario of §2.3/§5.3.
func Q1Spec() Spec {
	return Spec{
		Name:   "Q1",
		Query:  "H2 is not receiving HTTP requests (copy-and-paste error)",
		Attach: q1Attach,
		Program: func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) {
			prog, err := ndlog.Parse("q1", replaceThresh(q1Program, q1Threshold(f)))
			return prog, nil, err
		},
		Workload: func(f *topo.Fabric, sc Scale) []trace.Entry {
			// The offloaded clients (the last three hosts) send their own
			// web requests — the traffic the bug silently drops.
			offloaded := make([]trace.HostSpec, 0, 3)
			for i := len(f.HostIDs) - 3; i < len(f.HostIDs); i++ {
				offloaded = append(offloaded, hostSpecAt(f, i))
			}
			symptomFlows := sc.Flows / 100
			if symptomFlows < 6 {
				symptomFlows = 6
			}
			symptomTrace := trace.Generate(trace.Config{
				Seed:     100,
				Sources:  offloaded,
				Services: []trace.Service{{DstIP: q1VIP, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 1}},
				Flows:    symptomFlows,
			})
			bgTrace := trace.Generate(trace.Config{
				Seed:    101,
				Sources: campusSources(f),
				Services: append([]trace.Service{
					{DstIP: q1VIP, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 4},
					{DstIP: q1DNS, Port: sdn.PortDNS, Proto: sdn.ProtoUDP, Weight: 3},
					{DstIP: q1Web, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 3},
				}, backgroundServices(f, 12)...),
				Flows: sc.Flows,
			})
			return append(symptomTrace, bgTrace...)
		},
		Goal: func(*topo.Fabric) metaprov.Goal {
			v3, v80, v2, vip := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2), ndlog.Int(q1VIP)
			return metaprov.PinnedGoal("FlowTable", &v3, nil, &vip, nil, &v80, &v2)
		},
		Oracle: func(*topo.Fabric) Effectiveness {
			return func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
				return n.Hosts["q1h2"].PortCountFor(sdn.PortHTTP, tag) > 0
			}
		},
		IntuitiveFix: "change constant 2 in r7 (sel/0/R) to 3",
		Options: []metarepair.Option{
			metarepair.WithBudget(metarepair.Budget{CostCutoff: 3.2, MaxPerStructure: 2}),
			metarepair.WithMaxCandidates(13),
		},
	}
}

func replaceThresh(src string, thresh int64) string {
	return strings.ReplaceAll(src, "%THRESH%", fmt.Sprint(thresh))
}
