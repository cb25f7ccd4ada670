package scenario

import (
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Q2 addresses.
const (
	q2DNS = 217 // the DNS server that misses queries
	q2Web = 218 // background web service through the same zone
)

// q2Program is the §5.3 forwarding error [57]: the operator restricted DNS
// access to an authorized client range but wrote the range check one too
// tight, so the last authorized client's queries never reach the server.
const q2Program = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
d1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 53, Sip < %THRESH%, Prt := 2.
d2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Prt := 3.
d3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 53, Prt := 1.
d4 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 3, Dpt == 80, Prt := 1.
`

// q2Blocked computes the authorized client the bug cuts off: the seventh
// fabric host.
func q2Blocked(f *topo.Fabric) int64 {
	return f.Net.Hosts[f.HostIDs[0]].IP + 6
}

func q2Attach(f *topo.Fabric) {
	s1, s2, s3 := sdn.NewSwitch("q2s1", 1), sdn.NewSwitch("q2s2", 2), sdn.NewSwitch("q2s3", 3)
	f.Net.AddSwitch(s1)
	f.Net.AddSwitch(s2)
	f.Net.AddSwitch(s3)
	s1.Wire(2, "q2s2")
	s2.Wire(3, "q2s1")
	s1.Wire(3, "q2s3")
	s3.Wire(3, "q2s1")
	f.Net.AddHostAt(sdn.NewHost("q2dns", q2DNS, "q2s2"), 1)
	f.Net.AddHostAt(sdn.NewHost("q2web", q2Web, "q2s3"), 1)
	f.Net.Link("q2s1", f.CoreIDs[1])
	f.InstallProactiveRoutes(map[int64]string{
		q2DNS: "q2s1", q2Web: "q2s1",
	}, "q2s1", "q2s2", "q2s3")
}

// Q2Spec declares the forwarding-error scenario. The authorized client
// range is the first seven fabric hosts; the boundary host (the seventh)
// is cut off by the off-by-one range check.
func Q2Spec() Spec {
	return Spec{
		Name:   "Q2",
		Query:  "H17 is not receiving DNS queries from H1 (forwarding error)",
		Attach: q2Attach,
		Program: func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) {
			// d1 says Sip < blocked; intended Sip <= blocked.
			prog, err := ndlog.Parse("q2", replaceThresh(q2Program, q2Blocked(f)))
			return prog, nil, err
		},
		Workload: func(f *topo.Fabric, sc Scale) []trace.Entry {
			// Authorized clients (including the blocked one) query DNS;
			// everyone uses the web service and background services.
			authorized := make([]trace.HostSpec, 0, 7)
			for i := 0; i < 7; i++ {
				authorized = append(authorized, hostSpecAt(f, i))
			}
			dnsTrace := trace.Generate(trace.Config{
				Seed:    202,
				Sources: authorized,
				Services: []trace.Service{
					{DstIP: q2DNS, Port: sdn.PortDNS, Proto: sdn.ProtoUDP, Weight: 1},
				},
				Flows: sc.Flows / 12,
			})
			bgTrace := trace.Generate(trace.Config{
				Seed:    203,
				Sources: campusSources(f),
				Services: append([]trace.Service{
					{DstIP: q2Web, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 5},
				}, backgroundServices(f, 12)...),
				Flows: sc.Flows,
			})
			return append(dnsTrace, bgTrace...)
		},
		Goal: func(f *topo.Fabric) metaprov.Goal {
			v1, vb, vdns, v53, v2 := ndlog.Int(1), ndlog.Int(q2Blocked(f)), ndlog.Int(q2DNS), ndlog.Int(53), ndlog.Int(2)
			return metaprov.PinnedGoal("FlowTable", &v1, &vb, &vdns, nil, &v53, &v2)
		},
		Oracle: func(f *topo.Fabric) Effectiveness {
			blocked := q2Blocked(f)
			return func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
				return n.Hosts["q2dns"].SrcCountFor(blocked, tag) > 0
			}
		},
		IntuitiveFix: "change operator < to <= in d1",
		Options: []metarepair.Option{
			metarepair.WithBudget(metarepair.Budget{CostCutoff: 3.2, MaxPerStructure: 3}),
			metarepair.WithMaxCandidates(13),
		},
	}
}
