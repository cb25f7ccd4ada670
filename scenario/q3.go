package scenario

import (
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Q3 addresses.
const q3Server = 220 // the white-listed web service behind the firewall

// q3Program is the §5.3 uncoordinated policy update [13]: a load-balancing
// app started offloading high-IP clients onto the firewalled route (w2),
// but the firewall app's white-list (FwWhite) was never updated for the
// newly offloaded legitimate client, whose requests the firewall now drops.
const q3Program = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
materialize(FwWhite, 1, 2, keys(0,1)).
w1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 220, Sip < %THRESH%, Prt := 2.
w2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Dip == 220, Sip >= %THRESH%, Prt := 3.
w3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), FwWhite(@C,Sip), Swi == 3, Dpt == 80, Prt := 3.
w4 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 1.
`

// q3Thresh computes the offload boundary: the 9 highest client IPs take
// the firewalled route.
func q3Thresh(f *topo.Fabric) int64 {
	last := f.Net.Hosts[f.HostIDs[len(f.HostIDs)-1]].IP
	return last - 8
}

func q3Attach(f *topo.Fabric) {
	s1, s2, s3 := sdn.NewSwitch("q3s1", 1), sdn.NewSwitch("q3s2", 2), sdn.NewSwitch("q3s3", 3)
	f.Net.AddSwitch(s1)
	f.Net.AddSwitch(s2)
	f.Net.AddSwitch(s3)
	s1.Wire(2, "q3s2")
	s2.Wire(3, "q3s1")
	s1.Wire(3, "q3s3")
	s3.Wire(4, "q3s1")
	s3.Wire(3, "q3s2") // the firewall's allow path rejoins the direct route
	s2.Wire(4, "q3s3")
	f.Net.AddHostAt(sdn.NewHost("q3srv", q3Server, "q3s2"), 1)
	f.Net.Link("q3s1", f.CoreIDs[2])
	f.InstallProactiveRoutes(map[int64]string{q3Server: "q3s1"}, "q3s1", "q3s2", "q3s3")
}

// Q3Spec declares the uncoordinated-policy-update scenario: the last 9
// fabric hosts are offloaded onto the firewall route; the white-list
// covers the first 5 of them, misses the legitimate client (the 6th), and
// correctly blocks the remaining 3, which are heavy scanners whose
// traffic must stay blocked — repairs that open the firewall for everyone
// are rejected.
func Q3Spec() Spec {
	return Spec{
		Name:   "Q3",
		Query:  "H20 is not receiving HTTP requests from H1 (uncoordinated policy update)",
		Attach: q3Attach,
		Program: func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) {
			thresh := q3Thresh(f)
			prog, err := ndlog.Parse("q3", replaceThresh(q3Program, thresh))
			if err != nil {
				return nil, nil, err
			}
			state := make([]ndlog.Tuple, 0, 5)
			for ip := thresh; ip < thresh+5; ip++ {
				state = append(state, ndlog.NewTuple("FwWhite", sdn.ControllerLoc, ndlog.Int(ip)))
			}
			return prog, state, nil
		},
		Workload: func(f *topo.Fabric, sc Scale) []trace.Entry {
			thresh := q3Thresh(f)
			// Scanners are the 3 highest IPs: bulk traffic the firewall
			// must keep blocking.
			scanners := make([]trace.HostSpec, 0, 3)
			for i := len(f.HostIDs) - 3; i < len(f.HostIDs); i++ {
				scanners = append(scanners, hostSpecAt(f, i))
			}
			scanTrace := trace.Generate(trace.Config{
				Seed:     301,
				Sources:  scanners,
				Services: []trace.Service{{DstIP: q3Server, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 1}},
				Flows:    sc.Flows / 5,
			})
			// The forgotten legitimate client (and its whitelisted
			// neighbours) keep using the service: that traffic is the
			// symptom.
			offloaded := make([]trace.HostSpec, 0, 6)
			for ip := thresh; ip <= thresh+5; ip++ {
				for _, id := range f.HostIDs {
					if f.Net.Hosts[id].IP == ip {
						offloaded = append(offloaded, trace.HostSpec{ID: id, IP: ip})
					}
				}
			}
			symptomTrace := trace.Generate(trace.Config{
				Seed:     303,
				Sources:  offloaded,
				Services: []trace.Service{{DstIP: q3Server, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 1}},
				Flows:    sc.Flows / 20,
			})
			bgTrace := trace.Generate(trace.Config{
				Seed:    302,
				Sources: campusSources(f),
				Services: append([]trace.Service{
					{DstIP: q3Server, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 5},
				}, backgroundServices(f, 12)...),
				Flows: sc.Flows,
			})
			return append(append(symptomTrace, scanTrace...), bgTrace...)
		},
		Goal: func(f *topo.Fabric) metaprov.Goal {
			forgotten := q3Thresh(f) + 5
			v3, vf, vsrv, v80, vp3 := ndlog.Int(3), ndlog.Int(forgotten), ndlog.Int(q3Server), ndlog.Int(80), ndlog.Int(3)
			return metaprov.PinnedGoal("FlowTable", &v3, &vf, &vsrv, nil, &v80, &vp3)
		},
		Oracle: func(f *topo.Fabric) Effectiveness {
			forgotten := q3Thresh(f) + 5
			return func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
				return n.Hosts["q3srv"].SrcCountFor(forgotten, tag) > 0
			}
		},
		IntuitiveFix: "manually insert FwWhite(",
		Options: []metarepair.Option{
			// CostCutoff 4.2 admits the white-list predicate deletion.
			metarepair.WithBudget(metarepair.Budget{CostCutoff: 4.2, MaxPerStructure: 2}),
			metarepair.WithMaxCandidates(13),
		},
	}
}
