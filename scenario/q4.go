package scenario

import (
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Q4 addresses.
const (
	q4SrvA = 231
	q4SrvB = 232
)

// q4Program is the §5.3 forgotten-packets bug [7]: the controller installs
// correct flow entries in response to new flows, but never instructs the
// switch to forward the buffered first packet — there is no PacketOut rule,
// so the first packet of every flow is lost.
const q4Program = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
g1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dip == 231, Prt := 1.
g2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dip == 232, Prt := 2.
`

func q4Attach(f *topo.Fabric) {
	s1 := sdn.NewSwitch("q4s1", 1)
	f.Net.AddSwitch(s1)
	f.Net.AddHostAt(sdn.NewHost("q4srva", q4SrvA, "q4s1"), 1)
	f.Net.AddHostAt(sdn.NewHost("q4srvb", q4SrvB, "q4s1"), 2)
	f.Net.Link("q4s1", f.CoreIDs[3])
	f.InstallProactiveRoutes(map[int64]string{
		q4SrvA: "q4s1", q4SrvB: "q4s1",
	}, "q4s1")
}

// q4Probe is the probe client: the first fabric host.
func q4Probe(f *topo.Fabric) int64 {
	return f.Net.Hosts[f.HostIDs[0]].IP
}

// Q4Spec declares the forgotten-packets scenario. A probe client sends
// single-packet flows; with the bug every one of them dies as a buffered
// first packet, so the server never hears from the probe at all.
func Q4Spec() Spec {
	return Spec{
		Name:   "Q4",
		Query:  "First HTTP packet from H2 to H20 is not received (forgotten packets)",
		Attach: q4Attach,
		Program: func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) {
			prog, err := ndlog.Parse("q4", q4Program)
			return prog, nil, err
		},
		Workload: func(f *topo.Fabric, sc Scale) []trace.Entry {
			// The probe's single-packet flows (the symptom traffic).
			probe := q4Probe(f)
			probeTrace := make([]trace.Entry, 0, 24)
			for i := 0; i < 24; i++ {
				probeTrace = append(probeTrace, trace.Entry{
					Time:    int64(i),
					SrcHost: f.HostIDs[0],
					Pkt: sdn.Packet{
						SrcIP: probe, DstIP: q4SrvA,
						SrcPort: int64(20000 + i), DstPort: sdn.PortHTTP, Proto: sdn.ProtoTCP,
					},
				})
			}
			// The probe is excluded from the background sources: its only
			// traffic toward server A is the single-packet symptom flows,
			// so a multi-packet background flow can never mask the
			// forgotten-first-packet symptom at any scale.
			bgTrace := trace.Generate(trace.Config{
				Seed:    401,
				Sources: campusSources(f)[1:],
				Services: append([]trace.Service{
					{DstIP: q4SrvA, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 3},
					{DstIP: q4SrvB, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 3},
				}, backgroundServices(f, 12)...),
				Flows: sc.Flows,
			})
			return append(probeTrace, bgTrace...)
		},
		Goal: func(f *topo.Fabric) metaprov.Goal {
			v1, vp, va, v80, vprt := ndlog.Int(1), ndlog.Int(q4Probe(f)), ndlog.Int(q4SrvA), ndlog.Int(80), ndlog.Int(1)
			return metaprov.PinnedGoal("PacketOut", &v1, &vp, &va, nil, &v80, &vprt)
		},
		Oracle: func(f *topo.Fabric) Effectiveness {
			probe := q4Probe(f)
			return func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
				return n.Hosts["q4srva"].SrcCountFor(probe, tag) > 0
			}
		},
		IntuitiveFix: "add rule g1~PacketOut",
		Options: []metarepair.Option{
			// CostCutoff 6.2 admits rule copies (cost 5).
			metarepair.WithBudget(metarepair.Budget{CostCutoff: 6.2, MaxPerStructure: 2}),
			metarepair.WithMaxCandidates(13),
		},
		// Repairs that degenerate into per-packet forwarding (changing a
		// forwarding rule's head to PacketOut) blow up controller load;
		// the paper rejects them for exactly this side effect.
		MaxPacketInFactor: 3,
	}
}
