package scenario

import (
	"fmt"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Q5 addresses: six peer hosts behind the learning switch.
const q5Base = 241

// q5Program is the §5.3 incorrect-MAC-learning bug [4]: the learning rule
// m1 should record the packet's source address (SipL := Sip) but records a
// wildcard instead — it effectively matches only on the incoming port and
// destination, so the controller never learns where individual hosts live
// and the forwarding rule m2 can never find them.
const q5Program = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
materialize(Learned, 1, 4, keys(0,1,2,3)).
m1 Learned(@C,SipL,Swi,InPrt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), SipL := *.
m2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Learned(@C,Dip,LSwi,Prt), LSwi == Swi.
`

func q5Attach(f *topo.Fabric) {
	s1 := sdn.NewSwitch("q5s1", 1)
	f.Net.AddSwitch(s1)
	overrides := make(map[int64]string)
	for i := 0; i < 6; i++ {
		f.Net.AddHostAt(sdn.NewHost(fmt.Sprintf("q5h%d", i), int64(q5Base+i), "q5s1"), i+1)
		overrides[int64(q5Base+i)] = "q5s1"
	}
	f.Net.Link("q5s1", f.CoreIDs[4])
	f.InstallProactiveRoutes(overrides, "q5s1")
}

// Q5Spec declares the incorrect-MAC-learning scenario: the six zone hosts
// first announce themselves (hello packets teach the controller their
// location), then exchange peer-to-peer flows, none of which are
// deliverable while the learning table holds only wildcard entries.
func Q5Spec() Spec {
	return Spec{
		Name:   "Q5",
		Query:  "H2's address is not learned by the controller (incorrect MAC learning)",
		Attach: q5Attach,
		Program: func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error) {
			prog, err := ndlog.Parse("q5", q5Program)
			return prog, nil, err
		},
		Workload: func(f *topo.Fabric, sc Scale) []trace.Entry {
			// Hellos: each zone host sends one packet so the controller can
			// learn its location, then peers exchange flows.
			zoneTrace := make([]trace.Entry, 0, 6+6*5*3)
			tm := int64(0)
			for i := 0; i < 6; i++ {
				zoneTrace = append(zoneTrace, trace.Entry{
					Time:    tm,
					SrcHost: fmt.Sprintf("q5h%d", i),
					Pkt: sdn.Packet{
						SrcIP: int64(q5Base + i), DstIP: int64(q5Base + (i+1)%6),
						SrcPort: 30000, DstPort: 7000, Proto: sdn.ProtoTCP,
					},
				})
				tm++
			}
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					if i == j {
						continue
					}
					// Three packets per peer flow: the first installs state
					// (and is lost — there is no PacketOut), the rest are
					// deliverable once learning works.
					for k := 0; k < 3; k++ {
						zoneTrace = append(zoneTrace, trace.Entry{
							Time:    tm,
							SrcHost: fmt.Sprintf("q5h%d", i),
							Pkt: sdn.Packet{
								SrcIP: int64(q5Base + i), DstIP: int64(q5Base + j),
								SrcPort: 31000, DstPort: 7000, Proto: sdn.ProtoTCP,
							},
						})
						tm++
					}
				}
			}
			bgTrace := trace.Generate(trace.Config{
				Seed:     501,
				Sources:  campusSources(f),
				Services: backgroundServices(f, 16),
				Flows:    sc.Flows,
			})
			return append(zoneTrace, bgTrace...)
		},
		Goal: func(*topo.Fabric) metaprov.Goal {
			v241, v1 := ndlog.Int(q5Base), ndlog.Int(1)
			return metaprov.PinnedGoal("Learned", nil, &v241, &v1, nil)
		},
		Oracle: func(*topo.Fabric) Effectiveness {
			return func(_ *sdn.Network, ctl *sdn.NDlogController, tag int) bool {
				for _, row := range ctl.Engine.Rows("Learned") {
					if len(row.Args) == 4 && row.Args[1].Equal(ndlog.Int(q5Base)) &&
						row.Tags&(1<<uint(tag)) != 0 {
						return true
					}
				}
				return false
			}
		},
		IntuitiveFix: "change * in m1 (assign/0) to Sip",
		Options: []metarepair.Option{
			metarepair.WithBudget(metarepair.Budget{CostCutoff: 3.2, MaxPerStructure: 2}),
			metarepair.WithMaxCandidates(14),
		},
	}
}
