// Quickstart: reproduce the paper's running example (Figures 1, 2, and 6)
// in about a hundred lines, on the metarepair.Session API. A three-switch
// network load-balances HTTP; the controller program contains the §2.3
// copy-and-paste bug (r7 checks switch 2 instead of 3), so the backup
// server H2 starves. We record provenance while the traffic runs, ask
// "why is there no flow entry sending HTTP at switch 3 to port 2?", and
// stream the repairs the meta-provenance debugger suggests as the
// batched-parallel backtest evaluates them.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
)

// The buggy controller of Figure 2 over full packet headers. The operator
// copied r5 to create r7 when server H2 was added, changed the output
// port, and forgot to change Swi == 2 to Swi == 3.
const buggyProgram = `
materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).
r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Sip < 64, Prt := 2.
r2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Dpt == 80, Sip >= 64, Prt := 3.
r5 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 1.
r7 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 2, Dpt == 80, Prt := 2.
`

func buildNet() *sdn.Network {
	n := sdn.NewNetwork()
	s1, s2, s3 := sdn.NewSwitch("s1", 1), sdn.NewSwitch("s2", 2), sdn.NewSwitch("s3", 3)
	n.AddSwitch(s1)
	n.AddSwitch(s2)
	n.AddSwitch(s3)
	s1.Wire(2, "s2")
	s2.Wire(3, "s1")
	s1.Wire(3, "s3")
	s3.Wire(3, "s1")
	n.AddHostAt(sdn.NewHost("h1", 201, "s2"), 1) // primary web server
	n.AddHostAt(sdn.NewHost("h2", 202, "s3"), 2) // backup web server
	for i := 1; i <= 64; i++ {
		n.AddHostAt(sdn.NewHost(fmt.Sprintf("c%02d", i), int64(i), "s1"), 10+i)
	}
	return n
}

func workload() []trace.Entry {
	var sources []trace.HostSpec
	for i := 1; i <= 64; i++ {
		sources = append(sources, trace.HostSpec{ID: fmt.Sprintf("c%02d", i), IP: int64(i)})
	}
	return trace.Generate(trace.Config{
		Seed:     7,
		Sources:  sources,
		Services: []trace.Service{{DstIP: 201, Port: sdn.PortHTTP, Proto: sdn.ProtoTCP, Weight: 1}},
		Flows:    500,
	})
}

func main() {
	ctx := context.Background()
	prog := ndlog.MustParse("quickstart", buggyProgram)

	// A durable trace store holds the historical traffic: the live run
	// captures every packet into segmented §5.4 log records, and the
	// backtest streams them back out — replay memory is O(segment), so
	// the same code handles traces far larger than RAM.
	dir, err := os.MkdirTemp("", "quickstart-trace-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		panic(err)
	}
	defer store.Close()

	sess, err := metarepair.NewSession(prog)
	if err != nil {
		panic(err)
	}

	// Build the network once and freeze it: the live run and every
	// backtest batch below replay on a fork of it — fresh counters and
	// flow tables over the shared, read-only topology.
	topology := buildNet()
	topology.Freeze()

	// Run the network with the session's controller attached and the
	// capture hook recording: the provenance recorder captures the
	// control plane, the trace store the data plane.
	net := topology.Fork()
	net.Ctrl = sess.Controller()
	rec := tracestore.NewRecorder(store)
	net.Capture = rec
	wl := workload()
	if n := trace.Replay(net, wl, 1); n != len(wl) {
		panic(fmt.Sprintf("partial replay: %d of %d", n, len(wl)))
	}
	if err := rec.Err(); err != nil {
		panic(err)
	}
	if err := store.Sync(); err != nil {
		panic(err)
	}
	stats := store.Stats()
	fmt.Printf("captured %d packets into %d on-disk segment(s) (%d bytes)\n",
		rec.Count(), stats.Segments, stats.Bytes)

	h2 := net.Hosts["h2"]
	fmt.Printf("symptom: backup server h2 received %d HTTP packets (primary: %d)\n\n",
		h2.PortCountFor(sdn.PortHTTP, 0), net.Hosts["h1"].PortCountFor(sdn.PortHTTP, 0))

	// The operator's query: why is there no flow entry at switch 3
	// forwarding HTTP to port 2? The backtest streams its workload out of
	// the store.
	// Under the default streaming pipeline the concurrent forest search
	// feeds candidates straight into small shared-run batches that launch
	// while exploration is still producing, so the first verdicts arrive
	// long before the search finishes; suggestions stream as each batch
	// completes, then the final ranked report prints.
	sym := metarepair.Missing("FlowTable",
		metarepair.Pin(3), nil, nil, nil, metarepair.Pin(80), metarepair.Pin(2))
	run, err := sess.Stream(ctx, sym, metarepair.Backtest{
		BuildNet: topology.Fork,
		Source:   store.Source(),
		Effective: func(n *sdn.Network, _ *sdn.NDlogController, tag int) bool {
			return n.Hosts["h2"].PortCountFor(sdn.PortHTTP, tag) > 0
		},
	}, metarepair.WithBatchSize(4))
	if err != nil {
		panic(err)
	}
	for s := range run.Suggestions() {
		verdict := "rejected"
		if s.Result.Accepted {
			verdict = "ACCEPTED"
		}
		fmt.Printf("  [batch %d] %-8s %s\n", s.Batch, verdict, s.Candidate.Describe())
	}
	report, err := run.Wait()
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(report.Render())
	if report.Timing.Overlap > 0 {
		fmt.Printf("exploration and backtesting overlapped for %v\n", report.Timing.Overlap.Round(time.Millisecond))
	}
	fmt.Println("\nthe top suggestion is the paper's fix: change Swi == 2 in r7 to Swi == 3")
}
