// Loadbalancer: the full Q1 case study (§5.3) at campus scale — the
// Stanford-style topology of §5.2 with 19 routers and 259 hosts, a
// reactive load-balancing zone, realistic background traffic, and the
// copy-and-paste bug of Figure 2. The run prints the Table 2 panel:
// every generated candidate with its KS statistic and verdict, and the
// turnaround breakdown of Figure 9a.
package main

import (
	"context"
	"fmt"
	"time"

	"repro/scenario"
)

func main() {
	s, err := scenario.Instantiate("Q1", scenario.Scale{Switches: 19, Flows: 900})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario: %s\n", s.Query)
	net := s.BuildNet()
	fmt.Printf("network: %d switches, %d hosts, %d packets of history\n\n",
		len(net.Switches), len(net.Hosts), len(s.Workload))

	out, err := s.Run(context.Background())
	if err != nil {
		panic(err)
	}

	fmt.Printf("meta provenance generated %d candidate repairs; backtesting accepted %d:\n\n",
		out.Generated, out.Passed)
	for i, r := range out.Results {
		mark := "rejected"
		if r.Accepted {
			mark = "ACCEPTED"
		}
		fmt.Printf("%c  %-76s KS=%.5f  %s\n", 'A'+i%26, r.Candidate.Describe(), r.KS, mark)
	}

	t := out.Timing
	fmt.Printf("\nturnaround breakdown (Figure 9a):\n")
	fmt.Printf("  history lookups:    %v\n", t.HistoryLookups.Round(time.Millisecond))
	fmt.Printf("  constraint solving: %v\n", t.ConstraintSolving.Round(time.Millisecond))
	fmt.Printf("  patch generation:   %v\n", t.PatchGeneration.Round(time.Millisecond))
	fmt.Printf("  replay:             %v\n", t.Replay.Round(time.Millisecond))
	fmt.Printf("  total:              %v\n", t.Total().Round(time.Millisecond))

	// Show the meta-provenance tree behind the top-ranked repair: the
	// Figure 6 data structure.
	if len(out.Candidates) > 0 && out.Candidates[0].Tree != nil {
		fmt.Printf("\nmeta provenance of the top candidate (%s):\n%s",
			out.Candidates[0].Describe(), out.Candidates[0].Tree.Render())
	}
}
