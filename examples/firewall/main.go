// Firewall: the Q3 case study (§5.3) — an uncoordinated policy update. A
// load-balancing app offloaded some clients onto a firewalled route, but
// the firewall's white-list was never updated, so a legitimate client's
// requests are silently dropped while scanner traffic must stay blocked.
// The debugger's top repair coordinates the update (insert the missing
// white-list entry); repairs that open the firewall for everyone are
// rejected by the KS filter because they admit the scanners.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/scenario"
)

func main() {
	s, err := scenario.Instantiate("Q3", scenario.Scale{Switches: 19, Flows: 900})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario: %s\n", s.Query)
	fmt.Println("controller program (firewall + load balancer):")
	fmt.Println(indent(s.Prog.String(), "  "))

	out, err := s.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("generated %d candidates, accepted %d:\n\n", out.Generated, out.Passed)
	for _, r := range out.Results {
		mark := "rejected"
		if r.Accepted {
			mark = "ACCEPTED"
		}
		fmt.Printf("  %-76s KS=%.5f  %s\n", r.Candidate.Describe(), r.KS, mark)
	}

	fmt.Println("\nnote: deleting the FwWhite predicate would also fix the symptom,")
	fmt.Println("but backtesting rejects it — the white-list is what keeps the")
	fmt.Println("scanner hosts out, and removing it shifts the traffic distribution.")
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}
