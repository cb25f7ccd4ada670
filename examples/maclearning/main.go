// Maclearning: the Q5 case study (§5.3) — an address-learning app that
// records a wildcard instead of the packet's source address, so the
// controller never learns where hosts live. The intuitive repair is a
// variable substitution (SipL := * becomes SipL := Sip), a repair class
// beyond constant and operator changes. The example also shows the same
// controller rendered through the Trema and Pyretic front-ends (§5.8).
package main

import (
	"context"
	"fmt"

	"repro/internal/pyretic"
	"repro/internal/trema"
	"repro/scenario"
)

func main() {
	s, err := scenario.Instantiate("Q5", scenario.Scale{Switches: 19, Flows: 700})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario: %s\n\n", s.Query)

	fmt.Println("the controller in NDlog:")
	fmt.Println(s.Prog.String())

	if tp, err := trema.Translate(s.Prog); err == nil {
		fmt.Println("the same controller in Trema (Ruby):")
		fmt.Println(tp.Source())
	}
	if pp, err := pyretic.Translate(s.Prog); err == nil {
		fmt.Println("the same controller in Pyretic:")
		fmt.Println(pp.Source())
	}

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
		fmt.Printf("  %-72s KS=%.5f  %s\n", r.Candidate.Describe(), r.KS, mark)
	}
}
