package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/scenario"
)

func tinyScale() scenario.Scale { return scenario.Scale{Switches: 19, Flows: 600} }

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(context.Background(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Generated == 0 || r.Passed == 0 {
			t.Errorf("%s: %d/%d", r.Name, r.Generated, r.Passed)
		}
		if r.Passed > r.Generated {
			t.Errorf("%s: passed %d > generated %d", r.Name, r.Passed, r.Generated)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Q5") {
		t.Fatal("format missing rows")
	}
}

func TestAugmentProgram(t *testing.T) {
	base := scenario.Q1Spec().MustInstantiate(tinyScale()).Prog
	big := AugmentProgram(base, 600)
	if len(big.Rules) <= len(base.Rules) {
		t.Fatal("no rules added")
	}
	// All filler rules must be valid and derive the inert Acl table.
	if _, err := ndlog.NewEngine(big); err != nil {
		t.Fatalf("augmented program does not compile: %v", err)
	}
	acl := 0
	for _, r := range big.Rules {
		if r.Head.Table == "Acl" {
			acl++
		}
	}
	if acl == 0 {
		t.Fatal("filler rules missing")
	}
	// Base program untouched.
	if len(base.Rules) != len(scenario.Q1Spec().MustInstantiate(tinyScale()).Prog.Rules) {
		t.Fatal("AugmentProgram mutated its input")
	}
}

func TestFigure9bSpeedupShape(t *testing.T) {
	rows, err := Figure9b(context.Background(), tinyScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At k=4 the multi-query run must beat sequential (Figure 9b's shape).
	last := rows[len(rows)-1]
	if last.Shared >= last.Sequential {
		t.Errorf("multi-query (%v) not faster than sequential (%v) at k=%d",
			last.Shared, last.Sequential, last.K)
	}
	if !strings.Contains(FormatFigure9b(rows), "multi-query") {
		t.Fatal("format broken")
	}
}

func TestOverheadReport(t *testing.T) {
	rep, err := Overhead(tinyScale(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Off.Throughput <= 0 || rep.On.Throughput <= 0 {
		t.Fatalf("throughputs: %+v", rep)
	}
	if !strings.Contains(FormatOverhead(rep), "storage rate") {
		t.Fatal("format broken")
	}
}

func TestCandidateTableFormats(t *testing.T) {
	rows := []CandidateRow{
		{Desc: "change constant 2 in r7 (sel/0/R) to 3", KS: 0.001, Accepted: true},
		{Desc: strings.Repeat("x", 100), KS: 0.3, Accepted: false},
	}
	out := FormatCandidates("Table 2", rows)
	if !strings.Contains(out, "...") {
		t.Fatal("long descriptions must be clipped")
	}
	if !strings.Contains(out, "(3)") || !strings.Contains(out, "(5)") {
		t.Fatal("verdict marks missing")
	}
}
