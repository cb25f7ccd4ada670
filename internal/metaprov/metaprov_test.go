package metaprov

import (
	"strings"
	"testing"

	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// fig2 is the buggy controller of Figure 2: r7 checks Swi == 2 where the
// operator intended Swi == 3.
const fig2 = `
materialize(FlowTable, 1, 3, keys(0,1)).
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
`

// runFig2 replays the Figure 1 traffic: HTTP packets reach switches 2 and
// 3; the buggy program derives no flow entry for switch 3.
func runFig2(t *testing.T) (*ndlog.Program, *provenance.Recorder) {
	t.Helper()
	prog := ndlog.MustParse("fig2", fig2)
	eng := ndlog.MustNewEngine(prog)
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	eng.Insert(ndlog.NewTuple("PacketIn", ndlog.Str("C"), ndlog.Int(2), ndlog.Int(80)))
	eng.Insert(ndlog.NewTuple("PacketIn", ndlog.Str("C"), ndlog.Int(3), ndlog.Int(80)))
	eng.Insert(ndlog.NewTuple("PacketIn", ndlog.Str("C"), ndlog.Int(1), ndlog.Int(53)))
	return prog, rec
}

func TestExploreMissingFlowEntry(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)

	// The paper's Figure 6 query: why is there no flow entry sending HTTP
	// traffic at switch 3 to port 2?
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	goal := PinnedGoal("FlowTable", &v3, &v80, &v2)
	cands := collectStream(t, ex, goal)
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}

	descs := make([]string, len(cands))
	for i, c := range cands {
		descs[i] = c.Describe()
	}
	all := strings.Join(descs, "\n")

	// Expected candidates from Table 2 (in our rendering):
	wants := []struct{ name, substr string }{
		{"A: manual flow entry", "manually insert FlowTable(3,80,2)"},
		{"B: Swi==2 -> Swi==3", "change constant 2 in r7 (sel/0/R) to 3"},
		{"C: == -> !=", "change operator == to != in r7 (Swi == 2)"},
		{"D: == -> >=", "change operator == to >= in r7"},
		{"E: == -> >", "change operator == to > in r7"},
		{"F: delete Swi==2", "delete Swi == 2 in r7"},
	}
	for _, w := range wants {
		if !strings.Contains(all, w.substr) {
			t.Errorf("missing candidate %s (%q) in:\n%s", w.name, w.substr, all)
		}
	}

	// Candidates must arrive in cost order.
	for i := 1; i < len(cands); i++ {
		if cands[i].Cost < cands[i-1].Cost-1e-9 {
			t.Fatalf("candidates out of cost order at %d: %v then %v", i, cands[i-1].Cost, cands[i].Cost)
		}
	}
}

func TestExploreCandidatesActuallyWork(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	cands := collectStream(t, ex, PinnedGoal("FlowTable", &v3, &v80, &v2))
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	want := ndlog.NewTuple("FlowTable", ndlog.Int(3), ndlog.Int(80), ndlog.Int(2))
	effective := 0
	for _, c := range cands {
		patch, err := c.Apply(prog)
		if err != nil {
			t.Errorf("candidate %q fails to apply: %v", c.Describe(), err)
			continue
		}
		eng := ndlog.MustNewEngine(patch.Prog)
		var appeared []ndlog.Tuple
		for _, ins := range patch.Inserts {
			appeared = append(appeared, eng.Insert(ins)...)
		}
		for _, pkt := range rec.BaseInserts("PacketIn") {
			appeared = append(appeared, eng.Insert(pkt)...)
		}
		for _, tp := range appeared {
			if tp.Equal(want) {
				effective++
				break
			}
		}
	}
	// Every candidate must make the missing tuple appear (the forest only
	// emits satisfiable trees; backtesting later filters side effects).
	if effective != len(cands) {
		t.Fatalf("only %d of %d candidates effective", effective, len(cands))
	}
}

func TestExploreTreeStructure(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	cands := collectStream(t, ex, PinnedGoal("FlowTable", &v3, &v80, &v2))
	for _, c := range cands {
		if c.Tree == nil {
			t.Fatal("candidate missing its meta-provenance tree")
		}
		r := c.Tree.Render()
		if !strings.Contains(r, "NEXIST") {
			t.Fatalf("tree has no NEXIST root:\n%s", r)
		}
	}
}

func TestRepairPositive(t *testing.T) {
	// Figure 7 scenario: FlowTable(2,80,2) derived by buggy r7 should not
	// exist (it hijacks S2's HTTP traffic to port 2).
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	bad := ndlog.NewTuple("FlowTable", ndlog.Int(2), ndlog.Int(80), ndlog.Int(2))
	cands := ex.RepairPositive(bad, rec)
	if len(cands) == 0 {
		t.Fatal("no positive-symptom candidates")
	}
	all := ""
	for _, c := range cands {
		all += c.Describe() + "\n"
	}
	// The green repair of Figure 7: change the constant in r7's guard.
	if !strings.Contains(all, "change constant 2 in r7 (sel/0/R)") {
		t.Errorf("missing constant-change repair:\n%s", all)
	}
	// Operator flips that falsify Swi==2 under Swi=2 must appear.
	if !strings.Contains(all, "change operator == to !=") &&
		!strings.Contains(all, "change operator == to >") {
		t.Errorf("missing operator-change repair:\n%s", all)
	}
	// Rule deletion is the blunt fallback.
	if !strings.Contains(all, "delete rule r7") {
		t.Errorf("missing rule deletion:\n%s", all)
	}
}

func TestRepairPositiveCandidatesDisableDerivation(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	bad := ndlog.NewTuple("FlowTable", ndlog.Int(2), ndlog.Int(80), ndlog.Int(2))
	for _, c := range ex.RepairPositive(bad, rec) {
		patch, err := c.Apply(prog)
		if err != nil {
			t.Fatalf("apply %q: %v", c.Describe(), err)
		}
		eng := ndlog.MustNewEngine(patch.Prog)
		deleted := make(map[string]bool)
		for _, d := range patch.Deletes {
			deleted[d.Key()] = true
		}
		var appeared []ndlog.Tuple
		for _, pkt := range rec.BaseInserts("PacketIn") {
			if deleted[pkt.Key()] {
				continue
			}
			appeared = append(appeared, eng.Insert(pkt)...)
		}
		for _, tp := range appeared {
			if tp.Equal(bad) {
				t.Fatalf("candidate %q does not remove the bad tuple", c.Describe())
			}
		}
	}
}

func TestExploreRespectsCutoff(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	ex.Cutoff = 0.5 // below any single change cost
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	cands := collectStream(t, ex, PinnedGoal("FlowTable", &v3, &v80, &v2))
	if len(cands) != 0 {
		t.Fatalf("cutoff ignored: %d candidates", len(cands))
	}
}

func TestExploreUnknownTable(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	cands := collectStream(t, ex, PinnedGoal("NoSuchTable"))
	// Only the manual-insert candidate can exist for an unknown table.
	for _, c := range cands {
		if !strings.Contains(c.Describe(), "manually insert") {
			t.Fatalf("unexpected candidate %q", c.Describe())
		}
	}
}

func TestGoalString(t *testing.T) {
	v := ndlog.Int(3)
	g := PinnedGoal("T", &v, nil)
	if g.String() != "T(3,T.arg1)" {
		t.Fatalf("goal string = %q", g.String())
	}
}
