package scenarios

import (
	"context"
	"strings"
	"testing"

	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/pyretic"
	"repro/internal/trema"
	"repro/scenario"
)

func TestTremaTranslationQ1(t *testing.T) {
	s := scenario.Q1Spec().MustInstantiate(smallScale())
	lp, err := trema.Translate(s.Prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	src := lp.Source()
	for _, want := range []string{
		"def packet_in", "datapath_id == 2", "packet.dst_port == 80",
		"send_flow_mod_add",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Trema source missing %q:\n%s", want, src)
		}
	}
	if lp.LineCount() < 10 {
		t.Fatalf("line count = %d", lp.LineCount())
	}
}

func TestPyreticTranslationQ1(t *testing.T) {
	s := scenario.Q1Spec().MustInstantiate(smallScale())
	lp, err := pyretic.Translate(s.Prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	src := lp.Source()
	for _, want := range []string{"match(switch=2)", "match(dstport=80)", "fwd(", "if_(lambda pkt: pkt.srcip"} {
		if !strings.Contains(src, want) {
			t.Errorf("Pyretic source missing %q:\n%s", want, src)
		}
	}
}

func TestPyreticDisallowsEqualityOperatorChange(t *testing.T) {
	// The §5.8 observation: Swi==2 -> Swi>2 is expressible in RapidNet
	// and Trema but not in Pyretic's match().
	s := scenario.Q1Spec().MustInstantiate(smallScale())
	tp, _ := trema.Translate(s.Prog)
	pp, _ := pyretic.Translate(s.Prog)
	opChange := meta.SetOper{RuleID: "r7", SelIdx: 0, Old: ndlog.OpEq, New: ndlog.OpGt, Sel: "Swi == 2"}
	if !tp.AllowChange(opChange) {
		t.Fatal("Trema should allow operator changes")
	}
	if pp.AllowChange(opChange) {
		t.Fatal("Pyretic must reject operator changes on match equalities")
	}
	// Operator changes inside range filters (if_ lambdas) stay allowed.
	rangeChange := meta.SetOper{RuleID: "r1", SelIdx: 3, Old: ndlog.OpLt, New: ndlog.OpLe, Sel: "Sip < 1256"}
	if !pp.AllowChange(rangeChange) {
		t.Fatal("Pyretic should allow operator changes in embedded Python predicates")
	}
}

func TestCrossLanguageQ1(t *testing.T) {
	s := scenario.Q1Spec().MustInstantiate(smallScale())
	tremaOut, err := s.RunWithLanguage(context.Background(), scenario.TremaLang())
	if err != nil {
		t.Fatalf("trema: %v", err)
	}
	pyreticOut, err := s.RunWithLanguage(context.Background(), scenario.PyreticLang())
	if err != nil {
		t.Fatalf("pyretic: %v", err)
	}
	if tremaOut.Generated == 0 || tremaOut.Passed == 0 {
		t.Fatalf("trema: %d/%d", tremaOut.Passed, tremaOut.Generated)
	}
	if pyreticOut.Generated == 0 || pyreticOut.Passed == 0 {
		t.Fatalf("pyretic: %d/%d", pyreticOut.Passed, pyreticOut.Generated)
	}
	// The paper's Table 3 shape: Pyretic yields fewer candidates for Q1
	// because operator changes on match() are inexpressible.
	if pyreticOut.Generated >= tremaOut.Generated {
		t.Errorf("pyretic generated %d >= trema %d; expressibility filter inert",
			pyreticOut.Generated, tremaOut.Generated)
	}
	if pyreticOut.Filtered == 0 {
		t.Error("pyretic filtered no candidates")
	}
}

func TestPyreticQ4Unsupported(t *testing.T) {
	s := scenario.Q4Spec().MustInstantiate(smallScale())
	out, err := s.RunWithLanguage(context.Background(), scenario.PyreticLang())
	if err != nil {
		t.Fatal(err)
	}
	if out.Supported {
		t.Fatal("Q4 must be unsupported in Pyretic (its runtime forwards buffered packets)")
	}
}

func TestLanguagesComplete(t *testing.T) {
	langs := scenario.Languages()
	if len(langs) != 3 {
		t.Fatalf("languages = %d", len(langs))
	}
	prog := ndlog.MustParse("t", `r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Prt := 2.`)
	for _, l := range langs {
		lp, err := l.Translate(prog)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if lp.Source() == "" {
			t.Fatalf("%s: empty translation", l.Name)
		}
	}
}
