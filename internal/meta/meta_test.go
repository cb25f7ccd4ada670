package meta

import (
	"strings"
	"testing"

	"repro/internal/ndlog"
)

const fig2 = `
materialize(FlowTable, 1, 3, keys(0,1)).
materialize(WebLoadBalancer, 1, 2, keys(0,1)).
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@Hdr,Prt), Swi == 1.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
`

func TestModelExtraction(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	m := NewModel(prog)
	if len(m.Heads) != 2 || len(m.Preds) != 3 {
		t.Fatalf("heads=%d preds=%d", len(m.Heads), len(m.Preds))
	}
	// r7 has constants 2 (sel 0), 80 (sel 1), 2 (assign 0); r1 has 1.
	var r7consts []ConstRef
	for _, c := range m.Consts {
		if c.Rule == "r7" {
			r7consts = append(r7consts, c)
		}
	}
	if len(r7consts) != 3 {
		t.Fatalf("r7 consts = %v", r7consts)
	}
	if len(m.Opers) != 3 {
		t.Fatalf("opers = %v", m.Opers)
	}
	if !m.IsDerived("FlowTable") || m.IsDerived("PacketIn") {
		t.Fatal("IsDerived misclassifies tables")
	}
	if got := len(m.RulesDeriving("FlowTable")); got != 2 {
		t.Fatalf("RulesDeriving = %d", got)
	}
	if m.TupleCount() == 0 {
		t.Fatal("TupleCount = 0")
	}
}

func TestSetConstApply(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	// The paper's fix: change Swi==2 in r7 to Swi==3.
	p, err := Apply(prog, []Change{
		SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	got := p.Prog.Rule("r7").Sels[0].String()
	if got != "Swi == 3" {
		t.Fatalf("patched selection = %q", got)
	}
	// Original untouched.
	if prog.Rule("r7").Sels[0].String() != "Swi == 2" {
		t.Fatal("original program mutated")
	}
}

func TestSetOperApply(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	p, err := Apply(prog, []Change{
		SetOper{RuleID: "r7", SelIdx: 0, Old: ndlog.OpEq, New: ndlog.OpGt},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if p.Prog.Rule("r7").Sels[0].Op != ndlog.OpGt {
		t.Fatal("operator unchanged")
	}
}

func TestDropSelDescendingOrder(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	// Delete both selections of r7; Apply must handle index shifting.
	p, err := Apply(prog, []Change{
		DropSel{RuleID: "r7", SelIdx: 0, Sel: "Swi == 2"},
		DropSel{RuleID: "r7", SelIdx: 1, Sel: "Hdr == 80"},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(p.Prog.Rule("r7").Sels) != 0 {
		t.Fatalf("sels remain: %v", p.Prog.Rule("r7").Sels)
	}
}

func TestDropBodyPredValidity(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	// Deleting WebLoadBalancer from r1 leaves Prt unbound in the head:
	// the validity guard must reject it.
	_, err := Apply(prog, []Change{
		DropBodyPred{RuleID: "r1", BodyIdx: 1, Pred: "WebLoadBalancer(Hdr,Prt)"},
	})
	if err == nil {
		t.Fatal("expected unbound-variable validation error")
	}
	if !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDropOnlyBodyPredRejected(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	_, err := Apply(prog, []Change{
		DropBodyPred{RuleID: "r7", BodyIdx: 0, Pred: "PacketIn"},
	})
	if err == nil {
		t.Fatal("expected error deleting only body predicate")
	}
}

func TestInsertTupleChange(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	fe := ndlog.NewTuple("FlowTable", ndlog.Int(3), ndlog.Int(80), ndlog.Int(2))
	p, err := Apply(prog, []Change{InsertTuple{Tuple: fe}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(p.Inserts) != 1 || !p.Inserts[0].Equal(fe) {
		t.Fatalf("inserts = %v", p.Inserts)
	}
	if p.Prog.String() != prog.String() {
		t.Fatal("program should be unchanged by a tuple insertion")
	}
}

func TestDropRule(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	p, err := Apply(prog, []Change{DropRule{RuleID: "r7"}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if p.Prog.Rule("r7") != nil {
		t.Fatal("r7 still present")
	}
}

func TestResolveExprPaths(t *testing.T) {
	prog := ndlog.MustParse("paths", `
x Out(@A,B) :- In(@A,V), B := V * 2 + 7, V == 3.
`)
	r := prog.Rules[0]
	e, _, err := ResolveExpr(r, "assign/0/L/R")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	c, ok := e.(*ndlog.ConstExpr)
	if !ok || c.Val.Int != 2 {
		t.Fatalf("assign/0/L/R = %v", e)
	}
	e, _, err = ResolveExpr(r, "sel/0/R")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if e.(*ndlog.ConstExpr).Val.Int != 3 {
		t.Fatalf("sel/0/R = %v", e)
	}
	if _, _, err := ResolveExpr(r, "sel/9/L"); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, _, err := ResolveExpr(r, "nonsense"); err == nil {
		t.Fatal("expected bad-path error")
	}
}

func TestSetExprVariableSubstitution(t *testing.T) {
	// Q5-style fix: change an assignment from the wildcard to a variable.
	prog := ndlog.MustParse("q5", `
f2 Learn(@Swi,Sip2) :- Pkt(@Swi,Sip), Sip2 := *.
`)
	p, err := Apply(prog, []Change{
		SetExpr{RuleID: "f2", Path: "assign/0", Old: "*", New: &ndlog.Var{Name: "Sip"}},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := p.Prog.Rule("f2").Assigns[0].String(); got != "Sip2 := Sip" {
		t.Fatalf("assign = %q", got)
	}
}
