package meta

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/ndlog"
)

// muDlogProgram is the µDlog meta model of Figure 4, transcribed in
// the NDlog dialect this repository implements. It describes the
// operational semantics of the toy language of §3: how base tuples and
// rule firings produce tuples (h1, h2), how concrete tuples satisfy
// syntactic predicates (p1, p2), how joins are computed (j1, j2), how
// expressions evaluate (e1–e7), and how assignments and selections work
// (a1, s1). The meta program is itself executable by the ndlog engine —
// programs really are just another kind of data. The tests below rederive
// the running example's flow entry from meta tuples alone, and
// TestPatchMatchesMetaModel runs it as the oracle for Apply.
//
// Differences from the paper's figure are mechanical: µDlog's fixed
// two-column tables let Figure 4 hard-code arities; we keep those
// arities, name the join-ID wildcard * as in the paper, and implement
// f_match/f_join as engine builtins.
const muDlogProgram = `
materialize(HeadFunc, 1, 6, keys(0,1,2,3,4,5)).
materialize(PredFunc, 1, 5, keys(0,1,2,3,4)).
materialize(Assign, 1, 4, keys(0,1,2,3)).
materialize(Const, 1, 4, keys(0,1,2)).
materialize(Oper, 1, 6, keys(0,1,2,3,4,5)).
materialize(Base, 1, 4, keys(0,1,2,3)).
materialize(Tuple, 1, 4, keys(0,1,2,3)).
materialize(TuplePred, 1, 7, keys(0,1,2,3,4,5,6)).
materialize(PredFuncCount, 1, 3, keys(0,1)).
materialize(Join4, 1, 11, keys(0,1,2)).
materialize(Join2, 1, 7, keys(0,1,2)).
materialize(Expr, 1, 5, keys(0,1,2,3,4)).
materialize(HeadVal, 1, 5, keys(0,1,2,3,4)).
materialize(Sel, 1, 5, keys(0,1,2,3)).

/* h1: base tuples exist as tuples. */
h1 Tuple(@C,Tab,Val1,Val2) :- Base(@C,Tab,Val1,Val2).

/* h2: a rule fires iff both its selection predicates hold on a join and
   the head values are available (µDlog rules have exactly two selection
   predicates, distinguished by SID). */
h2 Tuple(@L,Tab,Val1,Val2) :- HeadFunc(@C,Rul,Tab,Loc,Arg1,Arg2), HeadVal(@C,Rul,JID,Loc,L),
   HeadVal(@C,Rul,JID1,Arg1,Val1), HeadVal(@C,Rul,JID2,Arg2,Val2),
   Sel(@C,Rul,JID,SID,Val), Sel(@C,Rul,JID,SIDb,Valb),
   Val == true, Valb == true, SID != SIDb,
   true == f_match(JID1,JID), true == f_match(JID2,JID).

/* p1: each concrete tuple generates a variable assignment for every
   syntactic predicate over its table. */
p1 TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2) :- Tuple(@C,Tab,Val1,Val2), PredFunc(@C,Rul,Tab,Arg1,Arg2).

/* p2: count the predicates in each rule body. */
p2 PredFuncCount(@C,Rul,a_count<Tab>) :- PredFunc(@C,Rul,Tab,Arg1,Arg2).

/* j1: two-table rules join the full cross product of their predicates. */
j1 Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4) :-
   TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2), TuplePred(@C,Rul,Tabb,Arg3,Arg4,Val3,Val4),
   PredFuncCount(@C,Rul,N), N == 2, Tab != Tabb, JID := f_unique().

/* j2: single-table rules lift the predicate directly. */
j2 Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2) :- TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2),
   PredFuncCount(@C,Rul,N), N == 1, JID := f_unique().

/* e1: constants evaluate on every join (wildcard JID). */
e1 Expr(@C,Rul,JID,ID,Val) :- Const(@C,Rul,ID,Val), JID := *.

/* e2-e3: Join2 columns evaluate as expressions. */
e2 Expr(@C,Rul,JID,Arg1,Val1) :- Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2).
e3 Expr(@C,Rul,JID,Arg2,Val2) :- Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2).

/* e4-e7: Join4 columns evaluate as expressions. */
e4 Expr(@C,Rul,JID,Arg1,Val1) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e5 Expr(@C,Rul,JID,Arg2,Val2) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e6 Expr(@C,Rul,JID,Arg3,Val3) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e7 Expr(@C,Rul,JID,Arg4,Val4) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).

/* a1: assignments set head values from expressions. */
a1 HeadVal(@C,Rul,JID,Arg,Val) :- Assign(@C,Rul,Arg,ID), Expr(@C,Rul,JID,ID,Val).

/* s1: selection predicates evaluate operator applications over matching
   join states; f_join resolves the JID wildcard. */
s1 Sel(@C,Rul,JID,SID,Val) :- Oper(@C,Rul,SID,IDa,IDb,Opr),
   Expr(@C,Rul,JIDa,IDa,Vala), Expr(@C,Rul,JIDb,IDb,Valb),
   true == f_match(JIDa,JIDb), JID := f_join(JIDa,JIDb),
   Val := f_cmp(Opr,Vala,Valb), IDa != IDb.
`

// muDlogModel is the Figure 4 meta program, parsed once: engines never
// write the rules they run.
var muDlogModel = sync.OnceValue(func() *ndlog.Program {
	return ndlog.MustParse("mudlog-meta", muDlogProgram)
})

// newMuDlogEngine compiles the meta program with the f_cmp helper the s1
// meta rule uses to apply a reified operator to two values.
func newMuDlogEngine() (*ndlog.Engine, error) {
	eng, err := ndlog.NewEngine(muDlogModel())
	if err != nil {
		return nil, err
	}
	eng.Funcs["f_cmp"] = func(_ *ndlog.Engine, args []ndlog.Value) (ndlog.Value, error) {
		if len(args) != 3 {
			return ndlog.Value{}, errCmpArity
		}
		op, ok := ndlog.ParseOp(args[0].Str)
		if !ok {
			return ndlog.Value{}, errCmpArity
		}
		return ndlog.EvalOp(op, args[1], args[2])
	}
	return eng, nil
}

var errCmpArity = errors.New("meta: f_cmp expects (op, left, right)")

// TestMuDlogMetaProgramDerivesFlowEntry evaluates the Figure 4 meta rules
// with our own engine: the µDlog rule r5 (FlowTable(@Swi,Hdr,Prt) :-
// PacketIn(@Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1 in two-column form) is
// loaded as meta tuples, a PacketIn base tuple arrives, and the meta
// program itself derives the flow entry — the program-as-data claim of
// §3.2, executed literally.
func TestMuDlogMetaProgramDerivesFlowEntry(t *testing.T) {
	eng, err := newMuDlogEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	c := ndlog.Str("C")

	// Program-based meta tuples for a µDlog rule r5 over two-column
	// tuples: PacketIn(Swi, Hdr) with selections Swi == 2, Hdr == 80 and
	// head FlowTable(Swi, Prt) where Prt := 1 (a constant).
	insert := func(tab string, args ...ndlog.Value) {
		eng.Insert(ndlog.NewTuple(tab, append([]ndlog.Value{c}, args...)...))
	}
	// HeadFunc(@C, Rul, Tab, Loc, Arg1, Arg2): head FlowTable(@Swi, Hdr, cPrt).
	insert("HeadFunc", ndlog.Str("r5"), ndlog.Str("FlowTable"), ndlog.Str("Swi"), ndlog.Str("Hdr"), ndlog.Str("cPrt"))
	// PredFunc(@C, Rul, Tab, Arg1, Arg2): body PacketIn(Swi, Hdr).
	insert("PredFunc", ndlog.Str("r5"), ndlog.Str("PacketIn"), ndlog.Str("Swi"), ndlog.Str("Hdr"))
	// Constants: the selection operands 2 and 80, and the head port 1.
	insert("Const", ndlog.Str("r5"), ndlog.Str("c2"), ndlog.Int(2))
	insert("Const", ndlog.Str("r5"), ndlog.Str("c80"), ndlog.Int(80))
	insert("Const", ndlog.Str("r5"), ndlog.Str("cPrt"), ndlog.Int(1))
	// Operators: Swi == 2 (SID s1) and Hdr == 80 (SID s2).
	insert("Oper", ndlog.Str("r5"), ndlog.Str("s1"), ndlog.Str("Swi"), ndlog.Str("c2"), ndlog.Str("=="))
	insert("Oper", ndlog.Str("r5"), ndlog.Str("s2"), ndlog.Str("Hdr"), ndlog.Str("c80"), ndlog.Str("=="))
	// Assignments: head values come from the join columns and constants.
	insert("Assign", ndlog.Str("r5"), ndlog.Str("Swi"), ndlog.Str("Swi"))
	insert("Assign", ndlog.Str("r5"), ndlog.Str("Hdr"), ndlog.Str("Hdr"))
	insert("Assign", ndlog.Str("r5"), ndlog.Str("cPrt"), ndlog.Str("cPrt"))

	// Runtime: the base tuple PacketIn(2, 80) arrives.
	insert("Base", ndlog.Str("PacketIn"), ndlog.Int(2), ndlog.Int(80))

	// The meta program must rederive Tuple(@2, FlowTable, 80, 1): the
	// rule fired, placing the entry at switch 2 with port 1.
	found := false
	for _, row := range eng.Rows("Tuple") {
		if row.Args[1].Equal(ndlog.Str("FlowTable")) {
			found = true
			if row.Args[0].Int != 2 {
				t.Errorf("flow entry at location %v, want 2", row.Args[0])
			}
			if row.Args[2].Int != 80 || row.Args[3].Int != 1 {
				t.Errorf("flow entry values = %v,%v want 80,1", row.Args[2], row.Args[3])
			}
		}
	}
	if !found {
		for _, tab := range []string{"Tuple", "TuplePred", "Join2", "Expr", "HeadVal", "Sel"} {
			for _, row := range eng.Rows(tab) {
				t.Logf("%s: %s", tab, row)
			}
		}
		t.Fatal("meta program failed to derive the flow entry")
	}
}

// TestMuDlogMetaProgramRespectsSelections checks the negative case: a
// packet that fails a selection must not derive a flow entry.
func TestMuDlogMetaProgramRespectsSelections(t *testing.T) {
	eng, err := newMuDlogEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	c := ndlog.Str("C")
	insert := func(tab string, args ...ndlog.Value) {
		eng.Insert(ndlog.NewTuple(tab, append([]ndlog.Value{c}, args...)...))
	}
	insert("HeadFunc", ndlog.Str("r5"), ndlog.Str("FlowTable"), ndlog.Str("Swi"), ndlog.Str("Hdr"), ndlog.Str("cPrt"))
	insert("PredFunc", ndlog.Str("r5"), ndlog.Str("PacketIn"), ndlog.Str("Swi"), ndlog.Str("Hdr"))
	insert("Const", ndlog.Str("r5"), ndlog.Str("c2"), ndlog.Int(2))
	insert("Const", ndlog.Str("r5"), ndlog.Str("c80"), ndlog.Int(80))
	insert("Const", ndlog.Str("r5"), ndlog.Str("cPrt"), ndlog.Int(1))
	insert("Oper", ndlog.Str("r5"), ndlog.Str("s1"), ndlog.Str("Swi"), ndlog.Str("c2"), ndlog.Str("=="))
	insert("Oper", ndlog.Str("r5"), ndlog.Str("s2"), ndlog.Str("Hdr"), ndlog.Str("c80"), ndlog.Str("=="))
	insert("Assign", ndlog.Str("r5"), ndlog.Str("Swi"), ndlog.Str("Swi"))
	insert("Assign", ndlog.Str("r5"), ndlog.Str("Hdr"), ndlog.Str("Hdr"))
	insert("Assign", ndlog.Str("r5"), ndlog.Str("cPrt"), ndlog.Str("cPrt"))

	// Switch 3 fails Swi == 2: no flow entry may appear (this is the
	// Figure 1 symptom at the meta level).
	insert("Base", ndlog.Str("PacketIn"), ndlog.Int(3), ndlog.Int(80))
	for _, row := range eng.Rows("Tuple") {
		if row.Args[1].Equal(ndlog.Str("FlowTable")) {
			t.Fatalf("selection violated: derived %s", row)
		}
	}
}

func TestMetaTupleKinds(t *testing.T) {
	p := muDlogModel()
	tuples, rules := len(p.Decls), len(p.Rules)
	// The paper reports 13 meta tuples and 15 meta rules for µDlog; our
	// transcription has 14 tables (h2's head bookkeeping is a table here)
	// and 15 rules.
	if rules != 15 {
		t.Errorf("meta rules = %d, want 15 (Figure 4)", rules)
	}
	if tuples < 13 || tuples > 14 {
		t.Errorf("meta tuple kinds = %d, want 13-14", tuples)
	}
}
