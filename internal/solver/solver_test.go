package solver

import (
	"testing"
	"testing/quick"

	"repro/internal/ndlog"
)

func TestMiniSolverEqualities(t *testing.T) {
	// The paper's Figure 6 pool: Const0.Val = 3, Const0.Rul = r7,
	// Const0.ID = 2.
	p := NewPool()
	p.Add(Eq(V("Const0.Val"), CInt(3)))
	p.Add(Eq(V("Const0.Rul"), C(ndlog.Str("r7"))))
	p.Add(Eq(V("Const0.ID"), CInt(2)))
	var s Solver
	asg, ok := s.Solve(p)
	if !ok {
		t.Fatal("expected SAT")
	}
	if asg["Const0.Val"].Int != 3 || asg["Const0.Rul"].Str != "r7" {
		t.Fatalf("assignment = %v", asg)
	}
	if len(p.open) != 0 || p.mixed {
		t.Fatalf("plain equalities not solved by propagation: %d open, mixed=%v", len(p.open), p.mixed)
	}
}

func TestMiniSolverChains(t *testing.T) {
	p := NewPool()
	p.Add(Eq(V("A"), V("B")))
	p.Add(Eq(V("B"), V("C")))
	p.Add(Eq(V("C"), CInt(42)))
	var s Solver
	asg, ok := s.Solve(p)
	if !ok || asg["A"].Int != 42 {
		t.Fatalf("chain propagation failed: %v ok=%v", asg, ok)
	}
}

func TestMiniSolverConflict(t *testing.T) {
	p := NewPool()
	p.Add(Eq(V("A"), CInt(1)))
	p.Add(Eq(V("A"), CInt(2)))
	var s Solver
	if _, ok := s.Solve(p); ok {
		t.Fatal("expected UNSAT")
	}
}

func TestSearchJointConstraints(t *testing.T) {
	// The §3.4 example: A(x,y) :- B(x), C(x,y), x+y>1, x>0 with A0.y == 2.
	p := NewPool()
	p.Add(Eq(V("A0.y"), CInt(2)))
	p.Add(Eq(V("B0.x"), V("C0.x")))
	p.Add(Cmp(V("B0.x"), ndlog.OpGt, CInt(0)))
	p.Add(Cmp(VOff("C0.x", 0), ndlog.OpGt, VOff("C0.y", -1))) // x > y-1 <=> x+y>1 given y=2... keep explicit below
	p.Add(Eq(V("A0.x"), V("C0.x")))
	p.Add(Eq(V("A0.y"), V("C0.y")))
	var s Solver
	asg, ok := s.Solve(p)
	if !ok {
		t.Fatal("expected SAT")
	}
	if asg["A0.y"].Int != 2 || asg["C0.y"].Int != 2 {
		t.Fatalf("y not pinned: %v", asg)
	}
	if asg["B0.x"].Int != asg["C0.x"].Int || asg["B0.x"].Int <= 0 {
		t.Fatalf("join/positivity violated: %v", asg)
	}
	if !Check(p, asg) {
		t.Fatalf("Check rejects solver's own assignment: %v", asg)
	}
}

func TestSearchInequalities(t *testing.T) {
	// Change Swi==2 to Swi==V such that V equals 3 (the historical switch).
	p := NewPool()
	p.Add(Eq(V("V"), CInt(3)))
	p.Add(Cmp(V("V"), ndlog.OpNe, CInt(2))) // must differ from the buggy constant
	var s Solver
	asg, ok := s.Solve(p)
	if !ok || asg["V"].Int != 3 {
		t.Fatalf("asg = %v ok = %v", asg, ok)
	}
}

func TestSearchStrictInequalityNeighbours(t *testing.T) {
	// V > 5 and V < 7 forces V = 6, reachable only via ±1 candidates.
	p := NewPool()
	p.Add(Cmp(V("V"), ndlog.OpGt, CInt(5)))
	p.Add(Cmp(V("V"), ndlog.OpLt, CInt(7)))
	var s Solver
	asg, ok := s.Solve(p)
	if !ok || asg["V"].Int != 6 {
		t.Fatalf("asg = %v ok = %v", asg, ok)
	}
}

func TestSearchUnsat(t *testing.T) {
	p := NewPool()
	p.Add(Cmp(V("V"), ndlog.OpGt, CInt(5)))
	p.Add(Cmp(V("V"), ndlog.OpLt, CInt(5)))
	var s Solver
	if _, ok := s.Solve(p); ok {
		t.Fatal("expected UNSAT")
	}
}

func TestImplicationPrimaryKey(t *testing.T) {
	// §3.4: D.x == D0.x implies D.y == 1, and D.x == D1.x implies D.y == 2,
	// with D0.x = D1.x = 9: no single D can satisfy both.
	p := NewPool()
	p.Add(Eq(V("D0.x"), CInt(9)))
	p.Add(Eq(V("D1.x"), CInt(9)))
	p.Add(Eq(V("D.x"), CInt(9)))
	p.Add(Constraint{Op: ndlog.OpEq, L: V("D.y"), R: CInt(1),
		Cond: []Constraint{Eq(V("D.x"), V("D0.x"))}})
	p.Add(Constraint{Op: ndlog.OpEq, L: V("D.y"), R: CInt(2),
		Cond: []Constraint{Eq(V("D.x"), V("D1.x"))}})
	var s Solver
	if _, ok := s.Solve(p); ok {
		t.Fatal("expected UNSAT: conflicting primary-key implications")
	}
}

func TestImplicationVacuous(t *testing.T) {
	p := NewPool()
	p.Add(Eq(V("D.x"), CInt(5)))
	p.Add(Constraint{Op: ndlog.OpEq, L: V("D.y"), R: CInt(1),
		Cond: []Constraint{Eq(V("D.x"), CInt(9))}})
	p.Add(Eq(V("D.y"), CInt(7)))
	var s Solver
	asg, ok := s.Solve(p)
	if !ok || asg["D.y"].Int != 7 {
		t.Fatalf("vacuous implication mishandled: %v ok=%v", asg, ok)
	}
}

func TestSolveNegation(t *testing.T) {
	// §4.2 green repair: symbolic constant Z collected constraint 1 == Z;
	// the negation yields a Z != 1, breaking the derivation.
	p := NewPool()
	p.Add(Eq(CInt(1), V("Z")))
	var s Solver
	asg, ok := s.SolveNegation(p)
	if !ok {
		t.Fatal("expected negation SAT")
	}
	if asg["Z"].Int == 1 {
		t.Fatalf("negation failed: Z = %v", asg["Z"])
	}
}

func TestSolveNegationRespectsHard(t *testing.T) {
	p := NewPool()
	p.Add(Constraint{Op: ndlog.OpEq, L: V("Z"), R: CInt(2), Hard: true})
	p.Add(Eq(V("Z"), CInt(2))) // soft duplicate: negation must fail
	var s Solver
	if _, ok := s.SolveNegation(p); ok {
		t.Fatal("negation should be blocked by the hard constraint")
	}
}

func TestNegateRoundTrip(t *testing.T) {
	ops := []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe}
	for _, op := range ops {
		c := Cmp(V("X"), op, CInt(1))
		if c.Negate().Negate().Op != op {
			t.Fatalf("double negation of %v changed operator", op)
		}
	}
}

// Property: whenever Solve reports SAT, the assignment checks out.
func TestSolveSoundness(t *testing.T) {
	f := func(a, b int8, op uint8) bool {
		ops := []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe}
		p := NewPool()
		p.Add(Cmp(V("X"), ops[int(op)%len(ops)], CInt(int64(a))))
		p.Add(Cmp(V("X"), ops[int(op>>4)%len(ops)], CInt(int64(b))))
		var s Solver
		asg, ok := s.Solve(p)
		if !ok {
			return true // UNSAT is always sound to report under our bound
		}
		return Check(p, asg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveNegation's assignment satisfies hard constraints and
// violates the conjunction.
func TestNegationSoundness(t *testing.T) {
	f := func(a int8) bool {
		p := NewPool()
		p.Add(Eq(V("X"), CInt(int64(a))))
		var s Solver
		asg, ok := s.SolveNegation(p)
		if !ok {
			return false
		}
		return !Check(p, asg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCloneIndependence(t *testing.T) {
	p := NewPool()
	p.Add(Eq(V("X"), CInt(1)))
	q := p.Clone()
	q.Add(Eq(V("Y"), CInt(2)))
	if p.Len() != 1 || q.Len() != 2 {
		t.Fatalf("clone not independent: %d vs %d", p.Len(), q.Len())
	}
}

func TestVarsSorted(t *testing.T) {
	p := NewPool()
	p.Add(Eq(V("Zed"), V("Alpha")))
	p.Add(Cmp(V("Mid"), ndlog.OpLt, CInt(3)))
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != "Alpha" || vars[2] != "Zed" {
		t.Fatalf("vars = %v", vars)
	}
}
