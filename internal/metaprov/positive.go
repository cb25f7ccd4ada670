package metaprov

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/solver"
)

// RepairPositive extracts repair candidates for a positive symptom: a
// tuple that exists but should not (§4.2, Fig. 5's existing-tuple branch,
// Fig. 7). For every recorded derivation of the tuple it enumerates base
// tuple combinations in cost order, re-executes the derivation
// symbolically to collect constraints, negates them, and extracts changes
// or deletions; every candidate passes the rederivation guard before
// being returned.
func (ex *Explorer) RepairPositive(bad ndlog.Tuple, rec *provenance.Recorder) []Candidate {
	out, _ := ex.RepairPositiveContext(context.Background(), bad, rec)
	if ex.MaxCandidates > 0 && len(out) > ex.MaxCandidates {
		out = out[:ex.MaxCandidates]
	}
	return out
}

// RepairPositiveContext is RepairPositive with cooperative cancellation
// and no MaxCandidates truncation: the caller sees the full cost-ordered
// list and decides (visibly) how many to keep.
func (ex *Explorer) RepairPositiveContext(ctx context.Context, bad ndlog.Tuple, rec *provenance.Recorder) ([]Candidate, error) {
	derivs := rec.DerivationsOf(bad)
	var out []Candidate
	seen := make(map[string]bool)
	add := func(c Candidate) {
		c = c.cached() // one signature/structure build per candidate
		if seen[c.Signature()] {
			return
		}
		if !ex.survivesRederivation(c, bad, rec) {
			return
		}
		seen[c.Signature()] = true
		out = append(out, c)
	}
	for _, d := range derivs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		for _, c := range ex.positiveForDerivation(bad, d, rec) {
			add(c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}

// positiveForDerivation enumerates single-element changes that disable one
// derivation: constant changes and operator flips in the rule's guards,
// predicate deletions, rule deletion, and base-tuple changes or deletions.
func (ex *Explorer) positiveForDerivation(bad ndlog.Tuple, d *provenance.Derivation, rec *provenance.Recorder) []Candidate {
	var out []Candidate
	r := d.Rule

	// Selections: flip the operator so the guard fails under the recorded
	// environment, or change a constant via symbolic propagation.
	for i, s := range r.Sels {
		for _, op := range []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe} {
			if op == s.Op {
				continue
			}
			if ex.selHolds(d.Env, s.Left, op, s.Right) {
				continue // still true: derivation survives, not a repair
			}
			out = append(out, Candidate{
				Changes: []meta.Change{meta.SetOper{RuleID: r.ID, SelIdx: i, Old: s.Op, New: op, Sel: s.String()}},
				Cost:    cost.Of(cost.ChangeOperator),
			})
		}
		for _, side := range [2]struct {
			e    ndlog.Expr
			path string
			oth  ndlog.Expr
			flip bool
		}{
			{s.Left, fmt.Sprintf("sel/%d/L", i), s.Right, false},
			{s.Right, fmt.Sprintf("sel/%d/R", i), s.Left, true},
		} {
			c, isConst := side.e.(*ndlog.ConstExpr)
			if !isConst {
				continue
			}
			nv, ok := ex.symbolicConstChange(d.Env, c.Val, s.Op, side.oth, side.flip)
			if !ok {
				continue
			}
			out = append(out, Candidate{
				Changes: []meta.Change{meta.SetConst{RuleID: r.ID, Path: side.path, Old: c.Val, New: nv}},
				Cost:    cost.Of(cost.ChangeConstant),
			})
		}
	}

	// Assignments with constant right-hand sides: any different constant
	// changes the derived head, removing the bad tuple.
	for i, a := range r.Assigns {
		c, isConst := a.Expr.(*ndlog.ConstExpr)
		if !isConst {
			continue
		}
		nv, ok := ex.differentValue(c.Val)
		if !ok {
			continue
		}
		out = append(out, Candidate{
			Changes: []meta.Change{meta.SetConst{RuleID: r.ID, Path: fmt.Sprintf("assign/%d", i), Old: c.Val, New: nv}},
			Cost:    cost.Of(cost.ChangeConstant),
		})
	}

	// Body predicate deletions (validity-guarded in Apply) and rule
	// deletion.
	for i, b := range r.Body {
		ch := meta.DropBodyPred{RuleID: r.ID, BodyIdx: i, Pred: b.String()}
		if _, err := ex.Model.Apply([]meta.Change{ch}); err != nil {
			continue
		}
		out = append(out, Candidate{Changes: []meta.Change{ch}, Cost: cost.Of(cost.DeleteBodyPredicate)})
	}
	out = append(out, Candidate{
		Changes: []meta.Change{meta.DropRule{RuleID: r.ID}},
		Cost:    cost.Of(cost.DeleteRule),
	})

	// Base tuples: delete them, or change one argument so the derivation's
	// constraints no longer hold (symbolic constants, §4.2).
	for _, b := range d.Body {
		if !rec.WasInserted(b) {
			continue
		}
		out = append(out, Candidate{
			Changes: []meta.Change{meta.DeleteTuple{Tuple: b}},
			Cost:    cost.Of(cost.DeleteBaseTuple),
		})
		if c, ok := ex.changeBaseTuple(b, d); ok {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// selHolds evaluates a selection under the recorded environment with an
// alternative operator.
func (ex *Explorer) selHolds(env ndlog.Env, l ndlog.Expr, op ndlog.BinOp, r ndlog.Expr) bool {
	eng := ndlog.MustNewEngine(&ndlog.Program{Name: "sym"})
	lv, err1 := eng.Eval(env, l)
	rv, err2 := eng.Eval(env, r)
	if err1 != nil || err2 != nil {
		return true // cannot prove it fails: be conservative
	}
	res, err := ndlog.EvalOp(op, lv, rv)
	return err == nil && res.IsTrue()
}

// symbolicConstChange replaces a selection constant with a symbolic value
// Z, collects the constraint that made the derivation fire (e.g. 1 == Z),
// negates it, and solves for a different constant (the green repair of
// Fig. 7).
func (ex *Explorer) symbolicConstChange(env ndlog.Env, old ndlog.Value, op ndlog.BinOp, other ndlog.Expr, constOnRight bool) (ndlog.Value, bool) {
	eng := ndlog.MustNewEngine(&ndlog.Program{Name: "sym"})
	ov, err := eng.Eval(env, other)
	if err != nil {
		return ndlog.Value{}, false
	}
	p := solver.NewPool()
	if constOnRight {
		p.Add(solver.Cmp(solver.C(ov), op, solver.V("Z")))
	} else {
		p.Add(solver.Cmp(solver.V("Z"), op, solver.C(ov)))
	}
	asg, ok := ex.Solver.SolveNegation(p)
	if !ok {
		return ndlog.Value{}, false
	}
	nv, bound := asg["Z"]
	if !bound || nv.Equal(old) {
		return ndlog.Value{}, false
	}
	return nv, true
}

// differentValue picks a natural nearby value distinct from v.
func (ex *Explorer) differentValue(v ndlog.Value) (ndlog.Value, bool) {
	p := solver.NewPool()
	p.Add(solver.Cmp(solver.V("Z"), ndlog.OpNe, solver.C(v)))
	asg, ok := ex.Solver.Solve(p)
	if !ok {
		return ndlog.Value{}, false
	}
	return asg["Z"], true
}

// changeBaseTuple proposes replacing one argument of a base tuple so the
// derivation's selections no longer hold, expressed as a paired manual
// delete + insert.
func (ex *Explorer) changeBaseTuple(b ndlog.Tuple, d *provenance.Derivation) (Candidate, bool) {
	// Find which body predicate the tuple matched and the rule variables
	// bound to its columns.
	var pred *ndlog.Functor
	for _, f := range d.Rule.Body {
		if f.Table == b.Table && len(f.Args) == len(b.Args) {
			pred = f
			break
		}
	}
	if pred == nil {
		return Candidate{}, false
	}
	for col, arg := range pred.Args {
		v, isVar := arg.(*ndlog.Var)
		if !isVar || v.Name == "_" {
			continue
		}
		// Collect the selections this column's variable participates in.
		p := solver.NewPool()
		touched := false
		for _, s := range d.Rule.Sels {
			lt, lok := envTerm(d.Env, s.Left, v.Name)
			rt, rok := envTerm(d.Env, s.Right, v.Name)
			if !lok || !rok {
				continue
			}
			if lt.Var == "" && rt.Var == "" {
				continue // constraint does not involve this column
			}
			p.Add(solver.Cmp(lt, s.Op, rt))
			touched = true
		}
		if !touched {
			continue
		}
		asg, ok := ex.Solver.SolveNegation(p)
		if !ok {
			continue
		}
		nv, bound := asg["Z"]
		if !bound || nv.Equal(b.Args[col]) {
			continue
		}
		repl := b.Clone()
		repl.Args[col] = nv
		return Candidate{
			Changes: []meta.Change{
				meta.DeleteTuple{Tuple: b},
				meta.InsertTuple{Tuple: repl},
			},
			Cost: cost.Of(cost.DeleteBaseTuple) + cost.Of(cost.InsertBaseTuple),
		}, true
	}
	return Candidate{}, false
}

// envTerm translates an expression into a solver term under the recorded
// environment, mapping the symbolic variable name to Z.
func envTerm(env ndlog.Env, e ndlog.Expr, symVar string) (solver.Term, bool) {
	switch e := e.(type) {
	case *ndlog.Var:
		if e.Name == symVar {
			return solver.V("Z"), true
		}
		v, ok := env[e.Name]
		if !ok {
			return solver.Term{}, false
		}
		return solver.C(v), true
	case *ndlog.ConstExpr:
		return solver.C(e.Val), true
	}
	return solver.Term{}, false
}

// survivesRederivation applies the candidate and replays the recorded
// base inserts through the patched program; if the bad tuple is derived
// again (an alternate derivation enabled by the change, §4.2), the
// candidate is rejected.
func (ex *Explorer) survivesRederivation(c Candidate, bad ndlog.Tuple, rec *provenance.Recorder) bool {
	patch, err := ex.Model.Apply(c.Changes)
	if err != nil {
		return false
	}
	eng, err := ndlog.NewEngine(patch.Prog)
	if err != nil {
		return false
	}
	deleted := make(map[string]bool)
	for _, dt := range patch.Deletes {
		deleted[dt.Key()] = true
	}
	var appeared []ndlog.Tuple
	for _, ins := range patch.Inserts {
		appeared = append(appeared, eng.Insert(ins)...)
	}
	// Replay every base insert of every table the program consumes.
	tables := baseTables(ex.Model)
	for _, tab := range tables {
		for _, tp := range rec.BaseInserts(tab) {
			if deleted[tp.Key()] {
				continue
			}
			appeared = append(appeared, eng.Insert(tp)...)
		}
	}
	for _, tp := range appeared {
		if tp.Equal(bad) {
			return false
		}
	}
	return true
}

// baseTables lists tables that appear in rule bodies but are never
// derived — the program's inputs.
func baseTables(m *meta.Model) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range m.Preds {
		if !m.IsDerived(p.Table) && !seen[p.Table] {
			seen[p.Table] = true
			out = append(out, p.Table)
		}
	}
	sort.Strings(out)
	return out
}
