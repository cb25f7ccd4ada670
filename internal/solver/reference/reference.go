// Package reference is the from-scratch constraint solver the incremental
// store in package solver replaced. It is kept, unchanged in behaviour, as
// the oracle the differential tests compare against: it takes a flat
// constraint list and solves it from nothing through a name-keyed map, with
// no state shared between calls. Nothing outside tests imports it.
package reference

import (
	"sort"

	"repro/internal/ndlog"
	"repro/internal/solver"
)

// Solve finds a satisfying assignment for the conjunction of cs, or
// reports ok=false if none exists within maxBacktracks (0 means
// solver.DefaultMaxBacktracks). Lists of plain equalities are solved by
// propagation alone; everything else by propagation followed by a bounded
// candidate-value search.
func Solve(cs []solver.Constraint, maxBacktracks int) (solver.Assignment, bool) {
	if asg, done, ok := miniSolve(cs); done {
		return asg, ok
	}
	return search(cs, maxBacktracks)
}

// miniSolve handles lists consisting solely of unconditional, offset-free
// equalities. done=false means the list needs search.
func miniSolve(cs []solver.Constraint) (asg solver.Assignment, done, ok bool) {
	for _, c := range cs {
		if c.Op != ndlog.OpEq || len(c.Cond) > 0 || c.L.Off != 0 || c.R.Off != 0 {
			return nil, false, false
		}
	}
	asg = make(solver.Assignment)
	pending := append([]solver.Constraint{}, cs...)
	for {
		progress := false
		var next []solver.Constraint
		for _, c := range pending {
			lv, lok := resolveTerm(c.L, asg)
			rv, rok := resolveTerm(c.R, asg)
			switch {
			case lok && rok:
				if !lv.Equal(rv) {
					return nil, true, false
				}
			case lok && !rok:
				asg[c.R.Var] = lv
				progress = true
			case rok && !lok:
				asg[c.L.Var] = rv
				progress = true
			default:
				next = append(next, c)
			}
		}
		pending = next
		if len(pending) == 0 {
			return asg, true, true
		}
		if !progress {
			// Var=var chains with no constant anchor: assign zero to a
			// representative and keep going.
			asg[pending[0].L.Var] = ndlog.Int(0)
		}
	}
}

func resolveTerm(t solver.Term, asg solver.Assignment) (ndlog.Value, bool) {
	if t.Var == "" {
		return t.Val, true
	}
	v, ok := asg[t.Var]
	if !ok {
		return ndlog.Value{}, false
	}
	if t.Off != 0 {
		if v.Kind != ndlog.KindInt {
			return ndlog.Value{}, false
		}
		v = ndlog.Int(v.Int + t.Off)
	}
	return v, true
}

// evalConstraint evaluates a constraint under a partial assignment. It
// returns (satisfied, decidable).
func evalConstraint(c solver.Constraint, asg solver.Assignment) (bool, bool) {
	for _, cond := range c.Cond {
		ok, dec := evalConstraint(cond, asg)
		if !dec {
			return false, false
		}
		if !ok {
			return true, true
		}
	}
	lv, lok := resolveTerm(c.L, asg)
	rv, rok := resolveTerm(c.R, asg)
	if !lok || !rok {
		return false, false
	}
	res, err := ndlog.EvalOp(c.Op, lv, rv)
	if err != nil {
		return false, true
	}
	return res.IsTrue(), true
}

// search propagates unconditional equalities (with offsets) to a fixed
// point, then backtracks over candidate values for the remaining variables
// in name order.
func search(cs []solver.Constraint, maxBacktracks int) (solver.Assignment, bool) {
	asg := make(solver.Assignment)
	for {
		progress := false
		for _, c := range cs {
			if c.Op != ndlog.OpEq || len(c.Cond) > 0 {
				continue
			}
			lv, lok := resolveTerm(c.L, asg)
			rv, rok := resolveTerm(c.R, asg)
			switch {
			case lok && rok:
				if !lv.Equal(rv) {
					return nil, false
				}
			case lok && !rok:
				if v, ok := invertOffset(lv, c.R.Off); ok {
					asg[c.R.Var] = v
					progress = true
				}
			case rok && !lok:
				if v, ok := invertOffset(rv, c.L.Off); ok {
					asg[c.L.Var] = v
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	var vars []string
	for _, v := range varsOf(cs) {
		if _, bound := asg[v]; !bound {
			vars = append(vars, v)
		}
	}
	cands := candidateValues(cs)
	for _, v := range asg {
		cands = append(cands, v)
		if v.Kind == ndlog.KindInt {
			cands = append(cands, ndlog.Int(v.Int+1), ndlog.Int(v.Int-1))
		}
	}
	cands = dedupValues(cands)
	if len(cands) == 0 {
		cands = []ndlog.Value{ndlog.Int(0)}
	}
	budget := maxBacktracks
	if budget <= 0 {
		budget = solver.DefaultMaxBacktracks
	}
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if budget <= 0 {
			return false
		}
		if i == len(vars) {
			for _, c := range cs {
				ok, dec := evalConstraint(c, asg)
				if !dec || !ok {
					return false
				}
			}
			return true
		}
		for _, v := range cands {
			asg[vars[i]] = v
			consistent := true
			for _, c := range cs {
				ok, dec := evalConstraint(c, asg)
				if dec && !ok {
					consistent = false
					break
				}
			}
			if consistent && dfs(i+1) {
				return true
			}
			budget--
			delete(asg, vars[i])
		}
		return false
	}
	if dfs(0) {
		return asg, true
	}
	return nil, false
}

// varsOf returns the sorted variable names mentioned anywhere in cs.
func varsOf(cs []solver.Constraint) []string {
	set := make(map[string]struct{})
	var walk func(cs []solver.Constraint)
	walk = func(cs []solver.Constraint) {
		for _, c := range cs {
			if c.L.Var != "" {
				set[c.L.Var] = struct{}{}
			}
			if c.R.Var != "" {
				set[c.R.Var] = struct{}{}
			}
			walk(c.Cond)
		}
	}
	walk(cs)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// candidateValues collects every constant in the constraint set, plus ±1
// neighbours of integers, deduplicated and ordered by value key.
func candidateValues(cs []solver.Constraint) []ndlog.Value {
	set := make(map[string]ndlog.Value)
	add := func(v ndlog.Value) {
		set[v.Key()] = v
		if v.Kind == ndlog.KindInt {
			set[ndlog.Int(v.Int+1).Key()] = ndlog.Int(v.Int + 1)
			set[ndlog.Int(v.Int-1).Key()] = ndlog.Int(v.Int - 1)
		}
	}
	var walk func(cs []solver.Constraint)
	walk = func(cs []solver.Constraint) {
		for _, c := range cs {
			if c.L.Var == "" {
				add(c.L.Val)
			}
			if c.R.Var == "" {
				add(c.R.Val)
			}
			walk(c.Cond)
		}
	}
	walk(cs)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ndlog.Value, 0, len(keys))
	for _, k := range keys {
		out = append(out, set[k])
	}
	return out
}

// invertOffset solves x + off == val for x.
func invertOffset(val ndlog.Value, off int64) (ndlog.Value, bool) {
	if off == 0 {
		return val, true
	}
	if val.Kind != ndlog.KindInt {
		return ndlog.Value{}, false
	}
	return ndlog.Int(val.Int - off), true
}

// dedupValues removes duplicates and orders by value key.
func dedupValues(vals []ndlog.Value) []ndlog.Value {
	seen := make(map[string]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// SolveNegation finds an assignment that satisfies every hard constraint
// of cs but violates one soft constraint, trying soft constraints in order.
func SolveNegation(cs []solver.Constraint, maxBacktracks int) (solver.Assignment, bool) {
	var hard []solver.Constraint
	for _, c := range cs {
		if c.Hard {
			hard = append(hard, c)
		}
	}
	for _, c := range cs {
		if c.Hard {
			continue
		}
		try := append(append([]solver.Constraint{}, hard...), c.Negate())
		if asg, ok := search(try, maxBacktracks); ok {
			return asg, true
		}
	}
	return nil, false
}
