package metaprov

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/solver"
)

// Candidate is one extracted repair: a list of meta-tuple changes with a
// plausibility cost. Candidates from ExploreStream arrive in cost order.
type Candidate struct {
	Changes []meta.Change
	Cost    float64
	// Tree is the completed meta-provenance tree the candidate came from
	// (nil for positive-symptom candidates, which are extracted from the
	// positive provenance graph directly).
	Tree *Vertex

	// sig and shape memoize Signature and Structure. The emitter's dedup
	// probes one candidate against every prior one, so rebuilding the
	// strings (one ch.String() per change plus a sort) per probe was the
	// hot path; extraction caches them once and copies carry the cache.
	sig   string
	shape string
}

// cached returns a copy with the Signature and Structure strings
// precomputed; every extraction path calls it before publishing a
// candidate.
func (c Candidate) cached() Candidate {
	c.sig = c.buildSignature()
	c.shape = c.buildStructure()
	return c
}

// Describe renders the candidate in Table 2 style, e.g.
// "change constant 2 in r7 (sel/0/R) to 3".
func (c Candidate) Describe() string {
	parts := make([]string, len(c.Changes))
	for i, ch := range c.Changes {
		parts[i] = ch.String()
	}
	return strings.Join(parts, "; ")
}

// Signature returns a canonical identity for deduplication: the sorted
// change descriptions. Candidates published by the explorer carry the
// string precomputed; hand-built ones fall back to computing it.
func (c Candidate) Signature() string {
	if c.sig != "" {
		return c.sig
	}
	return c.buildSignature()
}

func (c Candidate) buildSignature() string {
	parts := make([]string, len(c.Changes))
	for i, ch := range c.Changes {
		parts[i] = ch.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// Structure identifies the candidate's change shape, ignoring concrete
// values: which rules, paths, and change kinds it touches. Candidates with
// equal structure differ only in solver-chosen constants. Like Signature,
// explorer-published candidates carry it precomputed.
func (c Candidate) Structure() string {
	if c.shape != "" {
		return c.shape
	}
	return c.buildStructure()
}

func (c Candidate) buildStructure() string {
	parts := make([]string, len(c.Changes))
	for i, ch := range c.Changes {
		switch ch := ch.(type) {
		case meta.SetConst:
			parts[i] = "const:" + ch.RuleID + ":" + ch.Path
		case meta.SetOper:
			parts[i] = fmt.Sprintf("oper:%s:%d:%s", ch.RuleID, ch.SelIdx, ch.New)
		case meta.SetExpr:
			parts[i] = "expr:" + ch.RuleID + ":" + ch.Path + ":" + ch.New.String()
		case meta.DropSel:
			parts[i] = fmt.Sprintf("dropsel:%s:%d", ch.RuleID, ch.SelIdx)
		case meta.DropBodyPred:
			parts[i] = fmt.Sprintf("droppred:%s:%d", ch.RuleID, ch.BodyIdx)
		case meta.DropRule:
			parts[i] = "droprule:" + ch.RuleID
		case meta.InsertTuple:
			parts[i] = "insert:" + ch.Tuple.Table
		case meta.DeleteTuple:
			parts[i] = "delete:" + ch.Tuple.Table
		case meta.AddRule:
			parts[i] = "addrule:" + ch.Rule.Head.Table
		default:
			parts[i] = ch.String()
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// Apply applies the candidate to a program, returning the patch.
func (c Candidate) Apply(prog *ndlog.Program) (*meta.Patch, error) {
	return meta.Apply(prog, c.Changes)
}

// extract turns a completed tree into a candidate (the missing-tuple
// branch of Fig. 5): solve the constraint pool and fill pending constant
// changes and tuple insertions from the satisfying assignment. The solve
// starts from the bindings the pool propagated while the tree grew. It
// stops at the candidate's signature: the validity guard and the vertex
// tree wait for the commit loop (emitter.admit), which skips both for a
// duplicate.
func (ex *Explorer) extract(t *Tree) (Candidate, bool) {
	start := time.Now()
	asg, ok := ex.Solver.Solve(t.Pool)
	ex.solveNanos.Add(int64(time.Since(start)))
	if !ok {
		return Candidate{}, false
	}
	if !ex.checkDeferred(t, asg) {
		return Candidate{}, false
	}
	changes := append([]meta.Change(nil), t.changes...)
	for _, pc := range t.pConsts {
		nv, bound := asg[pc.Var]
		if !bound {
			return Candidate{}, false
		}
		changes = append(changes, meta.SetConst{RuleID: pc.RuleID, Path: pc.Path, Old: pc.Old, New: nv})
	}
	for _, pi := range t.pInserts {
		tp := ndlog.Tuple{Table: pi.Table, Tags: ndlog.AllTags}
		for i, v := range pi.Vars {
			if i < len(pi.Fixed) && pi.Fixed[i] != nil {
				tp.Args = append(tp.Args, *pi.Fixed[i])
				continue
			}
			val, bound := asg[v]
			if !bound {
				return Candidate{}, false
			}
			tp.Args = append(tp.Args, val)
		}
		changes = append(changes, meta.InsertTuple{Tuple: tp})
	}
	changes = dedupChanges(changes)
	if len(changes) == 0 {
		return Candidate{}, false // no repair needed: symptom not reproduced
	}
	return Candidate{Changes: changes, Cost: t.Cost}.cached(), true
}

// checkDeferred grounds untranslatable guards with the assignment and
// evaluates them; unresolvable checks pass tentatively (backtesting weeds
// out survivors that do not actually work, §4.3).
func (ex *Explorer) checkDeferred(t *Tree, asg solver.Assignment) bool {
	if len(t.deferred) == 0 {
		return true
	}
	eng := ndlog.MustNewEngine(&ndlog.Program{Name: "deferred"})
	for _, d := range t.deferred {
		env := ndlog.Env{}
		for rv, svar := range d.env {
			if val, ok := asg[svar]; ok {
				env[rv] = val
			}
		}
		lv, err1 := eng.Eval(env, d.sel.Left)
		rv, err2 := evalDeferredTerm(eng, env, asg, d.sel.Right)
		if err1 != nil || err2 != nil {
			continue // unresolvable: tentatively accept
		}
		res, err := ndlog.EvalOp(d.sel.Op, lv, rv)
		if err != nil || !res.IsTrue() {
			return false
		}
	}
	return true
}

// evalDeferredTerm evaluates an expression that may contain "?solverVar"
// placeholders produced by termExpr.
func evalDeferredTerm(eng *ndlog.Engine, env ndlog.Env, asg solver.Assignment, e ndlog.Expr) (ndlog.Value, error) {
	if v, ok := e.(*ndlog.Var); ok && strings.HasPrefix(v.Name, "?") {
		if val, bound := asg[v.Name[1:]]; bound {
			return val, nil
		}
		return ndlog.Value{}, fmt.Errorf("unbound solver var %s", v.Name)
	}
	return eng.Eval(env, e)
}

func dedupChanges(changes []meta.Change) []meta.Change {
	seen := make(map[string]bool)
	var out []meta.Change
	for _, c := range changes {
		s := c.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, c)
		}
	}
	return out
}
