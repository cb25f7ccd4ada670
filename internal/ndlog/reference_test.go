package ndlog

// The map-based reference evaluator. unify, checkGuards and boundVars are
// the engine's former production path: an Env map cloned per unification,
// guard readiness decided at run time. They stay here as the oracle the
// slot-compiled engine (compile.go) is compared against, firing by firing:
// refEval listens to an engine, and each time a tuple appears — the moment
// before the engine fires its rules — enumerates with the map path, over
// the engine's own stores and plan order but none of its compiled atoms,
// guards or heads, the derivations that firing must report.

import (
	"fmt"
	"sort"
)

// unify matches a concrete tuple against a body functor, extending env.
// It returns false when the tuple cannot match; env itself is never
// mutated, a match returns an extended clone.
func (e *Engine) unify(env Env, f *Functor, t Tuple) (Env, bool) {
	if f.Table != t.Table || len(f.Args) != len(t.Args) {
		return nil, false
	}
	out := env
	cloned := false
	for i, arg := range f.Args {
		switch a := arg.(type) {
		case *Var:
			if a.Name == "_" {
				continue
			}
			if v, ok := out[a.Name]; ok {
				if !v.Equal(t.Args[i]) {
					return nil, false
				}
			} else {
				if !cloned {
					out = out.Clone()
					cloned = true
				}
				out[a.Name] = t.Args[i]
			}
		case *ConstExpr:
			if !a.Val.Matches(t.Args[i]) {
				return nil, false
			}
		default:
			// Body arguments that are computed expressions: evaluate if
			// fully bound and compare.
			v, err := e.Eval(out, arg)
			if err != nil {
				return nil, false
			}
			if !v.Equal(t.Args[i]) {
				return nil, false
			}
		}
	}
	if !cloned {
		out = out.Clone()
	}
	return out, true
}

// checkGuards evaluates the rule's assignments and selections under env,
// handling dependency order: any assignment whose inputs are bound runs
// first, selections run as soon as both sides are bound. It returns the
// final environment and whether all selections passed. An error indicates a
// program bug (e.g. a variable never bound).
func (e *Engine) checkGuards(r *Rule, env Env) (Env, bool, error) {
	doneA := make([]bool, len(r.Assigns))
	doneS := make([]bool, len(r.Sels))
	remaining := len(r.Assigns) + len(r.Sels)
	for remaining > 0 {
		progress := false
		for i, a := range r.Assigns {
			if doneA[i] || !boundVars(env, a.Expr) {
				continue
			}
			v, err := e.Eval(env, a.Expr)
			if err != nil {
				return env, false, err
			}
			env[a.Var] = v
			doneA[i] = true
			remaining--
			progress = true
		}
		for i, s := range r.Sels {
			if doneS[i] || !boundVars(env, s.Left) || !boundVars(env, s.Right) {
				continue
			}
			l, err := e.Eval(env, s.Left)
			if err != nil {
				return env, false, err
			}
			rv, err := e.Eval(env, s.Right)
			if err != nil {
				return env, false, err
			}
			res, err := applyOp(s.Op, l, rv)
			if err != nil {
				return env, false, err
			}
			if !res.IsTrue() {
				return env, false, nil
			}
			doneS[i] = true
			remaining--
			progress = true
		}
		if !progress {
			var unbound []string
			for i, a := range r.Assigns {
				if !doneA[i] {
					unbound = append(unbound, a.String())
				}
			}
			for i, s := range r.Sels {
				if !doneS[i] {
					unbound = append(unbound, s.String())
				}
			}
			sort.Strings(unbound)
			return env, false, fmt.Errorf("ndlog: rule %s: guards never became bound: %v", r.ID, unbound)
		}
	}
	return env, true, nil
}

// boundVars reports whether every free variable of x is bound in env.
func boundVars(env Env, x Expr) bool {
	for _, v := range x.Vars(nil) {
		if v == "_" {
			continue
		}
		if _, ok := env[v]; !ok {
			return false
		}
	}
	return true
}

// guardsBindable reports whether checkGuards can get through the rule's
// guards at all, given the variables env binds. A rule whose guards can
// never all become bound runs none of them (no f_unique call it would reach
// first is made): the firing is counted and derives nothing.
func guardsBindable(r *Rule, env Env) bool {
	dry := env.Clone()
	doneA := make([]bool, len(r.Assigns))
	doneS := make([]bool, len(r.Sels))
	for left := len(r.Assigns) + len(r.Sels); left > 0; {
		before := left
		for i, a := range r.Assigns {
			if !doneA[i] && boundVars(dry, a.Expr) {
				dry[a.Var], doneA[i] = Value{}, true
				left--
			}
		}
		for i, s := range r.Sels {
			if !doneS[i] && boundVars(dry, s.Left) && boundVars(dry, s.Right) {
				doneS[i] = true
				left--
			}
		}
		if left == before {
			return false
		}
	}
	return true
}

// refFiring is one derivation the reference expects the engine to report.
type refFiring struct {
	rule *Rule
	head Tuple
	body []Tuple
	env  Env
}

// refEval is the listener-side harness. want queues the derivations the
// current fire must still report; every OnDerive consumes one.
type refEval struct {
	BaseListener
	e    *Engine
	aggs map[*Rule]*aggState // the reference's own aggregate state
	want []refFiring
	errs []string

	// Coverage, so a property test can prove it exercised something.
	firings, derivations, deadFirings, wildKeys int64
}

func newRefEval(e *Engine) *refEval {
	r := &refEval{e: e, aggs: make(map[*Rule]*aggState)}
	e.Listen(r)
	return r
}

func (r *refEval) errorf(format string, args ...any) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// done checks that the engine reported everything the reference expected of
// the operation that just returned.
func (r *refEval) done(op string) {
	if len(r.want) > 0 {
		r.errorf("%s: engine skipped %d derivation(s), first %s %s", op, len(r.want), r.want[0].rule.ID, r.want[0].head)
		r.want = nil
	}
}

func (r *refEval) OnAppear(_ int64, t Tuple) {
	r.done("fire before " + t.String())
	e := r.e
	trig := t
	if tbl := e.tables[t.Table]; tbl != nil {
		row, ok := tbl.lookup(t.PrimaryKey(tbl.keyCols))
		if !ok {
			r.errorf("appeared tuple %s is not stored", t)
			return
		}
		trig = row.Tuple // stored rows report their merged tag set
	}
	fresh := e.fresh
	for _, p := range e.triggers[t.Table] {
		if rtags := t.Tags & p.rule.TagMask; rtags != 0 {
			r.fromTrigger(p, trig, rtags)
		}
	}
	e.fresh = fresh // the engine has yet to make these calls itself
}

func (r *refEval) fromTrigger(p *rulePlan, trig Tuple, tags uint64) {
	env, ok := r.e.unify(Env{}, p.rule.Body[p.pred], trig)
	if !ok {
		return
	}
	bound := make([]Tuple, len(p.rule.Body))
	bound[p.pred] = trig
	r.join(p, 0, env, tags, bound)
}

// join walks the plan's atom order with full scans and map unification.
func (r *refEval) join(p *rulePlan, step int, env Env, tags uint64, bound []Tuple) {
	if step == len(p.steps) {
		r.leaf(p, env, tags, bound)
		return
	}
	st := &p.steps[step]
	if st.tbl == nil {
		return
	}
	for _, kc := range st.key {
		if kc.varName != "" && env[kc.varName].Kind == KindWild {
			r.wildKeys++
		}
	}
	for _, other := range st.tbl.rows {
		if other.gone {
			continue
		}
		jt := tags & other.Tuple.Tags
		if jt == 0 {
			continue
		}
		if env2, ok := r.e.unify(env, p.rule.Body[st.body], other.Tuple); ok {
			bound[st.body] = other.Tuple
			r.join(p, step+1, env2, jt, bound)
		}
	}
}

func (r *refEval) leaf(p *rulePlan, env Env, tags uint64, bound []Tuple) {
	e, rule := r.e, p.rule
	r.firings++
	if !guardsBindable(rule, env) {
		r.deadFirings++
		return
	}
	env, ok, err := e.checkGuards(rule, env)
	if err != nil || !ok {
		return
	}
	head := Tuple{Table: rule.Head.Table, Tags: tags}
	if hasAgg(rule.Head) {
		if head.Args, ok = r.aggregate(rule, env); !ok {
			return
		}
	} else {
		for _, a := range rule.Head.Args {
			v, err := e.Eval(env, a)
			if err != nil {
				return
			}
			head.Args = append(head.Args, v)
		}
	}
	r.derivations++
	body := []Tuple{bound[p.pred]}
	for i, b := range bound {
		if i != p.pred {
			body = append(body, b)
		}
	}
	r.want = append(r.want, refFiring{rule: rule, head: head, body: body, env: env})
}

// aggregate is the engine's count aggregate over the reference's own state.
func (r *refEval) aggregate(rule *Rule, env Env) ([]Value, bool) {
	st := r.aggs[rule]
	if st == nil {
		st = &aggState{groups: make(map[string]map[string]struct{})}
		r.aggs[rule] = st
	}
	vals := make([]Value, 0, len(rule.Head.Args))
	aggIdx := -1
	var aggVal Value
	for i, a := range rule.Head.Args {
		if ag, ok := a.(*Agg); ok {
			v, err := r.e.Eval(env, &Var{Name: ag.Arg})
			if err != nil {
				return nil, false
			}
			aggIdx, aggVal = i, v
			vals = append(vals, Value{})
			continue
		}
		v, err := r.e.Eval(env, a)
		if err != nil {
			return nil, false
		}
		vals = append(vals, v)
	}
	var key []byte
	for i, v := range vals {
		if i != aggIdx {
			key = v.AppendKey(key)
		}
	}
	set := st.groups[string(key)]
	if set == nil {
		set = make(map[string]struct{})
		st.groups[string(key)] = set
	}
	set[aggVal.Key()] = struct{}{}
	vals[aggIdx] = Int(int64(len(set)))
	return vals, true
}

func (r *refEval) OnDerive(_ int64, rule *Rule, head Tuple, body []Tuple, env Env) {
	if len(r.want) == 0 {
		r.errorf("engine derived %s %s, reference expects nothing more", rule.ID, head)
		return
	}
	w := r.want[0]
	r.want = r.want[1:]
	got := fmt.Sprintf("%s %s <- %s env %s", rule.ID, refTuple(head), refTuples(body), refEnv(env))
	want := fmt.Sprintf("%s %s <- %s env %s", w.rule.ID, refTuple(w.head), refTuples(w.body), refEnv(w.env))
	if rule != w.rule || got != want {
		r.errorf("derivation differs:\n  engine    %s\n  reference %s", got, want)
	}
}

// refTuple renders a tuple with its value kinds and tags: Equal unites
// Int(1) and Bool(true), the comparison here must not.
func refTuple(t Tuple) string {
	s := t.Table + "("
	for _, a := range t.Args {
		s += string(a.AppendKey(nil)) + ","
	}
	return fmt.Sprintf("%s)#%x", s, t.Tags)
}

func refTuples(ts []Tuple) string {
	s := ""
	for _, t := range ts {
		s += refTuple(t) + ";"
	}
	return s
}

func refEnv(env Env) string {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += n + "=" + env[n].Key() + " "
	}
	return s
}
