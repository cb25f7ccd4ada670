package ndlog

// Property test for the slot-compiled engine: random rules run under both
// evaluation modes and both join strategies, every derivation compared —
// rule, head, body rows, tags and the whole Env handed to OnDerive — with
// what the map-based reference (reference_test.go) enumerates for the same
// firing. The generator aims at what slot compilation decides statically
// and the older generators (differential_test.go) leave out: a variable
// repeated inside one atom, `_`, constant and wildcard-constant arguments,
// stored wildcards reaching planned key columns, computed body arguments
// over variables bound earlier, later or never, assignments that overwrite
// a body variable or chain, calls with side effects (f_unique) and calls
// to nothing, guards that can never bind, unbound head variables,
// aggregate heads, same-body rule groups under different tag masks, and
// every trigger position of multi-atom bodies. Every run is also given to a
// listener-free twin of the engine (quiet_test.go), which must return the
// same appearances and end with the same rows, supports and counters: the
// keyed tables make inserts replace rows and cascade through derivations
// the twin recorded without their event rows.

import (
	"fmt"
	"math/rand"
	"testing"
)

type slotGen struct {
	rnd   *rand.Rand
	arity map[string]int
	made  map[string]int // features generated, so the test can prove the corpus covers them
}

var slotVars = []string{"A", "B", "C", "D", "E", "F"}

func (g *slotGen) value() Value {
	switch r := g.rnd.Float64(); {
	case r < 0.72:
		return Int(int64(g.rnd.Intn(2)))
	case r < 0.84:
		return Str([]string{"a", "a|b"}[g.rnd.Intn(2)])
	case r < 0.94:
		return Wild()
	default:
		return Bool(g.rnd.Intn(2) == 1)
	}
}

func (g *slotGen) pick(xs []string) string { return xs[g.rnd.Intn(len(xs))] }

func intConst(n int) Expr { return &ConstExpr{Val: Int(int64(n))} }

// atomFor builds one body atom; vars collects the variables bound so far in
// the rule (in this atom too: a reused variable may repeat inside it).
func (g *slotGen) atomFor(tbl string, vars *[]string) *Functor {
	f := &Functor{Table: tbl, Loc: -1}
	for a := 0; a < g.arity[tbl]; a++ {
		switch r := g.rnd.Float64(); {
		case r < 0.30 && len(*vars) > 0:
			v := g.pick(*vars)
			for _, prev := range f.Args {
				if pv, ok := prev.(*Var); ok && pv.Name == v {
					g.made["a variable repeated in one atom"]++
				}
			}
			f.Args = append(f.Args, &Var{Name: v})
		case r < 0.72:
			v := g.pick(slotVars)
			f.Args = append(f.Args, &Var{Name: v})
			*vars = append(*vars, v)
		case r < 0.79:
			g.made["_"]++
			f.Args = append(f.Args, &Var{Name: "_"})
		case r < 0.89:
			v := g.value()
			if v.Kind == KindWild {
				g.made["wildcard constants"]++
			}
			f.Args = append(f.Args, &ConstExpr{Val: v})
		default:
			// Over any pool variable: bound by an earlier atom, by a later
			// one (no match: it is unbound when this atom is tried) or never.
			g.made["computed body arguments"]++
			f.Args = append(f.Args, &Binary{Op: OpAdd, L: &Var{Name: g.pick(slotVars)}, R: intConst(g.rnd.Intn(2))})
		}
	}
	return f
}

// guardsAndHead gives r its selections, assignments and head over bodyVars.
func (g *slotGen) guardsAndHead(r *Rule, headTbl string, bodyVars []string, agg bool) {
	rnd := g.rnd
	avail := append([]string(nil), bodyVars...)
	if len(bodyVars) > 0 {
		for n := rnd.Intn(3); n > 0; n-- {
			switch rnd.Intn(6) {
			case 0: // overwrite a body variable
				v := g.pick(bodyVars)
				g.made["overwriting assignments"]++
				r.Assigns = append(r.Assigns, &Assignment{Var: v, Expr: &Binary{Op: OpAdd, L: &Var{Name: v}, R: intConst(1)}})
			case 1: // chain: H reads G, whatever the source order
				g.made["chained assignments"]++
				r.Assigns = append(r.Assigns,
					&Assignment{Var: "H", Expr: &Binary{Op: OpMul, L: &Var{Name: "G"}, R: intConst(2)}},
					&Assignment{Var: "G", Expr: &Binary{Op: OpAdd, L: &Var{Name: g.pick(bodyVars)}, R: intConst(rnd.Intn(3))}})
				avail = append(avail, "G", "H")
			case 2:
				g.made["f_unique"]++
				r.Assigns = append(r.Assigns, &Assignment{Var: "U", Expr: &Call{Fn: "f_unique"}})
				avail = append(avail, "U")
			case 3:
				g.made["unknown functions"]++
				r.Assigns = append(r.Assigns, &Assignment{Var: "K", Expr: &Call{Fn: "f_nope", Args: []Expr{&Var{Name: g.pick(bodyVars)}}}})
				avail = append(avail, "K")
			case 4: // N is bound nowhere: the guards can never all bind
				if rnd.Intn(3) == 0 {
					g.made["unbindable guards"]++
					r.Assigns = append(r.Assigns, &Assignment{Var: "M", Expr: &Binary{Op: OpAdd, L: &Var{Name: "N"}, R: intConst(1)}})
				}
			default:
				r.Assigns = append(r.Assigns, &Assignment{Var: "G", Expr: &Binary{Op: OpAdd, L: &Var{Name: g.pick(bodyVars)}, R: intConst(rnd.Intn(3))}})
				avail = append(avail, "G")
			}
		}
		rnd.Shuffle(len(r.Assigns), func(i, j int) { r.Assigns[i], r.Assigns[j] = r.Assigns[j], r.Assigns[i] })
		ops := []BinOp{OpLt, OpLe, OpNe, OpGe, OpEq}
		for n := rnd.Intn(3); n > 0; n-- {
			var right Expr = intConst(rnd.Intn(3))
			switch rnd.Intn(4) {
			case 0:
				right = &Var{Name: g.pick(avail)}
			case 1:
				right = &Call{Fn: "f_max", Args: []Expr{&Var{Name: g.pick(avail)}, intConst(1)}}
			}
			r.Sels = append(r.Sels, &Selection{Left: &Var{Name: g.pick(avail)}, Op: ops[rnd.Intn(len(ops))], Right: right})
		}
	}
	head := &Functor{Table: headTbl, Loc: -1}
	for a := 0; a < g.arity[headTbl]; a++ {
		switch r := rnd.Float64(); {
		case agg && a == g.arity[headTbl]-1 && len(bodyVars) > 0:
			g.made["aggregate heads"]++
			head.Args = append(head.Args, &Agg{Fn: "count", Arg: g.pick(bodyVars)})
		case r < 0.65 && len(avail) > 0:
			head.Args = append(head.Args, &Var{Name: g.pick(avail)})
		case r < 0.75 && len(avail) > 0:
			head.Args = append(head.Args, &Binary{Op: OpAdd, L: &Var{Name: g.pick(avail)}, R: intConst(1)})
		case r < 0.80:
			g.made["unbound head variables"]++
			head.Args = append(head.Args, &Var{Name: "Z"})
		default:
			head.Args = append(head.Args, intConst(rnd.Intn(3)))
		}
	}
	r.Head = head
}

var slotMasks = []uint64{AllTags, AllTags, 0b0011, 0b0110, 0b1101}

// program builds a stratified program (rules derive into strictly
// higher-numbered tables, so every fixpoint terminates) and its workload.
func (g *slotGen) program() (*Program, []slotOp) {
	rnd := g.rnd
	prog := &Program{Name: "slots"}
	g.arity = map[string]int{"E0": 2, "E1": 2}
	const nState = 5
	for i := 0; i < nState; i++ {
		name := fmt.Sprintf("T%d", i)
		ar := 2 + rnd.Intn(2)
		keys := make([]int, ar)
		for k := range keys {
			keys[k] = k
		}
		if rnd.Intn(2) == 0 {
			keys = keys[:1+rnd.Intn(ar)]
		}
		prog.Decls = append(prog.Decls, &TableDecl{Name: name, Arity: ar, Timeout: 1, Keys: keys})
		g.arity[name] = ar
	}
	id := 0
	for h := 1; h < nState; h++ {
		for n := 0; n < 1+rnd.Intn(2); n++ {
			id++
			r := &Rule{ID: fmt.Sprintf("s%d", id), TagMask: slotMasks[rnd.Intn(len(slotMasks))]}
			var bodyVars []string
			for b := 1 + rnd.Intn(3); b > 0; b-- {
				tbl := fmt.Sprintf("T%d", rnd.Intn(h))
				if rnd.Float64() < 0.25 {
					tbl = fmt.Sprintf("E%d", rnd.Intn(2))
				}
				r.Body = append(r.Body, g.atomFor(tbl, &bodyVars))
			}
			headTbl := fmt.Sprintf("T%d", h)
			g.guardsAndHead(r, headTbl, bodyVars, h == nState-1 && n == 0)
			prog.Rules = append(prog.Rules, r)
			// Same-body variants, adjacent in the program: one delta trigger
			// group, each member with its own guards, head and tag mask.
			for v := rnd.Intn(3); v > 0 && !hasAgg(r.Head); v-- {
				id++
				g.made["same-body variants"]++
				c := r.Clone()
				c.ID = fmt.Sprintf("s%d", id)
				c.TagMask = slotMasks[rnd.Intn(len(slotMasks))]
				c.Sels, c.Assigns = nil, nil
				g.guardsAndHead(c, headTbl, bodyVars, false)
				prog.Rules = append(prog.Rules, c)
			}
		}
	}

	var ops []slotOp
	var inserted []Tuple
	tags := []uint64{AllTags, AllTags, 0b1, 0b110, 0b1111}
	for i, n := 0, 90+rnd.Intn(40); i < n; i++ {
		switch r := rnd.Float64(); {
		case r < 0.15 && len(inserted) > 0:
			ops = append(ops, slotOp{kind: 'd', tuple: inserted[rnd.Intn(len(inserted))]})
		case r < 0.25 && len(inserted) > 0:
			// The same fact under other tags: only the new tags fire.
			tp := inserted[rnd.Intn(len(inserted))].Clone()
			tp.Tags = tags[rnd.Intn(len(tags))]
			ops = append(ops, slotOp{kind: 'i', tuple: tp})
		default:
			tbl := fmt.Sprintf("T%d", rnd.Intn(nState))
			if rnd.Float64() < 0.3 {
				tbl = fmt.Sprintf("E%d", rnd.Intn(2))
			}
			tp := Tuple{Table: tbl, Tags: tags[rnd.Intn(len(tags))]}
			for a := 0; a < g.arity[tbl]; a++ {
				tp.Args = append(tp.Args, g.value())
			}
			if tbl[0] == 'T' {
				inserted = append(inserted, tp)
			}
			ops = append(ops, slotOp{kind: 'i', tuple: tp})
		}
	}
	return prog, ops
}

// slotOp is one workload step: 'i'nsert or 'd'elete.
type slotOp struct {
	kind  byte
	tuple Tuple
}

func TestCompiledEngineMatchesMapReference(t *testing.T) {
	configs := []struct {
		mode  EvalMode
		strat JoinStrategy
	}{{EvalFull, JoinIndexed}, {EvalFull, JoinScan}, {EvalDelta, JoinIndexed}, {EvalDelta, JoinScan}}
	covered := map[string]int{}
	var firings, derivations, dead, wildKeys, groupJoins, shared, replaced int64
	for seed := int64(0); seed < 220; seed++ {
		for ci, cfg := range configs {
			g := &slotGen{rnd: rand.New(rand.NewSource(seed)), made: map[string]int{}}
			prog, ops := g.program()
			e, err := NewEngine(prog)
			if err != nil {
				t.Fatalf("seed %d: NewEngine: %v", seed, err)
			}
			e.SetEvalMode(cfg.mode)
			e.SetJoinStrategy(cfg.strat)
			ref := newRefEval(e)
			// The same workload through an engine nobody listens to: the
			// reference checks e, the twin holds the quiet engine to e.
			twin := NewQuietTwin(t, fmt.Sprintf("seed %d mode %v strategy %d", seed, cfg.mode, cfg.strat), e)
			for _, op := range ops {
				switch op.kind {
				case 'i':
					twin.Insert(op.tuple)
					ref.done("Insert " + op.tuple.String())
				case 'd':
					twin.Delete(op.tuple)
				}
			}
			twin.Finish()
			if len(ref.errs) > 0 {
				t.Fatalf("seed %d mode %v strategy %d:\n%s\nprogram:\n%s", seed, cfg.mode, cfg.strat, ref.errs[0], prog)
			}
			if ref.firings != e.Stats.Firings || ref.derivations != e.Stats.Derivations {
				t.Fatalf("seed %d mode %v strategy %d: engine counted %d firings / %d derivations, reference %d / %d",
					seed, cfg.mode, cfg.strat, e.Stats.Firings, e.Stats.Derivations, ref.firings, ref.derivations)
			}
			if e.frames.top != 0 || e.rows.top != 0 {
				t.Fatalf("seed %d: frame stacks not empty after the run: %d values, %d rows", seed, e.frames.top, e.rows.top)
			}
			var sum RuleStats
			for _, rs := range e.RuleStats() {
				sum.Firings += rs.Firings
				sum.Derivations += rs.Derivations
				sum.GroupJoins += rs.GroupJoins
			}
			if sum.Firings != e.Stats.Firings || sum.Derivations != e.Stats.Derivations || sum.GroupJoins != e.Stats.GroupJoins {
				t.Fatalf("seed %d: per-rule counters %+v do not sum to %+v", seed, sum, e.Stats)
			}
			if cfg.mode == EvalDelta {
				groupJoins += e.Stats.GroupJoins
				for tbl := range e.triggers {
					for _, grp := range e.triggerGroups(tbl) {
						for _, p := range grp.plans[1:] {
							shared += p.cr.stats.Firings // answered from the first member's join
						}
					}
				}
			}
			if ci == 0 {
				replaced += int64(twin.Replaced)
				firings += ref.firings
				derivations += ref.derivations
				dead += ref.deadFirings
				wildKeys += ref.wildKeys
				for name, n := range g.made {
					covered[name] += n
				}
			}
		}
	}
	t.Logf("%d firings, %d derivations, %d on unbindable guards, %d wildcard keys; delta: %d group joins, %d firings off another member's join; generated %v",
		firings, derivations, dead, wildKeys, groupJoins, shared, covered)
	for name, n := range map[string]int64{"firings": firings, "derivations": derivations, "firings on unbindable guards": dead,
		"wildcard values in key columns": wildKeys, "group joins": groupJoins, "firings served by another member's join": shared,
		"primary-key replacements": replaced} {
		covered[name] = int(n)
	}
	for _, name := range []string{"a variable repeated in one atom", "_", "wildcard constants", "computed body arguments",
		"overwriting assignments", "chained assignments", "f_unique", "unknown functions", "unbindable guards",
		"unbound head variables", "aggregate heads", "same-body variants", "firings", "derivations",
		"firings on unbindable guards", "wildcard values in key columns", "group joins",
		"firings served by another member's join", "primary-key replacements"} {
		if covered[name] <= 0 {
			t.Errorf("the corpus never exercised: %s", name)
		}
	}
}
