// Differential property tests for the evaluation core: randomized
// stratified programs and insert/delete interleavings run under both join
// strategies, asserting JoinIndexed ≡ JoinScan event-for-event: appearance
// streams, derivations, underivations, disappearances, provenance graphs,
// and aggregate values are identical in content AND order — the hash
// indexes prune only rows unification would reject, in the same order a
// sequential scan would visit them.
package ndlog_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// streamListener records every engine callback as a canonical string.
type streamListener struct {
	events []string
}

func tupleStr(t ndlog.Tuple) string {
	return fmt.Sprintf("%s#%x", t.String(), t.Tags)
}

func bodyStr(body []ndlog.Tuple) string {
	parts := make([]string, len(body))
	for i, b := range body {
		parts[i] = tupleStr(b)
	}
	return strings.Join(parts, ";")
}

func (s *streamListener) add(format string, args ...any) {
	s.events = append(s.events, fmt.Sprintf(format, args...))
}

func (s *streamListener) OnInsert(t int64, tp ndlog.Tuple) { s.add("ins@%d %s", t, tupleStr(tp)) }
func (s *streamListener) OnDelete(t int64, tp ndlog.Tuple) { s.add("del@%d %s", t, tupleStr(tp)) }
func (s *streamListener) OnDerive(t int64, r *ndlog.Rule, head ndlog.Tuple, body []ndlog.Tuple, _ ndlog.Env) {
	s.add("drv@%d %s %s <- %s", t, r.ID, tupleStr(head), bodyStr(body))
}
func (s *streamListener) OnUnderive(t int64, r *ndlog.Rule, head ndlog.Tuple, body []ndlog.Tuple) {
	s.add("und@%d %s %s <- %s", t, r.ID, tupleStr(head), bodyStr(body))
}
func (s *streamListener) OnAppear(t int64, tp ndlog.Tuple)    { s.add("app@%d %s", t, tupleStr(tp)) }
func (s *streamListener) OnDisappear(t int64, tp ndlog.Tuple) { s.add("dis@%d %s", t, tupleStr(tp)) }
func (s *streamListener) OnSend(t int64, from, to ndlog.Value, tp ndlog.Tuple) {
	s.add("snd@%d %s->%s %s", t, from, to, tupleStr(tp))
}

// genSpec is one randomized program plus its workload.
type genSpec struct {
	prog   *ndlog.Program
	states []string
	ops    []genOp
}

type genOp struct {
	del   bool
	tuple ndlog.Tuple
}

var genVars = []string{"A", "B", "C", "D", "E", "F"}

func genValue(rnd *rand.Rand) ndlog.Value {
	switch r := rnd.Float64(); {
	case r < 0.70:
		return ndlog.Int(int64(rnd.Intn(4)))
	case r < 0.90:
		strs := []string{"a", "b", "a|b", "|", "s1:x", ""}
		return ndlog.Str(strs[rnd.Intn(len(strs))])
	case r < 0.95:
		return ndlog.Wild()
	default:
		return ndlog.Bool(rnd.Intn(2) == 1)
	}
}

// genProgram builds a stratified program: rules only derive into strictly
// higher-numbered tables, so every fixpoint terminates. allKeys forces
// whole-tuple primary keys (no primary-key replacement), the regime where
// the legacy engine's different enumeration order provably cannot change
// the event multiset.
func genProgram(rnd *rand.Rand, allKeys bool) *genSpec {
	nState := 4 + rnd.Intn(2)
	spec := &genSpec{}
	prog := &ndlog.Program{Name: "gen"}
	arity := make(map[string]int)
	for i := 0; i < nState; i++ {
		name := fmt.Sprintf("T%d", i)
		ar := 2 + rnd.Intn(2)
		keys := make([]int, ar)
		for k := range keys {
			keys[k] = k
		}
		if !allKeys && rnd.Intn(2) == 0 {
			keys = keys[:1+rnd.Intn(ar)]
		}
		prog.Decls = append(prog.Decls, &ndlog.TableDecl{Name: name, Arity: ar, Timeout: 1, Keys: keys})
		arity[name] = ar
		spec.states = append(spec.states, name)
	}
	for _, ev := range []string{"E0", "E1"} {
		arity[ev] = 2
	}

	ruleID := 0
	for h := 1; h < nState; h++ {
		for n := 0; n < 1+rnd.Intn(2); n++ {
			ruleID++
			r := &ndlog.Rule{ID: fmt.Sprintf("g%d", ruleID), TagMask: ndlog.AllTags}
			nbody := 2 + rnd.Intn(2)
			var bodyVars []string
			for b := 0; b < nbody; b++ {
				var tbl string
				if rnd.Float64() < 0.25 {
					tbl = fmt.Sprintf("E%d", rnd.Intn(2))
				} else {
					tbl = fmt.Sprintf("T%d", rnd.Intn(h))
				}
				f := &ndlog.Functor{Table: tbl, Loc: -1}
				for a := 0; a < arity[tbl]; a++ {
					switch r := rnd.Float64(); {
					case r < 0.55 && len(bodyVars) > 0 && b > 0:
						// Reuse a variable: this is what creates joins.
						f.Args = append(f.Args, &ndlog.Var{Name: bodyVars[rnd.Intn(len(bodyVars))]})
					case r < 0.85:
						v := genVars[rnd.Intn(len(genVars))]
						f.Args = append(f.Args, &ndlog.Var{Name: v})
						bodyVars = append(bodyVars, v)
					default:
						f.Args = append(f.Args, &ndlog.ConstExpr{Val: genValue(rnd)})
					}
				}
				r.Body = append(r.Body, f)
			}
			headVars := append([]string(nil), bodyVars...)
			if len(bodyVars) > 0 && rnd.Float64() < 0.4 {
				fresh := "G"
				r.Assigns = append(r.Assigns, &ndlog.Assignment{
					Var: fresh,
					Expr: &ndlog.Binary{Op: ndlog.OpAdd,
						L: &ndlog.Var{Name: bodyVars[rnd.Intn(len(bodyVars))]},
						R: &ndlog.ConstExpr{Val: ndlog.Int(int64(rnd.Intn(3)))}},
				})
				headVars = append(headVars, fresh)
			}
			if len(bodyVars) > 0 && rnd.Float64() < 0.5 {
				ops := []ndlog.BinOp{ndlog.OpLt, ndlog.OpLe, ndlog.OpNe, ndlog.OpGe}
				r.Sels = append(r.Sels, &ndlog.Selection{
					Left:  &ndlog.Var{Name: bodyVars[rnd.Intn(len(bodyVars))]},
					Op:    ops[rnd.Intn(len(ops))],
					Right: &ndlog.ConstExpr{Val: ndlog.Int(int64(rnd.Intn(4)))},
				})
			}
			headTbl := fmt.Sprintf("T%d", h)
			head := &ndlog.Functor{Table: headTbl, Loc: -1}
			aggDone := false
			for a := 0; a < arity[headTbl]; a++ {
				if !aggDone && a == arity[headTbl]-1 && len(bodyVars) > 0 && h == nState-1 && n == 0 {
					// The top stratum's first rule aggregates: the count
					// head exercises the group-key encoding.
					head.Args = append(head.Args, &ndlog.Agg{Fn: "count", Arg: bodyVars[rnd.Intn(len(bodyVars))]})
					aggDone = true
					continue
				}
				if len(headVars) > 0 && rnd.Float64() < 0.7 {
					head.Args = append(head.Args, &ndlog.Var{Name: headVars[rnd.Intn(len(headVars))]})
				} else {
					head.Args = append(head.Args, &ndlog.ConstExpr{Val: ndlog.Int(int64(rnd.Intn(4)))})
				}
			}
			r.Head = head
			prog.Rules = append(prog.Rules, r)
		}
	}
	spec.prog = prog

	// Workload: base insertions into state and event tables, interleaved
	// with deletions of previously inserted base facts.
	var inserted []ndlog.Tuple
	nOps := 120 + rnd.Intn(60)
	for i := 0; i < nOps; i++ {
		if rnd.Float64() < 0.2 && len(inserted) > 0 {
			spec.ops = append(spec.ops, genOp{del: true, tuple: inserted[rnd.Intn(len(inserted))]})
			continue
		}
		var tbl string
		if rnd.Float64() < 0.3 {
			tbl = fmt.Sprintf("E%d", rnd.Intn(2))
		} else {
			tbl = spec.states[rnd.Intn(len(spec.states))]
		}
		tp := ndlog.Tuple{Table: tbl, Tags: ndlog.AllTags}
		for a := 0; a < arity[tbl]; a++ {
			tp.Args = append(tp.Args, genValue(rnd))
		}
		if tbl[0] == 'T' {
			inserted = append(inserted, tp)
		}
		spec.ops = append(spec.ops, genOp{tuple: tp})
	}
	return spec
}

// diffRun executes the workload under one strategy and returns the event
// stream, a provenance dump, and the final table contents.
type diffRun struct {
	events []string
	prov   []string
	tables []string
	stats  ndlog.EngineStats
}

func runDiff(t *testing.T, spec *genSpec, strat ndlog.JoinStrategy) diffRun {
	t.Helper()
	e, err := ndlog.NewEngine(spec.prog)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.SetJoinStrategy(strat)
	sl := &streamListener{}
	rec := provenance.NewRecorder()
	e.Listen(sl)
	e.Listen(rec)
	for _, op := range spec.ops {
		if op.del {
			e.Delete(op.tuple.Clone())
		} else {
			e.Insert(op.tuple.Clone())
		}
	}
	out := diffRun{events: sl.events, stats: e.Stats}
	for _, tbl := range spec.states {
		for _, tp := range e.Rows(tbl) {
			out.tables = append(out.tables, tupleStr(tp))
		}
		for _, tp := range rec.TuplesOf(tbl) {
			key := tp.Key()
			out.prov = append(out.prov, fmt.Sprintf("tuple %s inserted=%v intervals=%v",
				key, rec.WasInserted(tp), rec.Intervals(tp)))
			for _, d := range rec.DerivationsOf(tp) {
				out.prov = append(out.prov, fmt.Sprintf("deriv %s %s@%d <- %s",
					key, d.Rule.ID, d.Time, bodyStr(d.Body)))
			}
		}
	}
	return out
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// diffStreams returns "" when the slices are element-wise equal, else a
// description of the first divergence.
func diffStreams(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d:\n  %q\nvs\n  %q", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
	}
	return ""
}

func TestDifferentialIndexedVsOracles(t *testing.T) {
	var totalIndexLookups int64
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			allKeys := seed%2 == 0
			spec := genProgram(rand.New(rand.NewSource(seed)), allKeys)

			indexed := runDiff(t, spec, ndlog.JoinIndexed)
			scan := runDiff(t, spec, ndlog.JoinScan)
			totalIndexLookups += indexed.stats.IndexLookups

			// Exact equivalence against the planned-scan oracle: same
			// events, same order.
			if d := diffStreams(indexed.events, scan.events); d != "" {
				t.Fatalf("indexed vs scan event streams differ: %s", d)
			}
			if d := diffStreams(indexed.prov, scan.prov); d != "" {
				t.Fatalf("indexed vs scan provenance differs: %s", d)
			}
			if d := diffStreams(indexed.tables, scan.tables); d != "" {
				t.Fatalf("indexed vs scan final tables differ: %s", d)
			}
			if scan.stats.IndexLookups != 0 {
				t.Fatalf("scan oracle consulted an index: %+v", scan.stats)
			}
		})
	}
	if totalIndexLookups == 0 {
		t.Fatal("no randomized program ever exercised an index lookup")
	}
}
