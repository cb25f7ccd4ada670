package meta

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ndlog"
)

// TestPatchMatchesMetaModel holds Apply to the semantics of the programs
// it edits (§3.2: programs are just data). Each generated program is
// encoded from NewModel into Figure 4's meta tuples. Every edit of the
// catalogue, and ordered pairs of edits on one rule, are applied to those
// meta tuples, never to the program, and the µDlog meta model over the
// edited tuples must derive the same Tuple set as ndlog.Engine over
// Apply(prog, edits).Prog. An edit list Apply rejects must leave its rule
// deriving nothing in the meta model: the set must equal the program's
// without that rule.
//
// The meta model is a faithful semantics only on a fragment of NDlog, and
// the generator keeps to it:
//   - Every table has a location plus one column, T(@L,V). The meta
//     model's Tuple(@L,Tab,Val1,Val2) carries a base tuple as Val1 = L and
//     Val2 = V. A µDlog head has a location and two values, so the encoder
//     writes H(@A,B) as HeadFunc(H,A,floor,B) with the constant floor = -1
//     in the unused slot, and a derived tuple reads as H(L,Val2).
//   - A rule reads one or two distinct base tables and derives into a
//     table no rule reads: h2 places a derived tuple at its head location,
//     where p1 never joins it, so meta rules do not chain.
//   - Variable names in a rule are distinct, and two atoms join only
//     through a selection such as X == W: j1 joins the cross product of
//     two tables, with no shared-variable equality.
//   - Every rule has exactly two selections: h2 fires on any two true
//     selections of a join, so a third would turn the rule into a
//     disjunction, and a rule with one never fires.
//   - A selection compares a variable with a variable or a constant, never
//     two constants, and the head location is a variable: a constant
//     evaluates on the wildcard join ID, which h2 never joins on, so a
//     constant-only selection derives nothing.
//   - For the same two reasons DropSel is encoded as replacing the
//     selection's Oper tuple by L > floor over a body variable, which holds
//     on the value domain, not by deleting it, which would leave the rule
//     one selection.
//
// Every rule variant is a fresh fixpoint of the meta model, so pairs are
// sampled to keep the test near a second: every program runs the full
// single-edit catalogue, every fourth program the ordered pairs of one
// edit per addressed element, and every fortieth every ordered pair.
func TestPatchMatchesMetaModel(t *testing.T) {
	const programs, pairEvery, allPairsEvery = 200, 4, 40
	rng := rand.New(rand.NewSource(1))
	tally := tally{changed: make(map[string]int)}
	jobs := make(chan fragment)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				checkEdits(t, f, &tally)
			}
		}()
	}
	singles, pairs := 0, 0
	for n := range programs {
		f := genFragment(rng)
		m := NewModel(f.prog)
		if m.invalid != nil {
			t.Errorf("generated an invalid program: %v\n%s", m.invalid, f.prog)
			break
		}
		for _, r := range f.prog.Rules {
			cat := editCatalogue(m, r.ID)
			for _, c := range cat {
				f.lists = append(f.lists, []Change{c})
			}
			singles += len(cat)
			if n%pairEvery != 0 {
				continue
			}
			reps := addressReps(cat)
			if n%allPairsEvery == 0 {
				reps = cat
			}
			for _, a := range reps {
				for _, b := range reps {
					f.lists = append(f.lists, []Change{a, b})
				}
			}
			pairs += len(reps) * len(reps)
		}
		jobs <- f
	}
	close(jobs)
	wg.Wait()
	t.Logf("%d programs: %d single edits, %d same-rule pairs; Apply rejected %d; accepted lists that change the derived set: %v",
		programs, singles, pairs, tally.rejected, tally.changed)
	// An oracle that never sees a derived set move checks nothing.
	for _, kind := range []string{"SetOper", "SetConst", "DropSel", "DropBodyPred", "DropRule", "pair"} {
		if tally.changed[kind] == 0 {
			t.Errorf("no accepted %s changed what a program derives", kind)
		}
	}
}

// tally counts, across programs, the edit lists Apply rejected and, by
// kind (a single edit's type, or "pair"), the accepted lists that change
// what the program derives.
type tally struct {
	mu       sync.Mutex
	rejected int
	changed  map[string]int
}

// fragOps are the six comparisons a selection may use.
var fragOps = []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe}

// fragment is a generated program of the µDlog fragment with its base
// tuples and the edit lists to check on it, each list editing one rule.
// Values (locations, columns, constants) are drawn from 0..3.
type fragment struct {
	prog  *ndlog.Program
	base  []ndlog.Tuple
	lists [][]Change
}

// genFragment draws one rule (two in a quarter of the programs) over base
// tables P, Q, S deriving into H or K, and one or two tuples per base
// table.
func genFragment(rng *rand.Rand) fragment {
	baseTabs := []string{"P", "Q", "S"}
	var src strings.Builder
	for _, tab := range []string{"P", "Q", "S", "H", "K"} {
		fmt.Fprintf(&src, "materialize(%s, 1, 2, keys(0,1)).\n", tab)
	}
	empty := make(map[string]bool)
	rules := 1
	if rng.Intn(4) == 0 {
		rules = 2
	}
	for i := range rules {
		atoms := [][2]string{{"X", "Y"}, {"W", "Z"}}[:1+rng.Intn(2)]
		tabs := rng.Perm(len(baseTabs))
		var body, vars []string
		for j, a := range atoms {
			body = append(body, fmt.Sprintf("%s(@%s,%s)", baseTabs[tabs[j]], a[0], a[1]))
			vars = append(vars, a[0], a[1])
		}
		if len(atoms) == 2 && rng.Intn(2) == 0 {
			// Nothing reads the second atom, so DropBodyPred applies to
			// it. That changes the rule only when the atom's table is
			// empty, so leave it empty half the time.
			vars = vars[:2]
			if rng.Intn(2) == 0 {
				empty[baseTabs[tabs[1]]] = true
			}
		}
		for range 2 {
			body = append(body, genSelection(rng, vars))
		}
		val := vars[rng.Intn(len(vars))]
		if rng.Intn(3) == 0 {
			val = fmt.Sprint(rng.Intn(4))
		}
		head := fmt.Sprintf("%s(@%s,%s)", []string{"H", "K"}[rng.Intn(2)], vars[rng.Intn(len(vars))], val)
		fmt.Fprintf(&src, "r%d %s :- %s.\n", i, head, strings.Join(body, ", "))
	}
	f := fragment{prog: ndlog.MustParse("fragment", src.String())}
	for _, tab := range baseTabs {
		if empty[tab] {
			continue
		}
		for range 1 + rng.Intn(2) {
			f.base = append(f.base, ndlog.NewTuple(tab, ndlog.Int(int64(rng.Intn(4))), ndlog.Int(int64(rng.Intn(4)))))
		}
	}
	return f
}

// genSelection compares a variable with another variable (across atoms
// that is the join) or with a constant on either side.
func genSelection(rng *rand.Rand, vars []string) string {
	a := vars[rng.Intn(len(vars))]
	op := fragOps[rng.Intn(len(fragOps))]
	switch rng.Intn(3) {
	case 0:
		b := vars[rng.Intn(len(vars))]
		for b == a {
			b = vars[rng.Intn(len(vars))]
		}
		return fmt.Sprintf("%s %s %s", a, op, b)
	case 1:
		return fmt.Sprintf("%d %s %s", rng.Intn(4), op, a)
	}
	return fmt.Sprintf("%s %s %d", a, op, rng.Intn(4))
}

// editCatalogue is every single edit of one rule: SetOper to each of the
// six comparisons, SetConst to each of the rule's constants and c ± 1,
// DropSel, DropBodyPred and DropRule.
func editCatalogue(m *Model, rule string) []Change {
	var out []Change
	for _, o := range m.Opers {
		if o.Rule == rule {
			for _, op := range fragOps {
				out = append(out, SetOper{RuleID: rule, SelIdx: o.SelIdx, Old: o.Op, New: op, Sel: o.Sel})
			}
		}
	}
	var vals []int64
	for _, c := range m.Consts {
		if c.Rule == rule {
			vals = append(vals, c.Val.Int)
		}
	}
	for _, c := range m.Consts {
		if c.Rule != rule {
			continue
		}
		targets := append([]int64{c.Val.Int - 1, c.Val.Int + 1}, vals...)
		slices.Sort(targets)
		for _, v := range slices.Compact(targets) {
			if v != c.Val.Int {
				out = append(out, SetConst{RuleID: rule, Path: c.Path, Old: c.Val, New: ndlog.Int(v)})
			}
		}
	}
	for _, o := range m.Opers {
		if o.Rule == rule {
			out = append(out, DropSel{RuleID: rule, SelIdx: o.SelIdx, Sel: o.Sel})
		}
	}
	for _, p := range m.Preds {
		if p.Rule == rule {
			out = append(out, DropBodyPred{RuleID: rule, BodyIdx: p.Idx, Pred: p.Table})
		}
	}
	return append(out, DropRule{RuleID: rule})
}

// addressReps keeps one edit per element addressed: the first SetOper
// of each selection that changes its operator, the first SetConst of each
// constant, and every deletion. An ordered pair's outcome under Apply
// turns on which elements the two edits address, not on the new values.
func addressReps(cat []Change) []Change {
	var out []Change
	seen := make(map[string]bool)
	for _, c := range cat {
		var addr string
		switch c := c.(type) {
		case SetOper:
			if c.New == c.Old {
				continue
			}
			addr = fmt.Sprint("oper", c.SelIdx)
		case SetConst:
			addr = "const" + c.Path
		}
		if addr == "" || !seen[addr] {
			seen[addr] = true
			out = append(out, c)
		}
	}
	return out
}

// checkEdits holds Apply to the meta model on every edit list of one
// program and adds to the tally. It reports through t.Errorf only: it
// runs off the test's goroutine.
func checkEdits(t *testing.T, f fragment, tl *tally) {
	encoded := encodeModel(NewModel(f.prog))
	var ev metaEval
	unedited := make(map[string]int)
	for id, mr := range encoded {
		unedited[id] = ev.add(mr)
	}
	variants := make([]int, len(f.lists))
	for i, edits := range f.lists {
		mr := encoded[ruleOf(edits[0])].clone()
		for _, c := range edits {
			mr.apply(c)
		}
		variants[i] = ev.add(mr)
	}
	base, derived, err := ev.run(f.base)
	if err != nil {
		t.Errorf("meta model on\n%s: %v", f.prog, err)
		return
	}
	// metaDerives assembles the program's Tuple set with the variant of
	// rule replaced by variant v (-1: the rule deleted).
	metaDerives := func(rule string, v int) []string {
		out := slices.Clone(base)
		for id, u := range unedited {
			if id != rule {
				out = append(out, derived[u]...)
			}
		}
		if v >= 0 {
			out = append(out, derived[v]...)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	before := metaDerives("", -1)

	rejected, changed := 0, make(map[string]int)
	engine := make(map[string][]string) // rendered rules → the program's rows
	for i, edits := range f.lists {
		rule := ruleOf(edits[0])
		got := metaDerives(rule, variants[i])
		p, applyErr := Apply(f.prog, edits)
		if applyErr != nil {
			rejected++
			if p, err = Apply(f.prog, []Change{DropRule{RuleID: rule}}); err != nil {
				t.Errorf("drop %s: %v", rule, err)
				return
			}
		}
		var key strings.Builder
		for _, r := range p.Prog.Rules {
			key.WriteString(r.String())
		}
		want, ok := engine[key.String()]
		if !ok {
			if want, err = engineDerives(p.Prog, f.base); err != nil {
				t.Errorf("edits %s on\n%s: %v", edits, f.prog, err)
				return
			}
			engine[key.String()] = want
		}
		if !slices.Equal(got, want) {
			t.Errorf("edits %s (Apply: %v) on\n%s\nmeta model derives %v\nndlog.Engine derives %v",
				edits, applyErr, f.prog, got, want)
		}
		if applyErr == nil && !slices.Equal(want, before) {
			kind := "pair"
			if len(edits) == 1 {
				kind = strings.TrimPrefix(fmt.Sprintf("%T", edits[0]), "meta.")
			}
			changed[kind]++
		}
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.rejected += rejected
	for k, n := range changed {
		tl.changed[k] += n
	}
}

// ruleOf is the rule an edit of the catalogue addresses.
func ruleOf(c Change) string {
	switch c := c.(type) {
	case SetOper:
		return c.RuleID
	case SetConst:
		return c.RuleID
	case DropSel:
		return c.RuleID
	case DropBodyPred:
		return c.RuleID
	case DropRule:
		return c.RuleID
	}
	panic(fmt.Sprintf("no meta-tuple encoding for %T", c))
}

// engineDerives runs a program over the base tuples and returns every
// table's rows, rendered and sorted.
func engineDerives(prog *ndlog.Program, base []ndlog.Tuple) ([]string, error) {
	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return nil, err
	}
	for _, b := range base {
		eng.Insert(b)
	}
	var out []string
	for _, d := range prog.Decls {
		for _, row := range eng.Rows(d.Name) {
			out = append(out, fmt.Sprintf("%s(%s,%s)", row.Table, row.Args[0], row.Args[1]))
		}
	}
	slices.Sort(out)
	return out, nil
}

// metaRule is one rule's Figure 4 meta tuples, addressed the way the
// edits address them: PredFunc by body index, Oper by selection index
// (its SID), Const by path (its ID). A variable's expression ID is its
// name.
type metaRule struct {
	id      string
	head    [3]string // HeadFunc's Tab, the location's ID, the value's ID
	preds   map[int][3]string
	consts  map[string]ndlog.Value
	opers   map[int]metaOper
	dropped map[int]bool // selections DropSel deleted
	gone    bool         // DropRule deleted every tuple of the rule
}

// metaOper is an Oper tuple's operand IDs and operator.
type metaOper struct {
	left, right string
	op          ndlog.BinOp
}

// encodeModel writes a model's references as meta tuples, by rule ID.
// Only the model is read: operands come from the rendered selection,
// constants from the model's Const references.
func encodeModel(m *Model) map[string]*metaRule {
	rules := make(map[string]*metaRule)
	for _, h := range m.Heads {
		rules[h.Rule] = &metaRule{id: h.Rule, preds: map[int][3]string{}, consts: map[string]ndlog.Value{},
			opers: map[int]metaOper{}, dropped: map[int]bool{}}
	}
	for _, c := range m.Consts {
		rules[c.Rule].consts[c.Path] = c.Val
	}
	for _, h := range m.Heads {
		mr := rules[h.Rule]
		mr.head = [3]string{h.Table, mr.operand("head/0", h.Args[0]), mr.operand("head/1", h.Args[1])}
	}
	for _, p := range m.Preds {
		rules[p.Rule].preds[p.Idx] = [3]string{p.Table, p.Args[0], p.Args[1]}
	}
	for _, o := range m.Opers {
		mr := rules[o.Rule]
		f := strings.Fields(o.Sel) // left, operator, right
		mr.opers[o.SelIdx] = metaOper{
			left:  mr.operand(fmt.Sprintf("sel/%d/L", o.SelIdx), f[0]),
			right: mr.operand(fmt.Sprintf("sel/%d/R", o.SelIdx), f[2]),
			op:    o.Op,
		}
	}
	return rules
}

// operand names an expression as Figure 4 does: a constant by the path of
// its Const tuple, a variable by its name.
func (mr *metaRule) operand(path, rendered string) string {
	if _, ok := mr.consts[path]; ok {
		return path
	}
	return rendered
}

func (mr *metaRule) clone() *metaRule {
	c := *mr
	c.preds, c.consts, c.opers, c.dropped = maps.Clone(mr.preds), maps.Clone(mr.consts), maps.Clone(mr.opers), maps.Clone(mr.dropped)
	return &c
}

// apply performs one edit of the rule on its meta tuples, addressed by
// stable IDs that no deletion shifts. A deleted element stays deleted
// whatever is listed after it; two updates of one element apply in list
// order, the last one winning.
func (mr *metaRule) apply(c Change) {
	switch c := c.(type) {
	case SetOper:
		if o, ok := mr.opers[c.SelIdx]; ok {
			o.op = c.New
			mr.opers[c.SelIdx] = o
		}
	case SetConst:
		if _, ok := mr.consts[c.Path]; ok {
			mr.consts[c.Path] = c.New
		}
	case DropSel:
		mr.dropped[c.SelIdx] = true
	case DropBodyPred:
		delete(mr.preds, c.BodyIdx)
	case DropRule:
		mr.gone = true
	}
}

// effectiveOpers is the rule's Oper tuples by SID, a dropped selection
// replaced by L > floor over the location variable of its first remaining
// body predicate. With no body predicate left there is no join, and the
// rule derives nothing whatever its selections.
func (mr *metaRule) effectiveOpers() map[int]metaOper {
	if len(mr.preds) == 0 {
		return nil
	}
	floor := metaOper{left: mr.preds[slices.Min(slices.Collect(maps.Keys(mr.preds)))][1], right: "floor", op: ndlog.OpGt}
	out := maps.Clone(mr.opers)
	for sid := range mr.dropped {
		if _, ok := out[sid]; ok {
			out[sid] = floor
		}
	}
	return out
}

// tuples renders the rule's meta tuples at meta location C, under rule ID
// rul and head table tab.
func (mr *metaRule) tuples(rul, tab string) []ndlog.Tuple {
	s, c, r := ndlog.Str, ndlog.Str("C"), ndlog.Str(rul)
	out := []ndlog.Tuple{
		ndlog.NewTuple("HeadFunc", c, r, s(tab), s(mr.head[1]), s("floor"), s(mr.head[2])),
		ndlog.NewTuple("Assign", c, r, s(mr.head[1]), s(mr.head[1])),
		ndlog.NewTuple("Assign", c, r, s("floor"), s("floor")),
		ndlog.NewTuple("Assign", c, r, s(mr.head[2]), s(mr.head[2])),
		ndlog.NewTuple("Const", c, r, s("floor"), ndlog.Int(-1)),
	}
	for _, p := range mr.preds {
		out = append(out, ndlog.NewTuple("PredFunc", c, r, s(p[0]), s(p[1]), s(p[2])))
	}
	for path, v := range mr.consts {
		out = append(out, ndlog.NewTuple("Const", c, r, s(path), v))
	}
	for sid, o := range mr.effectiveOpers() {
		out = append(out, ndlog.NewTuple("Oper", c, r, ndlog.Int(int64(sid)), s(o.left), s(o.right), s(o.op.String())))
	}
	return out
}

// metaEval runs many rule variants through the µDlog meta model. Every
// meta rule of Figure 4 joins on the rule ID, and the fragment's rules do
// not chain, so a program's Tuple set is its base tuples plus each rule's
// derivations. Variant v runs as rule "<id>#v" into head table "<tab>#v":
// no meta rule joins two variants, and the Tuple rows of "<tab>#v" are
// exactly variant v's derivations. Variants with the same meta tuples run
// once.
type metaEval struct {
	index map[string]int // a variant's meta tuples, rendered → its number
	rules []*metaRule
}

// add registers a rule variant and returns its number, or -1 for a
// deleted rule.
func (ev *metaEval) add(mr *metaRule) int {
	if mr.gone {
		return -1
	}
	key := fmt.Sprint(mr.head, mr.preds, mr.consts, mr.effectiveOpers()) // fmt sorts map keys
	if v, ok := ev.index[key]; ok {
		return v
	}
	if ev.index == nil {
		ev.index = make(map[string]int)
	}
	ev.index[key] = len(ev.rules)
	ev.rules = append(ev.rules, mr)
	return len(ev.rules) - 1
}

// metaBatch is how many variants share one engine. Every lookup on a
// join-ID column also visits the rows whose join ID is the wildcard, which
// every variant's constants add, so a batch's join cost grows with its
// square, while every batch compiles the meta program afresh. Eight ran
// fastest of 4, 8, 16 and 32.
const metaBatch = 8

// run loads each batch of variants' meta tuples, then the base tuples,
// into the µDlog meta model — the program first, so that p2's predicate
// count is final before any join — and returns the Tuple rows h1 copies
// from Base and each variant's derived rows, rendered as Tab(L,V).
func (ev *metaEval) run(base []ndlog.Tuple) (copied []string, derived [][]string, err error) {
	derived = make([][]string, len(ev.rules))
	for lo := 0; lo == 0 || lo < len(ev.rules); lo += metaBatch {
		eng, err := newMuDlogEngine()
		if err != nil {
			return nil, nil, err
		}
		for v := lo; v < min(lo+metaBatch, len(ev.rules)); v++ {
			mr := ev.rules[v]
			for _, tup := range mr.tuples(fmt.Sprintf("%s#%d", mr.id, v), fmt.Sprintf("%s#%d", mr.head[0], v)) {
				eng.Insert(tup)
			}
		}
		c := ndlog.Str("C")
		for _, b := range base {
			eng.Insert(ndlog.NewTuple("Base", c, ndlog.Str(b.Table), b.Args[0], b.Args[1]))
		}
		for _, row := range eng.Rows("Tuple") {
			tab, variant, ok := strings.Cut(row.Args[1].Str, "#")
			if !ok {
				if lo == 0 {
					copied = append(copied, fmt.Sprintf("%s(%s,%s)", tab, row.Args[2], row.Args[3]))
				}
				continue
			}
			v, err := strconv.Atoi(variant)
			if err != nil {
				return nil, nil, fmt.Errorf("Tuple row %s: %v", row, err)
			}
			derived[v] = append(derived[v], fmt.Sprintf("%s(%s,%s)", tab, row.Args[0], row.Args[3]))
		}
	}
	return copied, derived, nil
}
