package meta

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ndlog"
)

// applyReference is Apply as it was before patches became copy-on-write:
// deep-clone the whole program, mutate the clone, validate every rule. It
// is the oracle TestApplyMatchesReference holds Apply to.
func applyReference(prog *ndlog.Program, changes []Change) (*Patch, error) {
	p, err := mutateReference(prog, changes)
	if err != nil {
		return nil, err
	}
	for _, r := range p.Prog.Rules {
		if err := validateRuleReference(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// mutateReference is applyReference without the validation pass.
func mutateReference(prog *ndlog.Program, changes []Change) (*Patch, error) {
	p := &Patch{Prog: prog.Clone()}
	for _, c := range applyOrder(changes) {
		if err := c.ApplyTo(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// validateRuleReference is ValidateRule as it was when it rendered its
// error context eagerly.
func validateRuleReference(r *ndlog.Rule) error {
	bound := make(map[string]bool)
	for _, b := range r.Body {
		for _, a := range b.Args {
			for _, v := range a.Vars(nil) {
				bound[v] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range r.Assigns {
			if bound[a.Var] {
				continue
			}
			ok := true
			for _, v := range a.Expr.Vars(nil) {
				if !bound[v] {
					ok = false
					break
				}
			}
			if ok {
				bound[a.Var] = true
				changed = true
			}
		}
	}
	check := func(e ndlog.Expr, where string) error {
		for _, v := range e.Vars(nil) {
			if v == "_" {
				continue
			}
			if !bound[v] {
				return fmt.Errorf("meta: rule %s: unbound variable %s in %s", r.ID, v, where)
			}
		}
		return nil
	}
	for _, s := range r.Sels {
		if err := check(s.Left, "selection "+s.String()); err != nil {
			return err
		}
		if err := check(s.Right, "selection "+s.String()); err != nil {
			return err
		}
	}
	for _, a := range r.Assigns {
		if err := check(a.Expr, "assignment "+a.String()); err != nil {
			return err
		}
	}
	for _, a := range r.Head.Args {
		if err := check(a, "head"); err != nil {
			return err
		}
	}
	return nil
}

// genRule renders one random rule. A valid rule draws its guards and head
// from the variables its body binds; an invalid one has an unbound head
// variable.
func genRule(rng *rand.Rand, id string, valid bool) string {
	pool := []string{"A", "B", "C", "D"}
	atoms := []string{"In", "Link", "State"}
	var body []string
	var bound []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		args := []string{"@S"}
		for j := 0; j < 2; j++ {
			switch v := pool[rng.Intn(len(pool))]; {
			case rng.Intn(5) == 0:
				args = append(args, fmt.Sprint(rng.Intn(9)))
			case rng.Intn(12) == 0:
				args = append(args, "_")
			default:
				args = append(args, v)
				bound = append(bound, v)
			}
		}
		body = append(body, fmt.Sprintf("%s(%s)", atoms[rng.Intn(len(atoms))], strings.Join(args, ",")))
	}
	bound = append(bound, "S")
	pick := func() string { return bound[rng.Intn(len(bound))] }
	terms := body
	ops := []string{"==", "!=", "<", ">", "<=", ">="}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		right := fmt.Sprint(rng.Intn(9))
		if rng.Intn(3) == 0 {
			right = fmt.Sprintf("%s + %d", pick(), rng.Intn(9))
		}
		terms = append(terms, fmt.Sprintf("%s %s %s", pick(), ops[rng.Intn(len(ops))], right))
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		target := fmt.Sprintf("X%d", i)
		expr := fmt.Sprint(rng.Intn(9))
		if rng.Intn(2) == 0 {
			expr = fmt.Sprintf("%s * 2 + %d", pick(), rng.Intn(9))
		}
		terms = append(terms, fmt.Sprintf("%s := %s", target, expr))
		bound = append(bound, target)
	}
	h1, h2 := pick(), pick()
	if !valid {
		h2 = "Q"
	}
	if rng.Intn(6) == 0 {
		h1 = fmt.Sprint(rng.Intn(9))
	}
	return fmt.Sprintf("%s Out%d(@S,%s,%s) :- %s.", id, rng.Intn(2), h1, h2, strings.Join(terms, ", "))
}

// genProgram builds a random program of valid rules r0..rN, with one
// invalid rule "bad" spliced in when validBase is false.
func genProgram(rng *rand.Rand, validBase bool) *ndlog.Program {
	n := 1 + rng.Intn(6)
	badAt := -1
	if !validBase {
		badAt = rng.Intn(n + 1)
	}
	var src strings.Builder
	src.WriteString("materialize(State, 1, 3, keys(0,1)).\n")
	for i := 0; i <= n; i++ {
		if i == badAt {
			src.WriteString(genRule(rng, "bad", false) + "\n")
		}
		if i < n {
			src.WriteString(genRule(rng, fmt.Sprintf("r%d", i), true) + "\n")
		}
	}
	return ndlog.MustParse("random", src.String())
}

// genChanges draws a change list from every Change kind. Targets cluster
// on few rules, so lists edit one rule twice, edit a rule they add, edit
// and then drop, name rules and indexes that do not exist, and leave rules
// invalid. The second result is the IDs of the rules the list targets.
func genChanges(rng *rand.Rand, prog *ndlog.Program) ([]Change, map[string]bool) {
	ids := []string{"nope"}
	for _, r := range prog.Rules {
		ids = append(ids, r.ID, r.ID, r.ID)
	}
	focus := ids[rng.Intn(len(ids))]
	ruleID := func() string {
		if rng.Intn(2) == 0 {
			return focus
		}
		return ids[rng.Intn(len(ids))]
	}
	// shape is the rule an ID names as the list starts (or adds it): the
	// indexes and paths drawn for it are in range seven times out of eight.
	shape := make(map[string]*ndlog.Rule)
	for _, r := range prog.Rules {
		shape[r.ID] = r
	}
	idx := func(n int) int {
		if n == 0 || rng.Intn(8) == 0 {
			return n + rng.Intn(2) - rng.Intn(2)*(n+2)
		}
		return rng.Intn(n)
	}
	path := func(id string) string {
		r := shape[id]
		if r == nil {
			return "head/1"
		}
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf("head/%d", idx(len(r.Head.Args)))
		case 1:
			return fmt.Sprintf("body/%d/%d", idx(len(r.Body)), idx(3))
		case 2:
			return fmt.Sprintf("sel/%d/%s", idx(len(r.Sels)), []string{"L", "R", "R/R"}[rng.Intn(3)])
		case 3:
			return fmt.Sprintf("assign/%d", idx(len(r.Assigns)))
		}
		return fmt.Sprintf("assign/%d/R", idx(len(r.Assigns)))
	}
	sizes := func(id string) (sels, body int) {
		if r := shape[id]; r != nil {
			return len(r.Sels), len(r.Body)
		}
		return 1, 1
	}
	m := NewModel(prog)
	targets := make(map[string]bool)
	var out []Change
	added := 0
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		id := ruleID()
		var c Change
		switch rng.Intn(12) {
		case 0, 1:
			sc := SetConst{RuleID: id, Path: path(id), New: ndlog.Int(int64(rng.Intn(99)))}
			if len(m.Consts) > 0 && rng.Intn(3) > 0 {
				ref := m.Consts[rng.Intn(len(m.Consts))]
				sc.RuleID, sc.Path, sc.Old = ref.Rule, ref.Path, ref.Val
			}
			c, id = sc, sc.RuleID
		case 2:
			sels, _ := sizes(id)
			c = SetOper{RuleID: id, SelIdx: idx(sels), New: ndlog.BinOp(rng.Intn(6))}
		case 3, 4:
			var e ndlog.Expr = &ndlog.Var{Name: []string{"A", "B", "S", "Z"}[rng.Intn(4)]}
			if rng.Intn(3) == 0 {
				e = &ndlog.ConstExpr{Val: ndlog.Int(int64(rng.Intn(9)))}
			}
			c = SetExpr{RuleID: id, Path: path(id), New: e}
		case 5, 6:
			sels, _ := sizes(id)
			c = DropSel{RuleID: id, SelIdx: idx(sels)}
		case 7:
			_, body := sizes(id)
			c = DropBodyPred{RuleID: id, BodyIdx: idx(body)}
		case 8:
			c = DropRule{RuleID: id}
		case 9:
			id = fmt.Sprintf("n%d", added)
			if rng.Intn(8) == 0 {
				id = ids[rng.Intn(len(ids))] // usually a duplicate ID
			}
			added++
			r := ndlog.MustParse("added", genRule(rng, id, rng.Intn(5) > 0)).Rules[0]
			c = AddRule{Rule: r}
			if shape[id] == nil {
				shape[id] = r
			}
			ids = append(ids, id, id)
			if rng.Intn(2) == 0 {
				focus = id
			}
		case 10:
			c = SetHeadTable{RuleID: id, New: "Moved"}
		default:
			tp := ndlog.NewTuple("State", ndlog.Int(int64(rng.Intn(9))), ndlog.Int(int64(i)))
			if c = Change(InsertTuple{Tuple: tp}); rng.Intn(2) == 0 {
				c = DeleteTuple{Tuple: tp}
			}
			id = ""
		}
		if id != "" {
			targets[id] = true
		}
		out = append(out, c)
	}
	return out, targets
}

func ruleIDs(rules []*ndlog.Rule) []string {
	var out []string
	for _, r := range rules {
		out = append(out, r.ID)
	}
	return out
}

// TestApplyMatchesReference is the oracle for copy-on-write patches: over
// random programs and change lists Apply returns what the deep-clone
// reference returns — error text, rendered program, tuple edits — leaves
// the base untouched, shares exactly the rules the list did not target,
// and logs exactly the ones it did. Every fifth base is invalid: there the
// reference blames the base unless the list rewrote the offending rule,
// callers gate on Validate(base) instead, and Apply must still mutate as
// the reference does and report no error the reference program does not
// contain.
func TestApplyMatchesReference(t *testing.T) {
	var applied, applyErrs, invalidResults, invalidBases int
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		validBase := seed%5 != 4
		base := genProgram(rng, validBase)
		changes, targets := genChanges(rng, base)
		before := base.String()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\nbase:\n%schanges: %v", seed, fmt.Sprintf(format, args...), before, changes)
		}
		if (Validate(base) == nil) != validBase {
			fail("generator: Validate(base) = %v, want valid=%v", Validate(base), validBase)
		}

		got, gotErr := Apply(base, changes)
		mut, mutErr := mutateReference(base, changes)
		ref, refErr := applyReference(base, changes)
		if after := base.String(); after != before {
			fail("base program changed:\n%s", after)
		}

		switch {
		case mutErr != nil:
			applyErrs++
			if gotErr == nil || gotErr.Error() != mutErr.Error() {
				fail("apply error = %v, reference %v", gotErr, mutErr)
			}
			continue
		case validBase:
			if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
				fail("error = %v, reference %v", gotErr, refErr)
			}
		default:
			invalidBases++
			if refErr == nil {
				bad, now := base.Rule("bad"), ref.Prog.Rule("bad")
				if now != nil && now.String() == bad.String() {
					fail("reference accepted an invalid base it did not rewrite")
				}
			}
			if gotErr != nil {
				known := false
				for _, r := range mut.Prog.Rules {
					if err := validateRuleReference(r); err != nil && err.Error() == gotErr.Error() {
						known = true
					}
				}
				if !known {
					fail("error %v names no invalid rule of the reference program", gotErr)
				}
			}
		}
		if gotErr != nil {
			invalidResults++
			continue
		}
		applied++
		if got.Prog.String() != mut.Prog.String() {
			fail("patched program:\n%sreference:\n%s", got.Prog, mut.Prog)
		}
		if fmt.Sprint(got.Inserts) != fmt.Sprint(mut.Inserts) || fmt.Sprint(got.Deletes) != fmt.Sprint(mut.Deletes) {
			fail("tuple edits %v / %v, reference %v / %v", got.Inserts, got.Deletes, mut.Inserts, mut.Deletes)
		}

		// Sharing and the edit log, from the change list alone.
		var wantEdited []string
		for _, r := range got.Prog.Rules {
			shared := slices.Contains(base.Rules, r)
			if targets[r.ID] {
				wantEdited = append(wantEdited, r.ID)
			}
			if shared == targets[r.ID] {
				fail("rule %s: targeted %v but shared with the base %v", r.ID, targets[r.ID], shared)
			}
		}
		if gotIDs := ruleIDs(got.Edited()); !slices.Equal(gotIDs, wantEdited) {
			fail("Edited() = %v, want %v", gotIDs, wantEdited)
		}
		var wantDropped []string
		for _, c := range applyOrder(changes) {
			if d, ok := c.(DropRule); ok && base.Rule(d.RuleID) != nil && !slices.Contains(wantDropped, d.RuleID) {
				wantDropped = append(wantDropped, d.RuleID)
			}
		}
		if !slices.Equal(got.Dropped(), wantDropped) {
			fail("Dropped() = %v, want %v", got.Dropped(), wantDropped)
		}
	}
	t.Logf("%d applied, %d apply errors, %d invalid results, %d invalid bases", applied, applyErrs, invalidResults, invalidBases)
	if applied < 150 || applyErrs < 100 || invalidResults < 40 || invalidBases < 40 {
		t.Fatal("the generator no longer covers every outcome")
	}
}

// TestApplyConcurrentOnSharedBase: stream workers apply candidates to one
// base program concurrently and the patches share its rule ASTs; under
// -race this proves nobody writes them.
func TestApplyConcurrentOnSharedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := genProgram(rng, true)
	type job struct {
		changes []Change
		want    string
	}
	var jobs []job
	for len(jobs) < 16 {
		changes, _ := genChanges(rng, base)
		if ref, err := applyReference(base, changes); err == nil {
			jobs = append(jobs, job{changes, ref.Prog.String()})
		}
	}
	before := base.String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j := jobs[(g+i)%len(jobs)]
				p, err := Apply(base, j.changes)
				if err != nil || p.Prog.String() != j.want {
					t.Errorf("goroutine %d: %v: err %v, program\n%v", g, j.changes, err, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if base.String() != before {
		t.Fatal("base program changed")
	}
}

const ordered = `
r1 Out(@S,A,B) :- In(@S,A,B), A > 1, B > 2, A < 9.
r2 Out(@S,A,B) :- In(@S,A,B), Mid(@S,A), Cfg(@S,5).
`

// TestIndexedEditsAddressTheRuleAsWritten: a deletion in the same change
// list must not shift the selection, path or body index another change
// names (Apply used to run deletions first).
func TestIndexedEditsAddressTheRuleAsWritten(t *testing.T) {
	drop0 := DropSel{RuleID: "r1", SelIdx: 0}
	for _, tc := range []struct {
		name    string
		changes []Change
		rule    string
		want    string
	}{
		{"operator after a deleted selection",
			[]Change{SetOper{RuleID: "r1", SelIdx: 1, Old: ndlog.OpGt, New: ndlog.OpGe}, drop0},
			"r1", "r1 Out(@S,A,B) :- In(@S,A,B), B >= 2, A < 9."},
		{"operator of the last selection",
			[]Change{SetOper{RuleID: "r1", SelIdx: 2, Old: ndlog.OpLt, New: ndlog.OpLe}, drop0},
			"r1", "r1 Out(@S,A,B) :- In(@S,A,B), B > 2, A <= 9."},
		{"constant path after a deleted selection",
			[]Change{drop0, SetConst{RuleID: "r1", Path: "sel/2/R", Old: ndlog.Int(9), New: ndlog.Int(7)}},
			"r1", "r1 Out(@S,A,B) :- In(@S,A,B), B > 2, A < 7."},
		{"body path after a deleted predicate",
			[]Change{DropBodyPred{RuleID: "r2", BodyIdx: 1}, SetConst{RuleID: "r2", Path: "body/2/1", Old: ndlog.Int(5), New: ndlog.Int(6)}},
			"r2", "r2 Out(@S,A,B) :- In(@S,A,B), Cfg(@S,6)."},
	} {
		p, err := Apply(ndlog.MustParse("ordered", ordered), tc.changes)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := p.Prog.Rule(tc.rule).String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestEditLog(t *testing.T) {
	prog := ndlog.MustParse("fig2", fig2)
	unbind := SetExpr{RuleID: "r7", Path: "head/2", Old: "Prt", New: &ndlog.Var{Name: "Nowhere"}}
	extra := AddRule{Rule: ndlog.MustParse("x", `n1 Out(@S,Q) :- In(@S,A).`).Rules[0]}

	// Edited and then dropped: out of the edit log, so the invalid edit is
	// not validated — the patched program does not contain it.
	p, err := Apply(prog, []Change{unbind, DropRule{RuleID: "r7"}})
	if err != nil {
		t.Fatalf("edit then drop: %v", err)
	}
	if len(p.Edited()) != 0 || !slices.Equal(p.Dropped(), []string{"r7"}) || p.Prog.Rule("r7") != nil {
		t.Fatalf("edit then drop: edited %v, dropped %v", ruleIDs(p.Edited()), p.Dropped())
	}
	if _, err := Apply(prog, []Change{unbind}); err == nil {
		t.Fatal("the edit alone must fail validation")
	}

	// Added and then dropped: in neither list.
	p, err = Apply(prog, []Change{DropRule{RuleID: "n1"}, extra})
	if err != nil {
		t.Fatalf("add then drop: %v", err)
	}
	if len(p.Edited()) != 0 || len(p.Dropped()) != 0 || p.Prog.String() != prog.String() {
		t.Fatalf("add then drop: edited %v, dropped %v", ruleIDs(p.Edited()), p.Dropped())
	}

	// Edit clones once, logs once, and reports an unknown rule as
	// Program.Rule + nil check did.
	p, _ = Apply(prog, nil)
	r, err := p.Edit("r7")
	again, _ := p.Edit("r7")
	if err != nil || r == prog.Rule("r7") || r != again || p.Prog.Rule("r7") != r || p.Prog.Rule("r1") != prog.Rule("r1") {
		t.Fatalf("Edit(r7) = %p, %p (base %p), err %v", r, again, prog.Rule("r7"), err)
	}
	if got := ruleIDs(p.Edited()); !slices.Equal(got, []string{"r7"}) {
		t.Fatalf("Edited() = %v", got)
	}
	if _, err := p.Edit("r9"); err == nil || err.Error() != "meta: no rule r9" {
		t.Fatalf("Edit(r9) error = %v", err)
	}
	for _, c := range []Change{SetConst{RuleID: "r9"}, SetOper{RuleID: "r9"}, SetExpr{RuleID: "r9"}, DropSel{RuleID: "r9"},
		DropBodyPred{RuleID: "r9"}, DropRule{RuleID: "r9"}, SetHeadTable{RuleID: "r9"}} {
		if _, err := Apply(prog, []Change{c}); err == nil || err.Error() != "meta: no rule r9" {
			t.Errorf("%T on an unknown rule: %v", c, err)
		}
	}
}

// TestModelApplyGatesOnBaseValidity: Apply validates only what it edits,
// so the model vouches for the rest — once, at construction.
func TestModelApplyGatesOnBaseValidity(t *testing.T) {
	prog := ndlog.MustParse("invalid", fig2+"bad Out(@S,Q) :- In(@S,A).\n")
	fix := []Change{SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)}}
	if _, err := Apply(prog, fix); err != nil {
		t.Fatalf("Apply leaves the base to its caller: %v", err)
	}
	if _, err := NewModel(prog).Apply(fix); err == nil || err.Error() != Validate(prog).Error() {
		t.Fatalf("Model.Apply on an invalid base: %v", err)
	}
	if _, err := NewModel(ndlog.MustParse("fig2", fig2)).Apply(fix); err != nil {
		t.Fatal(err)
	}
}

// TestApplyCostsItsEdit counts objects, not time: one SetConst allocates
// the same on 8 rules as on 80 (the one Rules slice is a bigger object,
// not more of them), and validating a valid rule renders no text however
// many selections it has.
func TestApplyCostsItsEdit(t *testing.T) {
	program := func(rules int) *ndlog.Program {
		var src strings.Builder
		for i := 0; i < rules; i++ {
			fmt.Fprintf(&src, "r%d Out(@S,A,B) :- In(@S,A,B), Link(@S,B,C), A > %d, C != 4, X := A + 1.\n", i, i)
		}
		return ndlog.MustParse("wide", src.String())
	}
	allocs := func(prog *ndlog.Program) float64 {
		id := prog.Rules[len(prog.Rules)-1].ID
		changes := []Change{SetConst{RuleID: id, Path: "sel/1/R", Old: ndlog.Int(4), New: ndlog.Int(5)}}
		return testing.AllocsPerRun(50, func() {
			if _, err := Apply(prog, changes); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(program(8)), allocs(program(80)); small != large {
		t.Errorf("Apply of one SetConst: %v allocations on 8 rules, %v on 80", small, large)
	}

	validate := func(sels int) float64 {
		src := "r Out(@S,A,B) :- In(@S,A,B)" + strings.Repeat(", A + B > 3", sels) + "."
		r := ndlog.MustParse("sels", src).Rules[0]
		return testing.AllocsPerRun(50, func() {
			if err := ValidateRule(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := validate(1), validate(12); one != many {
		t.Errorf("ValidateRule: %v allocations with 1 selection, %v with 12", one, many)
	}
}
