package meta

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ndlog"
)

// Patch is the result of applying a repair candidate: a patched program
// plus any manual base-tuple insertions or deletions the candidate calls
// for. A Patch is copy-on-write: it shares every rule it did not edit (and
// all declarations) with its base program, which is never mutated, so
// Patch.Prog is read-only — as it already is for engines, which never
// write rule ASTs. The only way to a writable rule is Edit.
type Patch struct {
	Prog    *ndlog.Program
	Inserts []ndlog.Tuple
	Deletes []ndlog.Tuple

	// The edit log: every rule the patch cloned for editing or added, how
	// many rules at the tail of Prog.Rules it added, and the IDs of the
	// base rules it dropped.
	owned   []*ndlog.Rule
	added   int
	dropped []string
}

// Change is one meta-tuple edit: an update, insertion, or deletion of a
// syntactic element or base tuple. Changes apply to a Patch in place and
// reach a rule only through Patch.Edit.
type Change interface {
	ApplyTo(p *Patch) error
	String() string
}

// Edit returns rule ruleID of the patched program for writing: the first
// call clones the base program's rule into Prog and logs it, later calls
// (and calls for a rule the patch added) return the patch's own copy.
func (p *Patch) Edit(ruleID string) (*ndlog.Rule, error) {
	for i, r := range p.Prog.Rules {
		if r.ID != ruleID {
			continue
		}
		if !slices.Contains(p.owned, r) {
			r = r.Clone()
			p.Prog.Rules[i] = r
			p.owned = append(p.owned, r)
		}
		return r, nil
	}
	return nil, fmt.Errorf("meta: no rule %s", ruleID)
}

// Edited returns the rules of Prog the patch edited or added, in program
// order (added rules come last, in the order they were added). A rule
// edited or added and then dropped is in no program, so not among them.
func (p *Patch) Edited() []*ndlog.Rule {
	var out []*ndlog.Rule
	for _, r := range p.Prog.Rules {
		if slices.Contains(p.owned, r) {
			out = append(out, r)
		}
	}
	return out
}

// Dropped returns the IDs of the base program's rules the patch deleted.
func (p *Patch) Dropped() []string { return p.dropped }

// Apply applies all changes to a copy-on-write view of the program and
// returns the patch. Rule additions apply first (so follow-up edits can
// target the new rule), then updates and rule deletions in the order
// given, then deletions of indexed elements (DropSel, DropBodyPred) in
// descending index order, each element once — so every index and path
// addresses the rule as written, whatever the list deletes from it. Only
// the rules the patch edited or added are validated: the caller vouches
// that the base program is valid (Validate it once; Model does so at
// construction).
func Apply(prog *ndlog.Program, changes []Change) (*Patch, error) {
	p := &Patch{Prog: &ndlog.Program{Name: prog.Name, Decls: prog.Decls, Rules: slices.Clone(prog.Rules)}}
	for _, c := range applyOrder(changes) {
		if err := c.ApplyTo(p); err != nil {
			return nil, err
		}
	}
	for _, r := range p.Edited() {
		if err := ValidateRule(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// applyOrder sorts a change list into Apply's order of application. An
// indexed deletion listed twice names one element, so it is kept once.
func applyOrder(changes []Change) []Change {
	ordered := slices.Clone(changes)
	slices.SortStableFunc(ordered, func(a, b Change) int {
		ra, ia := precedence(a)
		rb, ib := precedence(b)
		return cmp.Or(cmp.Compare(ra, rb), cmp.Compare(ib, ia))
	})
	kept := ordered[:0]
	for _, c := range ordered {
		// c is then a DropSel or a DropBodyPred, both comparable; against
		// a change of another type == is false without comparing values.
		if rank, _ := precedence(c); rank < 2 || !slices.Contains(kept, c) {
			kept = append(kept, c)
		}
	}
	return kept
}

// precedence ranks a change: additions, updates, then indexed deletions.
func precedence(c Change) (rank, index int) {
	switch c := c.(type) {
	case AddRule:
		return 0, 0
	case DropSel:
		return 2, c.SelIdx
	case DropBodyPred:
		return 2, c.BodyIdx
	}
	return 1, 0
}

// SetConst updates the constant at Path in rule RuleID to New (the
// "change constant" repair, e.g. Swi==2 → Swi==3).
type SetConst struct {
	RuleID string
	Path   string
	Old    ndlog.Value
	New    ndlog.Value
}

// ApplyTo implements Change.
func (c SetConst) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	e, set, err := ResolveExpr(r, c.Path)
	if err != nil {
		return err
	}
	if _, ok := e.(*ndlog.ConstExpr); !ok {
		return fmt.Errorf("meta: %s/%s is not a constant", c.RuleID, c.Path)
	}
	set(&ndlog.ConstExpr{Val: c.New})
	return nil
}

func (c SetConst) String() string {
	return fmt.Sprintf("change constant %s in %s (%s) to %s", c.Old, c.RuleID, c.Path, c.New)
}

// SetOper changes a selection's comparison operator (== → !=, <, ...).
type SetOper struct {
	RuleID string
	SelIdx int
	Old    ndlog.BinOp
	New    ndlog.BinOp
	Sel    string // rendered original selection, for display
}

// ApplyTo implements Change.
func (c SetOper) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	if c.SelIdx < 0 || c.SelIdx >= len(r.Sels) {
		return fmt.Errorf("meta: %s has no selection %d", c.RuleID, c.SelIdx)
	}
	r.Sels[c.SelIdx].Op = c.New
	return nil
}

func (c SetOper) String() string {
	return fmt.Sprintf("change operator %s to %s in %s (%s)", c.Old, c.New, c.RuleID, c.Sel)
}

// SetExpr replaces the expression at Path with a new expression (used for
// variable substitutions such as Sip':=* → Sip':=Sip).
type SetExpr struct {
	RuleID string
	Path   string
	Old    string
	New    ndlog.Expr
}

// ApplyTo implements Change.
func (c SetExpr) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	_, set, err := ResolveExpr(r, c.Path)
	if err != nil {
		return err
	}
	set(c.New.Clone())
	return nil
}

func (c SetExpr) String() string {
	return fmt.Sprintf("change %s in %s (%s) to %s", c.Old, c.RuleID, c.Path, c.New.String())
}

// DropSel deletes a selection predicate from a rule.
type DropSel struct {
	RuleID string
	SelIdx int
	Sel    string
}

// ApplyTo implements Change.
func (c DropSel) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	if c.SelIdx < 0 || c.SelIdx >= len(r.Sels) {
		return fmt.Errorf("meta: %s has no selection %d", c.RuleID, c.SelIdx)
	}
	r.Sels = append(r.Sels[:c.SelIdx], r.Sels[c.SelIdx+1:]...)
	return nil
}

func (c DropSel) String() string {
	return fmt.Sprintf("delete %s in %s", c.Sel, c.RuleID)
}

// DropBodyPred deletes a body predicate from a rule. Validation rejects the
// resulting rule if it leaves variables unbound (the paper's syntactic
// validity guard, §4.2).
type DropBodyPred struct {
	RuleID  string
	BodyIdx int
	Pred    string
}

// ApplyTo implements Change.
func (c DropBodyPred) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	if c.BodyIdx < 0 || c.BodyIdx >= len(r.Body) {
		return fmt.Errorf("meta: %s has no body predicate %d", c.RuleID, c.BodyIdx)
	}
	if len(r.Body) == 1 {
		return fmt.Errorf("meta: cannot delete the only body predicate of %s", c.RuleID)
	}
	r.Body = append(r.Body[:c.BodyIdx], r.Body[c.BodyIdx+1:]...)
	return nil
}

func (c DropBodyPred) String() string {
	return fmt.Sprintf("delete predicate %s in %s", c.Pred, c.RuleID)
}

// DropRule deletes a whole rule.
type DropRule struct{ RuleID string }

// ApplyTo implements Change. A dropped rule the patch itself added leaves
// no trace in the edit log; a base rule's ID goes into Dropped.
func (c DropRule) ApplyTo(p *Patch) error {
	for i, r := range p.Prog.Rules {
		if r.ID == c.RuleID {
			if i >= len(p.Prog.Rules)-p.added {
				p.added--
			} else {
				p.dropped = append(p.dropped, r.ID)
			}
			p.Prog.Rules = append(p.Prog.Rules[:i], p.Prog.Rules[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("meta: no rule %s", c.RuleID)
}

func (c DropRule) String() string { return fmt.Sprintf("delete rule %s", c.RuleID) }

// AddRule inserts a new rule.
type AddRule struct{ Rule *ndlog.Rule }

// ApplyTo implements Change.
func (c AddRule) ApplyTo(p *Patch) error {
	if p.Prog.Rule(c.Rule.ID) != nil {
		return fmt.Errorf("meta: duplicate rule ID %s", c.Rule.ID)
	}
	r := c.Rule.Clone()
	if r.TagMask == 0 {
		r.TagMask = ndlog.AllTags
	}
	p.Prog.Rules = append(p.Prog.Rules, r)
	p.owned = append(p.owned, r)
	p.added++
	return nil
}

func (c AddRule) String() string { return fmt.Sprintf("add rule %s", c.Rule.String()) }

// SetHeadTable renames a rule's head table (e.g. FlowTable → PacketOut,
// the "changing the head of e2" repairs of Table 6(c)).
type SetHeadTable struct {
	RuleID string
	Old    string
	New    string
}

// ApplyTo implements Change.
func (c SetHeadTable) ApplyTo(p *Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	r.Head.Table = c.New
	return nil
}

func (c SetHeadTable) String() string {
	return fmt.Sprintf("change the head of %s to %s", c.RuleID, c.New)
}

// InsertTuple is a manual base-tuple insertion (e.g. manually installing a
// flow entry — candidate A of Table 2).
type InsertTuple struct{ Tuple ndlog.Tuple }

// ApplyTo implements Change.
func (c InsertTuple) ApplyTo(p *Patch) error {
	p.Inserts = append(p.Inserts, c.Tuple.Clone())
	return nil
}

func (c InsertTuple) String() string {
	return fmt.Sprintf("manually insert %s", c.Tuple)
}

// DeleteTuple is a manual base-tuple deletion.
type DeleteTuple struct{ Tuple ndlog.Tuple }

// ApplyTo implements Change.
func (c DeleteTuple) ApplyTo(p *Patch) error {
	p.Deletes = append(p.Deletes, c.Tuple.Clone())
	return nil
}

func (c DeleteTuple) String() string {
	return fmt.Sprintf("manually delete %s", c.Tuple)
}

// Validate checks program-level syntactic validity after a patch: every
// rule must bind all head and guard variables from its body predicates and
// assignments. This is the guard that rejects changes violating the
// grammar (§4.2's "Swi >" example).
func Validate(prog *ndlog.Program) error {
	for _, r := range prog.Rules {
		if err := ValidateRule(r); err != nil {
			return err
		}
	}
	return nil
}

// ValidateRule checks a single rule's variable binding discipline. The
// error text is built only when the rule is invalid.
func ValidateRule(r *ndlog.Rule) error {
	bound := make(map[string]bool)
	var buf []string
	for _, b := range r.Body {
		for _, a := range b.Args {
			buf = a.Vars(buf[:0])
			for _, v := range buf {
				bound[v] = true
			}
		}
	}
	// unbound returns the first variable of e that nothing binds, or "".
	unbound := func(e ndlog.Expr) string {
		buf = e.Vars(buf[:0])
		for _, v := range buf {
			if !bound[v] {
				return v
			}
		}
		return ""
	}
	// Assignments bind their target; iterate to a fixed point to honour
	// dependency order.
	for changed := true; changed; {
		changed = false
		for _, a := range r.Assigns {
			if !bound[a.Var] && unbound(a.Expr) == "" {
				bound[a.Var] = true
				changed = true
			}
		}
	}
	bound["_"] = true // a wildcard needs no binding in a guard or the head
	fail := func(v, where string) error {
		return fmt.Errorf("meta: rule %s: unbound variable %s in %s", r.ID, v, where)
	}
	for _, s := range r.Sels {
		for _, e := range [2]ndlog.Expr{s.Left, s.Right} {
			if v := unbound(e); v != "" {
				return fail(v, "selection "+s.String())
			}
		}
	}
	for _, a := range r.Assigns {
		if v := unbound(a.Expr); v != "" {
			return fail(v, "assignment "+a.String())
		}
	}
	for _, a := range r.Head.Args {
		if v := unbound(a); v != "" {
			return fail(v, "head")
		}
	}
	return nil
}
