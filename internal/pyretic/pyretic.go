// Package pyretic implements a miniature NetCore-style policy language
// modeled on the Pyretic subset the paper builds a meta model for
// (Appendix B.3): primitive actions (fwd, drop, modify), match
// restrictions, and sequential (>>) and parallel (|) composition, embedded
// in Python-flavoured syntax. Programs convert to and from the NDlog
// controller dialect. Pyretic's match() accepts only field equality, so
// repairs that flip a comparison operator on an equality match are not
// expressible — exactly the restriction §5.8 observes ("a fix that changes
// the operator to > is possible in [RapidNet] but disallowed in [Pyretic]
// because of the syntax of match").
package pyretic

import (
	"fmt"
	"strings"

	"repro/internal/meta"
	"repro/internal/ndlog"
)

// Policy is a NetCore policy term.
type Policy interface {
	pyretic() string // rendered Pyretic source
}

// Fwd forwards to a port.
type Fwd struct{ Port int64 }

// Drop discards packets.
type Drop struct{}

// Match restricts a sub-policy to packets with a field equal to a value.
type Match struct {
	Field string
	Value int64
	Sub   Policy
}

// RangeFilter restricts by a non-equality comparison; Pyretic expresses
// this as an embedded Python predicate, not a match(), so its operator is
// part of host-language code.
type RangeFilter struct {
	Field string
	Op    ndlog.BinOp
	Value int64
	Sub   Policy
}

// TableFilter restricts to packets whose field appears in a runtime set
// (the Pyretic analogue of a white-list lookup).
type TableFilter struct {
	Field string
	Table string
	Sub   Policy
}

// PredFilter restricts by an embedded Python predicate rendered verbatim
// (conditions with no direct field mapping).
type PredFilter struct {
	Text string
	Sub  Policy
}

// LearnPolicy records controller state from packets (the Pyretic analogue
// of a learning rule's side effect).
type LearnPolicy struct {
	Table string
	Key   string
}

// FwdLearned forwards to the port recorded in a state table.
type FwdLearned struct{ Table string }

// Par composes policies in parallel.
type Par struct{ Subs []Policy }

// Seq composes policies sequentially.
type Seq struct{ First, Then Policy }

func (p Fwd) pyretic() string { return fmt.Sprintf("fwd(%d)", p.Port) }
func (Drop) pyretic() string  { return "drop" }
func (p Match) pyretic() string {
	return fmt.Sprintf("match(%s=%d)[%s]", p.Field, p.Value, p.Sub.pyretic())
}
func (p RangeFilter) pyretic() string {
	return fmt.Sprintf("if_(lambda pkt: pkt.%s %s %d)[%s]", p.Field, p.Op, p.Value, p.Sub.pyretic())
}
func (p TableFilter) pyretic() string {
	return fmt.Sprintf("if_(lambda pkt: pkt.%s in self.%s)[%s]", p.Field, strings.ToLower(p.Table), p.Sub.pyretic())
}
func (p PredFilter) pyretic() string {
	return fmt.Sprintf("if_(lambda pkt: %s)[%s]", p.Text, p.Sub.pyretic())
}
func (p LearnPolicy) pyretic() string {
	return fmt.Sprintf("learn(self.%s, key=%s)", strings.ToLower(p.Table), p.Key)
}
func (p FwdLearned) pyretic() string {
	return fmt.Sprintf("fwd_learned(self.%s)", strings.ToLower(p.Table))
}
func (p Par) pyretic() string {
	parts := make([]string, len(p.Subs))
	for i, s := range p.Subs {
		parts[i] = s.pyretic()
	}
	return strings.Join(parts, " |\n    ")
}
func (p Seq) pyretic() string {
	return fmt.Sprintf("%s >> %s", p.First.pyretic(), p.Then.pyretic())
}

// fieldFor maps NDlog PacketIn positions to Pyretic field names.
var fieldForPos = map[int]string{
	1: "switch", 2: "inport", 3: "srcip", 4: "dstip", 5: "srcport", 6: "dstport",
}

// Program is the Pyretic view of a controller; it implements the
// scenario.LangProgram contract.
type Program struct {
	Policy Policy
	// eqSels records, per rule, which selection indices rendered as
	// match() equalities (operator changes there are inexpressible).
	eqSels map[string]map[int]bool
}

// Translate builds the Pyretic view of an NDlog controller. Each rule
// becomes one parallel branch: nested match/if_ filters around a fwd.
func Translate(prog *ndlog.Program) (*Program, error) {
	p := &Program{eqSels: make(map[string]map[int]bool)}
	var branches []Policy
	for _, r := range prog.Rules {
		br, eq, err := policyFromRule(r)
		if err != nil {
			return nil, fmt.Errorf("pyretic: rule %s: %w", r.ID, err)
		}
		p.eqSels[r.ID] = eq
		branches = append(branches, br)
	}
	p.Policy = Par{Subs: branches}
	return p, nil
}

func policyFromRule(r *ndlog.Rule) (Policy, map[int]bool, error) {
	var pktPred, statePred *ndlog.Functor
	for _, b := range r.Body {
		if b.Table == "PacketIn" {
			pktPred = b
		} else {
			statePred = b
		}
	}
	if pktPred == nil {
		return nil, nil, fmt.Errorf("no PacketIn predicate")
	}
	field := func(name string) (string, bool) {
		for i, a := range pktPred.Args {
			if v, ok := a.(*ndlog.Var); ok && v.Name == name {
				f, ok := fieldForPos[i]
				return f, ok
			}
		}
		return "", false
	}
	var inner Policy
	switch {
	case r.Head.Table != "FlowTable" && r.Head.Table != "PacketOut":
		key := "None"
		if len(r.Assigns) > 0 {
			key = r.Assigns[0].Expr.String()
		}
		inner = LearnPolicy{Table: r.Head.Table, Key: key}
	case len(r.Assigns) > 0:
		if c, ok := r.Assigns[0].Expr.(*ndlog.ConstExpr); ok && c.Val.Int >= 0 {
			inner = Fwd{Port: c.Val.Int}
		} else {
			inner = Drop{}
		}
	case statePred != nil:
		inner = FwdLearned{Table: statePred.Table}
	default:
		inner = Drop{}
	}
	eq := make(map[int]bool)
	// Wrap filters innermost-last so the rendering reads naturally.
	for i := len(r.Sels) - 1; i >= 0; i-- {
		s := r.Sels[i]
		lv, lok := s.Left.(*ndlog.Var)
		rc, rok := s.Right.(*ndlog.ConstExpr)
		if !lok || !rok {
			inner = PredFilter{Text: s.String(), Sub: inner}
			continue
		}
		f, ok := field(lv.Name)
		if !ok {
			inner = PredFilter{Text: s.String(), Sub: inner}
			continue
		}
		if s.Op == ndlog.OpEq {
			eq[i] = true
			inner = Match{Field: f, Value: rc.Val.Int, Sub: inner}
		} else {
			inner = RangeFilter{Field: f, Op: s.Op, Value: rc.Val.Int, Sub: inner}
		}
	}
	if statePred != nil {
		joined := ""
		for _, a := range statePred.Args {
			if v, ok := a.(*ndlog.Var); ok {
				if f, ok := field(v.Name); ok {
					joined = f
					break
				}
			}
		}
		inner = TableFilter{Field: joined, Table: statePred.Table, Sub: inner}
	}
	return inner, eq, nil
}

// Source renders the policy as Pyretic source.
func (p *Program) Source() string {
	return "policy = (\n    " + p.Policy.pyretic() + "\n)\n"
}

// LineCount counts source lines.
func (p *Program) LineCount() int { return strings.Count(p.Source(), "\n") }

// AllowChange implements the §5.8 expressibility restriction: operator
// changes on match() equalities are not representable in Pyretic syntax.
func (p *Program) AllowChange(c meta.Change) bool {
	if so, ok := c.(meta.SetOper); ok {
		if eq := p.eqSels[so.RuleID]; eq != nil && eq[so.SelIdx] {
			return false
		}
		// Turning a range filter into an equality is fine (Python code),
		// as is changing between orderings inside if_ predicates.
	}
	return true
}

// Describe renders a repair at the Pyretic level.
func (p *Program) Describe(c meta.Change) string {
	switch c := c.(type) {
	case meta.SetConst:
		return fmt.Sprintf("edit policy: change %s to %s (branch %s)", c.Old, c.New, c.RuleID)
	case meta.SetOper:
		return fmt.Sprintf("edit policy: change predicate %s to use %s (branch %s)", c.Sel, c.New, c.RuleID)
	case meta.DropSel:
		return fmt.Sprintf("edit policy: remove filter %s (branch %s)", c.Sel, c.RuleID)
	case meta.SetHeadTable:
		return fmt.Sprintf("edit policy: change the action of branch %s to %s", c.RuleID, c.New)
	default:
		return c.String()
	}
}

// Name identifies the language.
func (p *Program) Name() string { return "Pyretic" }
