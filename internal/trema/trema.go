// Package trema implements a miniature imperative controller language
// modeled on the Trema subset the paper builds a meta model for (Appendix
// B.2): a packet_in handler made of if clauses over packet fields,
// variable assignments, hash-table state, and the send_flow_mod_add /
// send_packet_out primitives. Programs convert to and from the NDlog
// controller dialect: the conversion preserves semantics (each if branch
// is one guarded rule), so the meta-provenance machinery reasons over the
// compiled rules while repairs are rendered and filtered at the Trema
// level. Ruby syntax imposes no restrictions on the repairs the paper
// considers, so every change kind is expressible (§5.8).
package trema

import (
	"fmt"
	"strings"

	"repro/internal/meta"
	"repro/internal/ndlog"
)

// Field names of the packet_in handler's packet object, in the order of
// the PacketIn tuple convention (after location and switch).
var packetFields = []string{"in_port", "src_ip", "dst_ip", "src_port", "dst_port"}

// Cond is one comparison in an if clause, e.g. packet.dst_port == 80, or a
// hash-table membership test (Table != "").
type Cond struct {
	Field string // packet field or local variable
	Op    ndlog.BinOp
	Value int64
	// Table, when set, renders as a hash membership test
	// (table.include?(field)) instead of a comparison.
	Table string
	// Text, when set, renders verbatim (conditions with no direct field
	// mapping, e.g. variable-to-variable comparisons).
	Text string
}

// String renders the condition in Ruby syntax.
func (c Cond) String() string {
	if c.Text != "" {
		return c.Text
	}
	if c.Table != "" {
		return fmt.Sprintf("@%s.include?(packet.%s)", strings.ToLower(c.Table), c.Field)
	}
	return fmt.Sprintf("packet.%s %s %d", c.Field, c.Op, c.Value)
}

// Action is what a branch does.
type Action struct {
	// Kind is "flow_mod", "packet_out", or "learn".
	Kind string
	// Port is the output port (flow_mod / packet_out).
	Port int64
	// PortFrom, when non-empty, takes the port from a variable/lookup.
	PortFrom string
	// LearnKey is the expression learned into the state table ("learn").
	LearnKey string
	// LearnTable is the hash table updated by "learn".
	LearnTable string
}

// String renders the action in Ruby syntax.
func (a Action) String() string {
	switch a.Kind {
	case "flow_mod":
		if a.PortFrom != "" {
			return fmt.Sprintf("send_flow_mod_add(datapath_id, actions: SendOutPort.new(%s))", a.PortFrom)
		}
		return fmt.Sprintf("send_flow_mod_add(datapath_id, actions: SendOutPort.new(%d))", a.Port)
	case "packet_out":
		return fmt.Sprintf("send_packet_out(datapath_id, actions: SendOutPort.new(%d))", a.Port)
	case "learn":
		return fmt.Sprintf("@%s[%s] = packet.in_port", strings.ToLower(a.LearnTable), a.LearnKey)
	}
	return "# unknown action"
}

// Branch is one if clause of the handler: a switch guard, field
// conditions, and an action.
type Branch struct {
	RuleID string // the NDlog rule this branch corresponds to
	Switch int64  // datapath guard (-1 = any switch)
	Conds  []Cond
	Action Action
}

// Handler is a packet_in handler: an ordered list of branches.
type Handler struct {
	Name     string
	Branches []Branch
}

// Source renders the handler as Ruby-flavoured Trema source.
func (h *Handler) Source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %s < Controller\n", h.Name)
	b.WriteString("  def packet_in(datapath_id, packet)\n")
	for _, br := range h.Branches {
		var conds []string
		if br.Switch >= 0 {
			conds = append(conds, fmt.Sprintf("datapath_id == %d", br.Switch))
		}
		for _, c := range br.Conds {
			conds = append(conds, c.String())
		}
		cond := strings.Join(conds, " && ")
		if cond == "" {
			cond = "true"
		}
		fmt.Fprintf(&b, "    if %s  # %s\n", cond, br.RuleID)
		fmt.Fprintf(&b, "      %s\n", br.Action.String())
		b.WriteString("    end\n")
	}
	b.WriteString("  end\nend\n")
	return b.String()
}

// LineCount counts source lines (the Figure 10 program-size metric).
func (h *Handler) LineCount() int { return strings.Count(h.Source(), "\n") }

// FromNDlog translates an NDlog controller program into a Trema handler.
// Each rule becomes one if branch; state-table body predicates become hash
// lookups. Rules outside the recognized controller shape are rejected.
func FromNDlog(prog *ndlog.Program) (*Handler, error) {
	h := &Handler{Name: "RepairedController"}
	for _, r := range prog.Rules {
		br, err := branchFromRule(r)
		if err != nil {
			return nil, fmt.Errorf("trema: rule %s: %w", r.ID, err)
		}
		h.Branches = append(h.Branches, br)
	}
	return h, nil
}

// fieldNames maps NDlog PacketIn argument positions (after @C, Swi) to
// packet field names.
func fieldName(varName string, body *ndlog.Functor) (string, bool) {
	for i, a := range body.Args {
		v, ok := a.(*ndlog.Var)
		if !ok || v.Name != varName {
			continue
		}
		// PacketIn(@C, Swi, InPrt, Sip, Dip, Spt, Dpt)
		if i >= 2 && i-2 < len(packetFields) {
			return packetFields[i-2], true
		}
		if i == 1 {
			return "datapath", true
		}
	}
	return "", false
}

func branchFromRule(r *ndlog.Rule) (Branch, error) {
	br := Branch{RuleID: r.ID, Switch: -1}
	var pktPred *ndlog.Functor
	var statePred *ndlog.Functor
	for _, b := range r.Body {
		if b.Table == "PacketIn" {
			pktPred = b
		} else {
			statePred = b
		}
	}
	if pktPred == nil {
		return br, fmt.Errorf("no PacketIn predicate")
	}
	for _, s := range r.Sels {
		lv, lok := s.Left.(*ndlog.Var)
		rc, rok := s.Right.(*ndlog.ConstExpr)
		if !lok || !rok {
			// Conditions with no direct field mapping render verbatim.
			br.Conds = append(br.Conds, Cond{Text: s.String()})
			continue
		}
		field, ok := fieldName(lv.Name, pktPred)
		if !ok {
			br.Conds = append(br.Conds, Cond{Text: s.String()})
			continue
		}
		if field == "datapath" && s.Op == ndlog.OpEq {
			br.Switch = rc.Val.Int
			continue
		}
		br.Conds = append(br.Conds, Cond{Field: field, Op: s.Op, Value: rc.Val.Int})
	}
	if statePred != nil {
		// A state-table join renders as a hash membership test on the
		// joined field.
		joined := ""
		for _, a := range statePred.Args {
			if v, ok := a.(*ndlog.Var); ok {
				if f, ok := fieldName(v.Name, pktPred); ok {
					joined = f
					break
				}
			}
		}
		br.Conds = append(br.Conds, Cond{Field: joined, Table: statePred.Table})
	}
	switch r.Head.Table {
	case "FlowTable":
		br.Action = Action{Kind: "flow_mod"}
	case "PacketOut":
		br.Action = Action{Kind: "packet_out"}
	default:
		br.Action = Action{Kind: "learn", LearnTable: r.Head.Table}
	}
	if len(r.Assigns) > 0 {
		a := r.Assigns[0]
		switch e := a.Expr.(type) {
		case *ndlog.ConstExpr:
			br.Action.Port = e.Val.Int
			if br.Action.Kind == "learn" {
				br.Action.LearnKey = e.Val.String()
			}
		case *ndlog.Var:
			if f, ok := fieldName(e.Name, pktPred); ok {
				br.Action.PortFrom = "packet." + f
				br.Action.LearnKey = "packet." + f
			}
		}
	} else if statePred != nil && br.Action.Kind == "flow_mod" {
		// The output port comes from a state-table lookup (Q5's m2).
		br.Action.PortFrom = fmt.Sprintf("@%s[packet.dst_ip]", strings.ToLower(statePred.Table))
	}
	return br, nil
}

// Program is the Trema view of a controller; it implements the
// scenario.LangProgram contract.
type Program struct {
	Handler *Handler
}

// Translate builds the Trema view of an NDlog controller.
func Translate(prog *ndlog.Program) (*Program, error) {
	h, err := FromNDlog(prog)
	if err != nil {
		return nil, err
	}
	return &Program{Handler: h}, nil
}

// Source renders the Trema source.
func (p *Program) Source() string { return p.Handler.Source() }

// LineCount counts source lines.
func (p *Program) LineCount() int { return p.Handler.LineCount() }

// AllowChange reports whether the repair is expressible in Trema. Ruby
// places no syntactic restrictions on the paper's repair classes.
func (p *Program) AllowChange(meta.Change) bool { return true }

// Describe renders a repair at the Trema level.
func (p *Program) Describe(c meta.Change) string {
	switch c := c.(type) {
	case meta.SetConst:
		return fmt.Sprintf("edit packet_in: change constant %s to %s (branch %s)", c.Old, c.New, c.RuleID)
	case meta.SetOper:
		return fmt.Sprintf("edit packet_in: change %s to use %s (branch %s)", c.Sel, c.New, c.RuleID)
	case meta.DropSel:
		return fmt.Sprintf("edit packet_in: remove condition %s (branch %s)", c.Sel, c.RuleID)
	case meta.SetHeadTable:
		return fmt.Sprintf("edit packet_in: replace the action of branch %s with %s", c.RuleID, c.New)
	case meta.AddRule:
		return fmt.Sprintf("edit packet_in: add a branch copied from %s", c.Rule.ID)
	default:
		return c.String()
	}
}

// Name identifies the language.
func (p *Program) Name() string { return "Trema" }
