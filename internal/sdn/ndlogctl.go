package sdn

import (
	"repro/internal/ndlog"
)

// Controller-side table names shared by all NDlog scenario programs. The
// controller inserts PacketIn events; programs derive FlowTable state
// (match fields with * wildcards, action port, -1 = drop) and PacketOut
// events (forward the buffered packet now).
const (
	TablePacketIn  = "PacketIn"
	TableFlowTable = "FlowTable"
	TablePacketOut = "PacketOut"
)

// ControllerLoc is the location value for controller-resident tuples.
var ControllerLoc = ndlog.Str("C")

// NDlogController runs an NDlog program as the SDN controller, translating
// PacketIn events into tuples and derived FlowTable/PacketOut tuples back
// into switch state — the "proxy" between the declarative engine and the
// network in §5.1.
//
// Tuple formats:
//
//	PacketIn(@C, Swi, InPrt, Sip, Dip, Spt, Dpt)
//	FlowTable(@Swi, Sip, Dip, Spt, Dpt, Prt)    (fields may be *; Prt -1 = drop)
//	PacketOut(@Swi, Sip, Dip, Spt, Dpt, Prt)
type NDlogController struct {
	Engine *ndlog.Engine

	// PacketIns counts control-plane events, for the overhead experiments.
	PacketIns int64

	// appBuf backs the appearance list and evArgs the PacketIn tuple's
	// arguments between PacketIns; inPI guards both against re-entrant
	// PacketIns (a derived PacketOut whose forwarding misses on a
	// downstream switch).
	appBuf []ndlog.Tuple
	evArgs [7]ndlog.Value
	inPI   bool
}

// FlowTableDecl is the declaration scenario programs use for FlowTable.
const FlowTableDecl = `materialize(FlowTable, 1, 6, keys(0,1,2,3,4)).`

// NewNDlogController wraps an engine.
func NewNDlogController(e *ndlog.Engine) *NDlogController {
	return &NDlogController{Engine: e}
}

// PacketIn implements Controller: it feeds the event into the engine and
// applies every newly derived FlowTable and PacketOut tuple to the network.
func (c *NDlogController) PacketIn(net *Network, sw *Switch, inPort int64, pkt Packet) {
	c.PacketIns++
	// The engine keeps the arguments of a stored tuple and of anything a
	// listener sees; otherwise it only borrows them for the call, and one
	// buffer serves every PacketIn that is not nested in another.
	args := c.evArgs[:]
	if c.inPI || !c.Engine.BorrowsArgs(TablePacketIn) {
		args = make([]ndlog.Value, len(c.evArgs))
	}
	args[0] = ControllerLoc
	args[1] = ndlog.Int(sw.Num)
	args[2] = ndlog.Int(inPort)
	args[3] = ndlog.Int(pkt.SrcIP)
	args[4] = ndlog.Int(pkt.DstIP)
	args[5] = ndlog.Int(pkt.SrcPort)
	args[6] = ndlog.Int(pkt.DstPort)
	ev := ndlog.Tuple{Table: TablePacketIn, Args: args, Tags: pkt.Tags}
	if c.inPI {
		for _, tp := range c.Engine.Insert(ev) {
			c.applyDerived(net, sw, pkt, tp)
		}
		return
	}
	c.inPI = true
	appeared := c.Engine.InsertInto(ev, c.appBuf[:0])
	for _, tp := range appeared {
		c.applyDerived(net, sw, pkt, tp)
	}
	c.appBuf = appeared[:0]
	c.inPI = false
}

// InsertState seeds controller state (e.g. policy tables) before traffic.
func (c *NDlogController) InsertState(net *Network, tuples ...ndlog.Tuple) {
	for _, tp := range tuples {
		for _, derived := range c.Engine.Insert(tp) {
			c.applyDerived(net, nil, Packet{}, derived)
		}
	}
}

func (c *NDlogController) applyDerived(net *Network, from *Switch, pkt Packet, tp ndlog.Tuple) {
	switch tp.Table {
	case TableFlowTable:
		if len(tp.Args) != 6 {
			return
		}
		swNum := tp.Args[0]
		target := findSwitch(net, swNum.Int)
		if target == nil {
			return
		}
		m := Match{
			SrcIP:   FieldPtr(tp.Args[1]),
			DstIP:   FieldPtr(tp.Args[2]),
			SrcPort: FieldPtr(tp.Args[3]),
			DstPort: FieldPtr(tp.Args[4]),
		}
		act := Action{Kind: ActionOutput, Port: int(tp.Args[5].Int)}
		if tp.Args[5].Int < 0 {
			act = Action{Kind: ActionDrop}
		}
		target.Install(FlowEntry{
			Priority: m.Specificity(),
			Match:    m,
			Action:   act,
			Tags:     tp.Tags,
		})
	case TablePacketOut:
		if len(tp.Args) != 6 {
			return
		}
		target := findSwitch(net, tp.Args[0].Int)
		if target == nil {
			return
		}
		out := pkt
		if from == nil {
			// A PacketOut injected outside a PacketIn context (a manual
			// "send a packetOut message" repair, Table 6(c) candidate A):
			// synthesize the packet from the tuple's header fields.
			out = Packet{
				SrcIP:   wildZero(tp.Args[1]),
				DstIP:   wildZero(tp.Args[2]),
				SrcPort: wildZero(tp.Args[3]),
				DstPort: wildZero(tp.Args[4]),
			}
		}
		out.Tags = tp.Tags
		net.SendFromSwitch(target, int(tp.Args[5].Int), out)
	}
}

func wildZero(v ndlog.Value) int64 {
	if v.Kind == ndlog.KindWild {
		return 0
	}
	return v.Int
}

func findSwitch(net *Network, num int64) *Switch { return net.SwitchByNum(num) }

// StaticController installs no reactive state; it is used for purely
// proactive networks and as a null controller in overhead baselines.
type StaticController struct{}

// PacketIn implements Controller as a no-op (missed packets die).
func (StaticController) PacketIn(*Network, *Switch, int64, Packet) {}
