package ndlog

import (
	"strings"
	"testing"
)

// figure2Program is the buggy controller from Figure 2 of the paper: r7
// checks Swi == 2 where it should check Swi == 3.
const figure2Program = `
materialize(FlowTable, 1, 3, keys(0,1)).
materialize(WebLoadBalancer, 1, 2, keys(0,1)).
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@Hdr,Prt), Swi == 1.
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
`

func TestEngineDeriveFlowEntry(t *testing.T) {
	e := MustNewEngine(MustParse("fig2", figure2Program))
	out := e.Insert(NewTuple("PacketIn", Str("C"), Int(2), Int(80)))
	// r5 and r7 both fire for Swi=2, Hdr=80: two flow entries (Prt 1 and 2)
	// share the primary key (Swi,Hdr), so the table holds one row.
	var flows int
	for _, tp := range out {
		if tp.Table == "FlowTable" {
			flows++
		}
	}
	if flows == 0 {
		t.Fatal("no FlowTable tuple derived")
	}
	if e.Count("FlowTable") != 1 {
		t.Fatalf("FlowTable rows = %d, want 1 (primary-key semantics)", e.Count("FlowTable"))
	}
}

func TestEngineBugReproduced(t *testing.T) {
	// The Figure 1 symptom: a packet arriving at switch 3 with Hdr 80
	// derives no flow entry, because buggy r7 checks Swi == 2.
	e := MustNewEngine(MustParse("fig2", figure2Program))
	out := e.Insert(NewTuple("PacketIn", Str("C"), Int(3), Int(80)))
	for _, tp := range out {
		if tp.Table == "FlowTable" {
			t.Fatalf("unexpected flow entry %v for switch 3", tp)
		}
	}
}

func TestEngineJoinWithState(t *testing.T) {
	e := MustNewEngine(MustParse("fig2", figure2Program))
	e.Insert(NewTuple("WebLoadBalancer", Int(80), Int(1)))
	out := e.Insert(NewTuple("PacketIn", Str("C"), Int(1), Int(80)))
	found := false
	for _, tp := range out {
		if tp.Table == "FlowTable" && tp.Args[2].Int == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("r1 join with WebLoadBalancer failed: %v", out)
	}
}

func TestEnginePrimaryKeyReplacement(t *testing.T) {
	prog := MustParse("kv", `
materialize(KV, 1, 2, keys(0)).
set KV(@K,V) :- Put(@K,V).
`)
	e := MustNewEngine(prog)
	e.Insert(NewTuple("Put", Int(1), Int(10)))
	e.Insert(NewTuple("Put", Int(1), Int(20)))
	rows := e.Rows("KV")
	if len(rows) != 1 || rows[0].Args[1].Int != 20 {
		t.Fatalf("rows = %v, want single KV(1,20)", rows)
	}
}

func TestEngineDeleteCascades(t *testing.T) {
	prog := MustParse("cascade", `
materialize(A, 1, 1, keys(0)).
materialize(B, 1, 1, keys(0)).
materialize(C, 1, 1, keys(0)).
d1 B(@X) :- A(@X).
d2 C(@X) :- B(@X).
`)
	e := MustNewEngine(prog)
	e.Insert(NewTuple("A", Int(7)))
	if e.Count("C") != 1 {
		t.Fatalf("C count = %d, want 1", e.Count("C"))
	}
	e.Delete(NewTuple("A", Int(7)))
	if e.Count("A") != 0 || e.Count("B") != 0 || e.Count("C") != 0 {
		t.Fatalf("after delete: A=%d B=%d C=%d, want all 0",
			e.Count("A"), e.Count("B"), e.Count("C"))
	}
}

func TestEngineMultipleSupports(t *testing.T) {
	prog := MustParse("multi", `
materialize(A, 1, 1, keys(0)).
materialize(B, 1, 1, keys(0)).
materialize(C, 1, 1, keys(0)).
d1 C(@X) :- A(@X).
d2 C(@X) :- B(@X).
`)
	e := MustNewEngine(prog)
	e.Insert(NewTuple("A", Int(1)))
	e.Insert(NewTuple("B", Int(1)))
	e.Delete(NewTuple("A", Int(1)))
	// C(1) still has support through B.
	if e.Count("C") != 1 {
		t.Fatalf("C count = %d, want 1 (supported via B)", e.Count("C"))
	}
	e.Delete(NewTuple("B", Int(1)))
	if e.Count("C") != 0 {
		t.Fatalf("C count = %d, want 0", e.Count("C"))
	}
}

func TestEngineAggregation(t *testing.T) {
	prog := MustParse("agg", `
materialize(PredFunc, 1, 3, keys(0,1,2)).
materialize(PredFuncCount, 1, 2, keys(0)).
p2 PredFuncCount(@Rul,a_count<Tab>) :- PredFunc(@Rul,Tab,Arg).
`)
	e := MustNewEngine(prog)
	e.Insert(NewTuple("PredFunc", Str("r1"), Str("PacketIn"), Int(0)))
	e.Insert(NewTuple("PredFunc", Str("r1"), Str("WebLoadBalancer"), Int(1)))
	e.Insert(NewTuple("PredFunc", Str("r1"), Str("WebLoadBalancer"), Int(1))) // duplicate
	rows := e.Rows("PredFuncCount")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Args[1].Int != 2 {
		t.Fatalf("count = %v, want 2 (distinct tables)", rows[0].Args[1])
	}
}

func TestEngineTags(t *testing.T) {
	// Two variants of the same rule restricted to different tags (§4.4):
	// tag 1 forwards to port 1, tag 2 to port 2.
	prog := MustParse("tags", `
materialize(Out, 1, 3, keys(0,1,2)).
v1 Out(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Prt := 1.
v2 Out(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Prt := 2.
`)
	prog.Rule("v1").TagMask = 1
	prog.Rule("v2").TagMask = 2
	e := MustNewEngine(prog)
	pkt := NewTuple("PacketIn", Str("C"), Int(1), Int(80))
	pkt.Tags = 3
	out := e.Insert(pkt)
	var got []uint64
	for _, tp := range out {
		if tp.Table == "Out" {
			got = append(got, tp.Tags)
		}
	}
	if len(got) != 2 {
		t.Fatalf("derived %d Out tuples, want 2", len(got))
	}
	if got[0]|got[1] != 3 || got[0]&got[1] != 0 {
		t.Fatalf("tags = %v, want disjoint {1,2}", got)
	}
}

func TestEngineTagMaskBlocks(t *testing.T) {
	prog := MustParse("tagblock", `
materialize(Out, 1, 2, keys(0,1)).
v1 Out(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr).
`)
	prog.Rule("v1").TagMask = 4
	e := MustNewEngine(prog)
	pkt := NewTuple("PacketIn", Str("C"), Int(1), Int(80))
	pkt.Tags = 3 // does not include tag bit 4
	out := e.Insert(pkt)
	for _, tp := range out {
		if tp.Table == "Out" {
			t.Fatalf("rule fired despite disjoint tag mask: %v", tp)
		}
	}
}

func TestEngineSendListener(t *testing.T) {
	prog := MustParse("send", `
materialize(FlowTable, 1, 2, keys(0,1)).
fwd FlowTable(@Swi,Prt) :- PacketIn(@C,Swi,Prt).
`)
	e := MustNewEngine(prog)
	rec := &recordingListener{}
	e.Listen(rec)
	e.Insert(NewTuple("PacketIn", Str("C"), Str("S1"), Int(80)))
	if rec.sends != 1 {
		t.Fatalf("sends = %d, want 1 (controller to switch)", rec.sends)
	}
	if rec.derives != 1 || rec.appears != 2 { // PacketIn + FlowTable
		t.Fatalf("derives=%d appears=%d", rec.derives, rec.appears)
	}
}

// Listeners are registered before the first insert: the engine decides per
// derivation what to keep by whether anyone listens, so a listener that
// joined later would hear underivations with body rows missing. A late
// Listen must be refused loudly, after an insert and after a delete alike.
func TestListenAfterFirstInsertPanics(t *testing.T) {
	prog := MustParse("late", `
materialize(Out, 1, 1, keys(0)).
o Out(@X) :- In(@X).
`)
	late := func(e *Engine) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		e.Listen(&recordingListener{})
		return ""
	}
	e := MustNewEngine(prog)
	e.Listen(&recordingListener{})
	e.Listen(&recordingListener{}) // any number, while the clock stands at zero
	e.Insert(NewTuple("In", Int(1)))
	if msg := late(e); !strings.Contains(msg, "listeners are registered before the first insert") {
		t.Fatalf("Listen after an insert: panic %q, want the contract named", msg)
	}
	quiet := MustNewEngine(prog)
	quiet.Delete(NewTuple("Out", Int(1)))
	if msg := late(quiet); msg == "" {
		t.Fatal("Listen after a delete did not panic")
	}
	if len(e.listeners) != 2 || len(quiet.listeners) != 0 {
		t.Fatalf("a refused Listen registered: %d and %d listeners", len(e.listeners), len(quiet.listeners))
	}
}

type recordingListener struct {
	BaseListener
	sends, derives, appears int
}

func (r *recordingListener) OnSend(int64, Value, Value, Tuple)          { r.sends++ }
func (r *recordingListener) OnDerive(int64, *Rule, Tuple, []Tuple, Env) { r.derives++ }
func (r *recordingListener) OnAppear(int64, Tuple)                      { r.appears++ }

func TestEngineRecursion(t *testing.T) {
	// Transitive reachability exercises semi-naive recursion.
	prog := MustParse("reach", `
materialize(Link, 1, 2, keys(0,1)).
materialize(Reach, 1, 2, keys(0,1)).
b Reach(@X,Y) :- Link(@X,Y).
i Reach(@X,Z) :- Link(@X,Y), Reach(@Y,Z).
`)
	e := MustNewEngine(prog)
	e.Insert(NewTuple("Link", Int(1), Int(2)))
	e.Insert(NewTuple("Link", Int(2), Int(3)))
	e.Insert(NewTuple("Link", Int(3), Int(4)))
	if got := e.Count("Reach"); got != 6 {
		t.Fatalf("Reach count = %d, want 6", got)
	}
}

func TestEngineGuardDependencyOrder(t *testing.T) {
	// A selection that depends on an assignment defined after it in source
	// order must still evaluate (guards run in dependency order).
	prog := MustParse("order", `
materialize(Out, 1, 2, keys(0,1)).
o Out(@X,Y) :- In(@X,V), Y > 10, Y := V * 2.
`)
	e := MustNewEngine(prog)
	out := e.Insert(NewTuple("In", Int(1), Int(6)))
	found := false
	for _, tp := range out {
		if tp.Table == "Out" && tp.Args[1].Int == 12 {
			found = true
		}
	}
	if !found {
		t.Fatal("guard dependency ordering failed")
	}
	out = e.Insert(NewTuple("In", Int(2), Int(4)))
	for _, tp := range out {
		if tp.Table == "Out" && tp.Args[0].Int == 2 {
			t.Fatal("selection should have rejected V=4 (Y=8)")
		}
	}
}

func TestEngineBuiltins(t *testing.T) {
	prog := MustParse("builtins", `
materialize(Out, 1, 2, keys(0)).
u Out(@X,Y) :- In(@X), Y := f_unique().
`)
	e := MustNewEngine(prog)
	out1 := e.Insert(NewTuple("In", Int(1)))
	out2 := e.Insert(NewTuple("In", Int(2)))
	var y1, y2 int64
	for _, tp := range out1 {
		if tp.Table == "Out" {
			y1 = tp.Args[1].Int
		}
	}
	for _, tp := range out2 {
		if tp.Table == "Out" {
			y2 = tp.Args[1].Int
		}
	}
	if y1 == y2 {
		t.Fatalf("f_unique returned duplicate values %d", y1)
	}
}

func TestEngineInconsistentLocation(t *testing.T) {
	prog := MustParse("loc", `
a A(@X,Y) :- B(@X,Y).
b A(X,@Y) :- B(@X,Y).
`)
	if _, err := NewEngine(prog); err == nil {
		t.Fatal("expected inconsistent-location error")
	}
}
