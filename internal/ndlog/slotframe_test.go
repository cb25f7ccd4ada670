// Tests for what slot frames must not change: a program whose guards can
// never bind evaluates identically under both modes, a listener that
// re-enters the engine mid-join does not disturb the join it interrupted,
// and the paths that used to build maps allocate none.
package ndlog_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ndlog"
)

func runModes(t *testing.T, src string, drive func(e *ndlog.Engine)) (full, delta []string) {
	t.Helper()
	streams := make([][]string, 2)
	for i, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
		e := ndlog.MustNewEngine(ndlog.MustParse("modes", src))
		e.SetEvalMode(mode)
		sl := &streamListener{}
		e.Listen(sl)
		drive(e)
		streams[i] = sl.events
	}
	return streams[0], streams[1]
}

// TestUnbindableGuardsRunNothing: rule d's guards can never all bind (N is
// bound nowhere), but its first guard is ready and calls f_unique. Full mode
// used to run that ready prefix before giving up, delta mode skipped the
// rule, and every later f_unique value differed between the two.
func TestUnbindableGuardsRunNothing(t *testing.T) {
	const src = `
materialize(Out, 1, 2, keys(0,1)).
d Out(@X,U) :- In(@X), U := f_unique(), M := N + 1.
u Out(@X,U) :- In(@X), U := f_unique().
`
	full, delta := runModes(t, src, func(e *ndlog.Engine) {
		for i := int64(1); i <= 3; i++ {
			e.Insert(ndlog.NewTuple("In", ndlog.Int(i)))
		}
		if e.Stats.Firings != 6 || e.Stats.Derivations != 3 {
			t.Errorf("mode %v: %d firings, %d derivations; want 6 and 3", e.EvalMode(), e.Stats.Firings, e.Stats.Derivations)
		}
		if got := e.Fresh(); got != 4 {
			t.Errorf("mode %v: f_unique ran %d times, want 3 (rule d must not call it)", e.EvalMode(), got-1)
		}
	})
	if d := diffStreams(full, delta); d != "" {
		t.Fatalf("full and delta streams differ: %s", d)
	}
}

// TestSelectionAfterOverwriteReadsNewValue: a selection over a body variable
// that an assignment overwrites is ordered after the assignment; hoisting it
// ahead (onto the shared binding) would test the old value.
func TestSelectionAfterOverwriteReadsNewValue(t *testing.T) {
	const src = `
materialize(Out, 1, 2, keys(0,1)).
o Out(@X,Y) :- In(@X,Y), Y := Y + 1, Y > 5.
`
	full, delta := runModes(t, src, func(e *ndlog.Engine) {
		e.Insert(ndlog.NewTuple("In", ndlog.Int(1), ndlog.Int(5)))
		e.Insert(ndlog.NewTuple("In", ndlog.Int(2), ndlog.Int(4)))
		if got := e.Rows("Out"); len(got) != 1 || got[0].Args[1].Int != 6 {
			t.Errorf("mode %v: Out = %v, want exactly Out(1,6)", e.EvalMode(), got)
		}
	})
	if d := diffStreams(full, delta); d != "" {
		t.Fatalf("full and delta streams differ: %s", d)
	}
}

// reenterListener inserts a Poke from inside OnDerive of rule j — in the
// middle of j's multi-row join — the first `pokes` times it is called.
type reenterListener struct {
	ndlog.BaseListener
	e     *ndlog.Engine
	pokes int
}

func (r *reenterListener) OnDerive(_ int64, rule *ndlog.Rule, head ndlog.Tuple, _ []ndlog.Tuple, _ ndlog.Env) {
	if rule.ID == "j" && r.pokes > 0 {
		r.pokes--
		r.e.Insert(ndlog.NewTuple("Poke", head.Args[1]))
	}
}

// reentrantProgram: Ev joins L twice (rule j, four derivations per event);
// a Poke joins the 24-column Wide table with itself (rule w), so the nested
// run needs frames several times the size of j's: started from an empty
// frame stack, it reallocates the stack while j's frames are live.
func reentrantProgram() string {
	cols := func(prefix string) string {
		vs := make([]string, 24)
		for i := range vs {
			vs[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return strings.Join(vs, ",")
	}
	return fmt.Sprintf(`
materialize(L, 1, 2, keys(0,1)).
materialize(Wide, 1, 24, keys(0,1)).
materialize(Out, 1, 3, keys(0,1,2)).
materialize(Sum, 1, 3, keys(0,1,2)).
j Out(@X,Y,Z) :- Ev(@X), L(@X,Y), L(@Y,Z).
w Sum(@P0,A23,B23) :- Poke(@P0), Wide(@%s), Wide(@%s), A0 == P0, B0 == P0, G := A1 + B1.
`, cols("A"), cols("B"))
}

func TestReentrantInsertKeepsOuterFrames(t *testing.T) {
	// Written against the map-based engine (the parent of the slot-frame
	// change), where every binding was its own map and re-entrancy could
	// not alias anything. Both modes produced this stream.
	want := []string{
		"ins Ev(1)",
		"drv j Out(1,10,100) <- Ev(1);L(1,10);L(10,100)",
		"ins Poke(10)",
		"drv w Sum(10,7,7) <- Poke(10);Wide(10,1,..,7);Wide(10,1,..,7)",
		"drv w Sum(10,7,8) <- Poke(10);Wide(10,1,..,7);Wide(10,2,..,8)",
		"drv w Sum(10,8,7) <- Poke(10);Wide(10,2,..,8);Wide(10,1,..,7)",
		"drv w Sum(10,8,8) <- Poke(10);Wide(10,2,..,8);Wide(10,2,..,8)",
		"drv j Out(1,10,101) <- Ev(1);L(1,10);L(10,101)",
		"ins Poke(10)",
		"drv w Sum(10,7,7) <- Poke(10);Wide(10,1,..,7);Wide(10,1,..,7)",
		"drv w Sum(10,7,8) <- Poke(10);Wide(10,1,..,7);Wide(10,2,..,8)",
		"drv w Sum(10,8,7) <- Poke(10);Wide(10,2,..,8);Wide(10,1,..,7)",
		"drv w Sum(10,8,8) <- Poke(10);Wide(10,2,..,8);Wide(10,2,..,8)",
		"drv j Out(1,11,110) <- Ev(1);L(1,11);L(11,110)",
		"ins Poke(11)",
		"drv w Sum(11,9,9) <- Poke(11);Wide(11,1,..,9);Wide(11,1,..,9)",
		"drv j Out(1,11,111) <- Ev(1);L(1,11);L(11,111)",
	}
	for _, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
		e := ndlog.MustNewEngine(ndlog.MustParse("reenter", reentrantProgram()))
		e.SetEvalMode(mode)
		// Listeners join before the first insert; the seeding derives
		// nothing, and each round resets the stream and arms the pokes.
		sl := &streamListener{}
		re := &reenterListener{e: e}
		e.Listen(sl)
		e.Listen(re)
		for _, l := range [][2]int64{{1, 10}, {1, 11}, {10, 100}, {10, 101}, {11, 110}, {11, 111}} {
			e.Insert(ndlog.NewTuple("L", ndlog.Int(l[0]), ndlog.Int(l[1])))
		}
		for _, w := range [][3]int64{{10, 1, 7}, {10, 2, 8}, {11, 1, 9}} {
			args := make([]ndlog.Value, 24)
			args[0], args[1], args[23] = ndlog.Int(w[0]), ndlog.Int(w[1]), ndlog.Int(w[2])
			e.Insert(ndlog.NewTuple("Wide", args...))
		}
		// Round 1 starts from an empty frame stack: the nested joins grow it
		// while j's frame is live. Round 2 finds it large enough: the nested
		// frames are carved from the same array, above j's.
		for round, wantOut := range []string{"Ev(1) Out(1,10,100) Out(1,10,101) Out(1,11,110) Out(1,11,111)", "Ev(1)"} {
			sl.events, re.pokes = nil, 3
			if round == 0 {
				e.DropFrameStack()
			}
			out := e.Insert(ndlog.NewTuple("Ev", ndlog.Int(1)))
			if n := e.FrameStackSize(); n < 100 {
				t.Errorf("mode %v: frame stack holds %d slots after the nested joins; it never grew under the outer join", mode, n)
			}
			var got []string
			for _, ev := range sl.events {
				if strings.HasPrefix(ev, "ins@") || strings.HasPrefix(ev, "drv@") {
					got = append(got, compactEvent(ev))
				}
			}
			if d := diffStreams(got, want); d != "" {
				t.Errorf("mode %v round %d: stream differs from the pinned one: %s\ngot:\n  %s", mode, round, d, strings.Join(got, "\n  "))
			}
			// The outer run's own result, in join order (nothing new appears
			// the second time).
			var outs []string
			for _, tp := range out {
				outs = append(outs, tp.String())
			}
			if got := strings.Join(outs, " "); got != wantOut {
				t.Errorf("mode %v round %d: outer Insert returned %s, want %s", mode, round, got, wantOut)
			}
		}
	}
}

// compactEvent drops the timestamp and tags from a streamListener event and
// elides the 21 zero columns of a Wide tuple.
func compactEvent(ev string) string {
	ev = strings.ReplaceAll(ev, "#ffffffffffffffff", "")
	ev = strings.ReplaceAll(ev, ","+strings.Repeat("0,", 21), ",..,")
	kind, rest, _ := strings.Cut(ev, " ")
	return kind[:3] + " " + rest
}

// TestFrameAllocations: on a listener-free engine a trigger atom that fails
// on a constant carves a frame and allocates nothing, the event's row
// included; a single-atom firing off an event allocates what the fixpoint
// keeps — the head's arguments and its primary key — and neither a row, nor
// a derivation no stored row could retract, nor a map. (The map-based
// engine spent 4 and 12 to 17 objects on the same two, slot frames with a
// heap row per event 1 and 7.)
func TestFrameAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool (the delta binding sets) allocate at random")
	}
	e := ndlog.MustNewEngine(ndlog.MustParse("allocs", `
materialize(Out, 1, 2, keys(0,1)).
miss Out(@X,Y) :- Miss(@X,Y,7).
hit Out(@X,Z) :- Hit(@X,Y), Y > 0, Z := Y + 1.
`))
	for _, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
		e.SetEvalMode(mode)
		buf := make([]ndlog.Tuple, 0, 8)
		miss := ndlog.NewTuple("Miss", ndlog.Int(1), ndlog.Int(2), ndlog.Int(3))
		// Nobody listens: the event is matched from the engine's scratch row.
		if n := testing.AllocsPerRun(200, func() { buf = e.InsertInto(miss, buf[:0]) }); n > 0 {
			t.Errorf("mode %v: a trigger failing on a constant allocates %.0f objects per event, want none", mode, n)
		}
		// The same head every time: after the first run the derivation adds
		// support to the stored row, so no table or index growth is measured.
		hit := ndlog.NewTuple("Hit", ndlog.Int(1), ndlog.Int(2))
		firings := e.Stats.Firings
		if n := testing.AllocsPerRun(200, func() { buf = e.InsertInto(hit, buf[:0]) }); n > 3 {
			t.Errorf("mode %v: a single-atom firing allocates %.0f objects, want at most 3", mode, n)
		}
		if e.Stats.Firings-firings != 201 {
			t.Fatalf("mode %v: measured %d firings, want 201", mode, e.Stats.Firings-firings)
		}
	}
}
