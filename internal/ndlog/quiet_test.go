package ndlog

// Quiet ≡ listened. An engine nobody listens to matches events from a
// scratch row, borrows an event's Args for the call and records only the
// body rows that can retract a derivation; an engine with a listener keeps
// every row on the heap because OnUnderive reports them. QuietTwin runs a
// workload through one engine of each kind and compares everything a caller
// can observe: the appearances each insert returns, the stored rows with
// their support counts, EngineStats and the per-rule counters.

import (
	"fmt"
	"reflect"
	"testing"
)

// QuietTwin is a listened engine and its listener-free twin.
type QuietTwin struct {
	BaseListener
	t           *testing.T
	label       string
	loud, quiet *Engine
	evArgs      []Value // the one buffer every quiet event insert reuses
	gone        int     // OnDisappear calls from the loud engine

	// Coverage: tuples that appeared, and tuples an insert made disappear —
	// each one a primary-key replacement or a row its cascade retracted.
	Appearances, Replaced int
}

// NewQuietTwin pairs loud, which has seen no insert yet, with a new engine
// over the same program in the same mode and strategy and no listener. The
// twin listens to loud itself, for the coverage counts.
func NewQuietTwin(t *testing.T, label string, loud *Engine) *QuietTwin {
	t.Helper()
	q, err := NewEngine(loud.prog)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	q.SetEvalMode(loud.mode)
	q.SetJoinStrategy(loud.strategy)
	w := &QuietTwin{t: t, label: label, loud: loud, quiet: q}
	loud.Listen(w)
	return w
}

func (w *QuietTwin) OnDisappear(int64, Tuple) { w.gone++ }

// Insert inserts tp into both engines and compares what appeared. The quiet
// engine gets an event's arguments in a buffer the next event overwrites,
// as the controller's PacketIn path hands them over.
func (w *QuietTwin) Insert(tp Tuple) {
	w.t.Helper()
	gone := w.gone
	qt := tp.Clone()
	if w.quiet.isEvent(tp.Table) {
		w.evArgs = append(w.evArgs[:0], tp.Args...)
		qt.Args = w.evArgs
	}
	want := refTuples(w.loud.Insert(tp.Clone()))
	got := refTuples(w.quiet.Insert(qt))
	if got != want {
		w.t.Fatalf("%s: Insert %s appeared\n  quiet    %s\n  listened %s", w.label, tp, got, want)
	}
	w.Appearances += len(want)
	w.Replaced += w.gone - gone
}

func (w *QuietTwin) Delete(tp Tuple) {
	w.loud.Delete(tp.Clone())
	w.quiet.Delete(tp.Clone())
}

// Finish compares the engines' stores and counters.
func (w *QuietTwin) Finish() {
	w.t.Helper()
	dump := func(e *Engine, name string) string {
		s := ""
		for _, r := range e.tables[name].rows {
			if !r.gone {
				s += fmt.Sprintf("%s support=%d base=%v\n", refTuple(r.Tuple), r.Support, r.Base)
			}
		}
		return s
	}
	for name := range w.loud.tables {
		if got, want := dump(w.quiet, name), dump(w.loud, name); got != want {
			w.t.Fatalf("%s: table %s\nquiet:\n%slistened:\n%s", w.label, name, got, want)
		}
	}
	if w.quiet.Stats != w.loud.Stats {
		w.t.Fatalf("%s: EngineStats quiet %+v, listened %+v", w.label, w.quiet.Stats, w.loud.Stats)
	}
	if got, want := w.quiet.RuleStats(), w.loud.RuleStats(); !reflect.DeepEqual(got, want) {
		w.t.Fatalf("%s: RuleStats quiet %+v, listened %+v", w.label, got, want)
	}
}
