//go:build !race

package provenance

import (
	"testing"

	"repro/internal/ndlog"
)

// A tuple the recorder has seen costs a reappearance no key, no copy and no
// map entry: at most the growth of its interval list.
func TestReappearanceAllocatesOnlyTheInterval(t *testing.T) {
	r := NewRecorder()
	tp := ndlog.NewTuple("FlowTable", ndlog.Int(3), ndlog.Int(80), ndlog.Int(2))
	tp.Key() // the engine interns the key before any listener sees the tuple
	r.OnAppear(1, tp)
	now := int64(1)
	if got := testing.AllocsPerRun(1000, func() {
		r.OnDisappear(now, tp)
		now++
		r.OnAppear(now, tp)
	}); got > 1 {
		t.Fatalf("a reappearance allocates %.1f objects, want at most the interval append", got)
	}
	if iv := r.Intervals(tp); len(iv) != 1002 || iv[0].To != 1 || iv[1001].To != -1 {
		t.Fatalf("%d intervals, first %+v last %+v", len(iv), iv[0], iv[len(iv)-1])
	}
	if got := len(r.TuplesOf("FlowTable")); got != 1 {
		t.Fatalf("TuplesOf lists the tuple %d times", got)
	}
}
