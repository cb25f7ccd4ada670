package sentinel

import (
	"math"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
)

// Offline computes the flagged windows of a full trace by brute force:
// one complete replay records every trigger time and every presence
// change, then each window is evaluated independently by scanning the
// recorded timelines. It shares no windowing machinery with Detector —
// no rings, no hop clock — which is what makes it a meaningful oracle
// for the online≡offline equivalence property: Detector must flag
// exactly the windows Offline does, on any non-decreasing stream.
//
// It evaluates the same window range the online path does: windows
// ending at each hop bucket from the first entry's bucket through the
// last entry's bucket (Detector evaluates these via Advance plus the
// final Flush).
func Offline(prog *ndlog.Program, net *sdn.Network, state []ndlog.Tuple,
	cfg Config, preds []Predicate, entries []trace.Entry) ([]Detection, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	type timeline struct {
		p        Predicate
		kind     string
		triggers []int64 // times of trigger packets, ascending
		deltas   []struct {
			time  int64 // entry time when presence changed
			delta int64
		}
		seed int64 // presence established during state seeding
	}
	lines := make([]*timeline, 0, len(preds))
	for _, p := range preds {
		if err := p.validate(); err != nil {
			return nil, err
		}
		kind := "missing"
		if p.Present != nil {
			kind = "present"
		}
		lines = append(lines, &timeline{p: p, kind: kind})
	}

	eng, err := ndlog.NewEngine(prog)
	if err != nil {
		return nil, err
	}
	// Replay once, recording the timelines. now tracks the stream time a
	// presence change is attributed to; changes before the first entry
	// (state seeding) count as seed presence, in force for every window.
	now := int64(math.MinInt64)
	seeding := true
	record := func(t ndlog.Tuple, delta int64) {
		for _, tl := range lines {
			match := false
			if tl.kind == "missing" {
				match = matchesGoal(tl.p.Goal, t)
			} else {
				match = matchesTuple(tl.p.Present, t)
			}
			if !match {
				continue
			}
			if seeding {
				tl.seed += delta
			} else {
				tl.deltas = append(tl.deltas, struct {
					time  int64
					delta int64
				}{now, delta})
			}
		}
	}
	eng.Listen(recorderListener{record: record})
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	for _, st := range state {
		ctl.InsertState(net, st)
	}
	seeding = false
	for _, e := range entries {
		now = e.Time
		for _, tl := range lines {
			if tl.p.Trigger(e) {
				tl.triggers = append(tl.triggers, e.Time)
			}
		}
		p := e.Pkt
		p.Tags = 1
		net.Inject(e.SrcHost, p)
	}
	if len(entries) == 0 {
		return nil, nil
	}

	bucketOf := func(t int64) int64 {
		b := t / cfg.Hop
		if t < 0 && t%cfg.Hop != 0 {
			b--
		}
		return b
	}
	k := cfg.Window / cfg.Hop
	first := bucketOf(entries[0].Time)
	last := bucketOf(entries[len(entries)-1].Time)

	var out []Detection
	lastTo := make([]int64, len(lines))
	for i := range lastTo {
		lastTo[i] = math.MinInt64
	}
	for b := first; b <= last; b++ {
		from := (b - k + 1) * cfg.Hop
		to := (b+1)*cfg.Hop - 1
		for i, tl := range lines {
			// Triggers in [from, to], by binary search over the sorted
			// trigger times.
			lo := sort.Search(len(tl.triggers), func(j int) bool { return tl.triggers[j] >= from })
			hi := sort.Search(len(tl.triggers), func(j int) bool { return tl.triggers[j] > to })
			trig := int64(hi - lo)
			// Presence at window close: seed plus every change
			// attributed to a time <= to.
			present := tl.seed
			for _, d := range tl.deltas {
				if d.time > to {
					break
				}
				present += d.delta
			}
			flag := false
			if tl.kind == "missing" {
				flag = trig >= tl.p.MinTriggers && present == 0
			} else {
				flag = present >= 1
			}
			if !flag {
				continue
			}
			if lastTo[i] != math.MinInt64 && from <= lastTo[i]+cfg.Debounce {
				continue
			}
			lastTo[i] = to
			out = append(out, Detection{
				Predicate: tl.p.Name, Kind: tl.kind,
				From: from, To: to, Triggers: trig, Present: present,
			})
		}
	}
	return out, nil
}

type recorderListener struct {
	ndlog.BaseListener
	record func(t ndlog.Tuple, delta int64)
}

func (l recorderListener) OnAppear(_ int64, t ndlog.Tuple)    { l.record(t, 1) }
func (l recorderListener) OnDisappear(_ int64, t ndlog.Tuple) { l.record(t, -1) }
