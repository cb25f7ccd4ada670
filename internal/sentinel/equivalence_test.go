package sentinel_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/scenario"
)

// TestOnlineOfflineEquivalence is the detection-equivalence property:
// across all five case studies and several window shapes, the windowed
// online detector (incremental ring buckets, presence counters, stream
// clock) must flag exactly the same windows — same bounds, same counts,
// same order — as the brute-force offline oracle that replays the full
// trace once and evaluates every window independently from recorded
// timelines.
func TestOnlineOfflineEquivalence(t *testing.T) {
	shapes := []sentinel.Config{
		{Window: 64},
		{Window: 256, Hop: 64},
		{Window: 1024, Hop: 256},
		{Window: 512, Hop: 512, Debounce: -1},
	}
	scale := scenario.Scale{Switches: 19, Flows: 200}
	for _, spec := range scenario.Default().Specs() {
		name, s := spec.Name, spec.MustInstantiate(scale)
		stream := timeSorted(s.Workload)
		pred := sentinel.Predicate{Name: name, Goal: s.Goal}
		anyFlag := false
		for _, cfg := range shapes {
			t.Run(fmt.Sprintf("%s/w%d.h%d", name, cfg.Window, cfg.Hop), func(t *testing.T) {
				online := runOnline(t, s, cfg, pred, stream)
				offline, err := sentinel.Offline(s.Prog, s.BuildNet(), s.State, cfg,
					[]sentinel.Predicate{pred}, stream)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(online, offline) {
					t.Fatalf("online ≠ offline\nonline  (%d): %+v\noffline (%d): %+v",
						len(online), online, len(offline), offline)
				}
				if len(online) > 0 {
					anyFlag = true
				}
			})
		}
		if !anyFlag {
			t.Errorf("%s: no window shape flagged the (buggy) scenario at all", name)
		}
	}
}

func runOnline(t *testing.T, s *scenario.Scenario, cfg sentinel.Config, pred sentinel.Predicate, stream []trace.Entry) []sentinel.Detection {
	t.Helper()
	det, err := sentinel.NewDetector(cfg, pred)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sentinel.NewMonitor(s.Prog, s.BuildNet(), s.State, det)
	if err != nil {
		t.Fatal(err)
	}
	var out []sentinel.Detection
	for _, e := range stream {
		out = append(out, mon.Feed(e)...)
	}
	return append(out, mon.Flush()...)
}

// timeSorted rebuilds the stream as a live capture would deliver it:
// time-ordered arrival. Generated workloads concatenate independently
// clocked sub-traces (symptom flows, then background), so the raw slice
// interleaves timestamps; a stable sort merges them without disturbing
// the relative order of same-tick entries.
func timeSorted(entries []trace.Entry) []trace.Entry {
	out := append([]trace.Entry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
