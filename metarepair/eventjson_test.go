package metarepair

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestAppendJSONMatchesMarshal pins the hand-rolled encoder to
// encoding/json byte for byte across randomized events, including hostile
// strings (escapes, HTML characters, invalid UTF-8, U+2028) and awkward
// float magnitudes.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	strs := []string{
		"", "explore.start", "first-accepted", "missing FlowTable(3,*,201,*,80,2)",
		"change operator == to != in r5 (Swi == 2)",
		`quote " backslash \ slash /`, "tab\tnewline\ncr\r", "ctrl\x01\x1f",
		"html <b>&amp;</b>", "unicode é 漢字 🚀", "bad utf8 \xff\xfe tail",
		"line sep \u2028 and \u2029 end", "trailing\xc3",
	}
	floats := []float64{
		0, 1, -1, 0.05, -0.000125, 1e-7, -3.5e-9, 1.5e21, -2e22, 123456.789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
	}
	times := []time.Time{
		{},
		time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
		time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.FixedZone("x", 3600)),
		time.Unix(1754650000, 999),
	}
	rng := rand.New(rand.NewSource(7))
	pick := func(n int) int { return rng.Intn(n) }
	ints := []int{0, 1, -1, 63, 4096, math.MaxInt32}
	int64s := []int64{0, 1, -7, math.MinInt64, math.MaxInt64, 1 << 40}

	var buf []byte
	for i := 0; i < 2000; i++ {
		e := Event{
			Time:        times[pick(len(times))],
			Kind:        strs[pick(len(strs))],
			Symptom:     strs[pick(len(strs))],
			Candidates:  ints[pick(len(ints))],
			Steps:       ints[pick(len(ints))],
			Filtered:    ints[pick(len(ints))],
			Dropped:     ints[pick(len(ints))],
			Batch:       ints[pick(len(ints))],
			Batches:     ints[pick(len(ints))],
			Size:        ints[pick(len(ints))],
			Parallelism: ints[pick(len(ints))],
			Strategy:    strs[pick(len(strs))],
			Index:       ints[pick(len(ints))],
			Desc:        strs[pick(len(strs))],
			Accepted:    pick(2) == 0,
			Passed:      ints[pick(len(ints))],
			KS:          floats[pick(len(floats))],
			Workers:     ints[pick(len(ints))],
			Cost:        floats[pick(len(floats))],
			Elapsed:     floats[pick(len(floats))],
			Dir:         strs[pick(len(strs))],
			Entries:     int64s[pick(len(int64s))],
			Bytes:       int64s[pick(len(int64s))],
			Segments:    ints[pick(len(ints))],
			From:        int64s[pick(len(int64s))],
			To:          int64s[pick(len(int64s))],
			Scenario:    strs[pick(len(strs))],
			Scale:       strs[pick(len(strs))],
			Span:        strs[pick(len(strs))],
			Parent:      strs[pick(len(strs))],
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		buf = e.AppendJSON(buf[:0])
		if string(buf) != string(want) {
			t.Fatalf("event %d encoding diverges:\n  AppendJSON: %s\n  Marshal:    %s\n  event: %+v",
				i, buf, want, e)
		}
	}
}

// TestAppendJSONRoundTrips confirms the encoded form decodes back into
// the same event (the consumer-side guarantee SSE clients rely on).
func TestAppendJSONRoundTrips(t *testing.T) {
	e := Event{
		Time: time.Date(2026, 8, 8, 9, 0, 0, 42, time.UTC), Kind: "suggestion",
		Index: 3, Desc: "change constant 2 in r7 (sel/0/R) to 3", Accepted: true,
		KS: 0.00796, Cost: 2.5, Elapsed: 17.25,
		Span: "batch", Parent: "backtest",
	}
	var got Event
	if err := json.Unmarshal(e.AppendJSON(nil), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !got.Time.Equal(e.Time) {
		t.Fatalf("time round trip: got %v want %v", got.Time, e.Time)
	}
	got.Time = e.Time
	if got != e {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, e)
	}
}
