package tracestore

import (
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/sdn"
	"repro/internal/trace"
)

func testEntries(n int, startTime int64) []trace.Entry {
	out := make([]trace.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, trace.Entry{
			Time:    startTime + int64(i),
			SrcHost: []string{"h1", "h2", "h3"}[i%3],
			Pkt: sdn.Packet{
				SrcIP: int64(i % 7), DstIP: 201, SrcPort: int64(1024 + i),
				DstPort: 80, Proto: 6,
			},
		})
	}
	return out
}

func collect(t *testing.T, v *View) []trace.Entry {
	t.Helper()
	var out []trace.Entry
	if err := v.Scan(func(e trace.Entry) error { out = append(out, e); return nil }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestAppendScanRoundTripBothCodecs(t *testing.T) {
	for _, codec := range []Codec{Binary, JSONL} {
		t.Run(codec.Name(), func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{Codec: codec, SegmentEntries: 50})
			if err != nil {
				t.Fatal(err)
			}
			want := testEntries(173, 1)
			if err := st.Append(want...); err != nil {
				t.Fatal(err)
			}
			got := collect(t, st.Source())
			if len(got) != len(want) {
				t.Fatalf("scanned %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCodecPropertyRoundTrip is the randomized encode→decode property
// test over both store backends: arbitrary entries survive a trip
// through the store losslessly and in order.
func TestCodecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hosts := []string{"", "h", "edge-01", "a-fairly-long-host-name-under-the-63-byte-codec-limit-000000"}
	var want []trace.Entry
	for i := 0; i < 500; i++ {
		want = append(want, trace.Entry{
			Time:    rng.Int63() - rng.Int63(),
			SrcHost: hosts[rng.Intn(len(hosts))],
			Pkt: sdn.Packet{
				SrcIP: rng.Int63() - rng.Int63(), DstIP: rng.Int63() - rng.Int63(),
				SrcPort: rng.Int63() - rng.Int63(), DstPort: rng.Int63() - rng.Int63(),
				Proto: rng.Int63() - rng.Int63(),
			},
		})
	}
	for _, codec := range []Codec{Binary, JSONL} {
		t.Run(codec.Name(), func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{Codec: codec, SegmentEntries: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(want...); err != nil {
				t.Fatal(err)
			}
			got := collect(t, st.Source())
			if len(got) != len(want) {
				t.Fatalf("scanned %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRotationAndSegmentIndex(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntries(100, 1000)...); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	if len(segs) != 3 { // 40 + 40 + 20(active)
		t.Fatalf("segments = %d, want 3", len(segs))
	}
	if !segs[0].Sealed || !segs[1].Sealed || segs[2].Sealed {
		t.Fatalf("seal states wrong: %+v", segs)
	}
	if segs[0].MinTime != 1000 || segs[0].MaxTime != 1039 {
		t.Fatalf("segment 0 time index = [%d,%d]", segs[0].MinTime, segs[0].MaxTime)
	}
	if len(segs[0].Hosts) != 3 {
		t.Fatalf("segment 0 hosts = %v", segs[0].Hosts)
	}
	if segs[0].Bytes != 40*trace.RecordSize {
		t.Fatalf("segment 0 bytes = %d", segs[0].Bytes)
	}
	st.Close()
}

func TestReopenSealsAndPreserves(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentEntries: 30})
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(75, 1)
	if err := st.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{SegmentEntries: 30})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, st2.Source())
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d entries, want %d", len(got), len(want))
	}
	// New appends land in a fresh segment with a higher ID.
	if err := st2.Append(testEntries(5, 1000)...); err != nil {
		t.Fatal(err)
	}
	segs := st2.Segments()
	last := segs[len(segs)-1]
	if last.Sealed || last.ID <= segs[len(segs)-2].ID {
		t.Fatalf("new active segment wrong: %+v", segs)
	}
	st2.Close()
}

func TestRecoveryTruncatesTornRecord(t *testing.T) {
	for _, codec := range []Codec{Binary, JSONL} {
		t.Run(codec.Name(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(testEntries(10, 1)...); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash mid-append: no Close (no sidecar index),
			// and a torn final record.
			segs := st.Segments()
			path := segs[0].Path()
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-7); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir, Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, st2.Source())
			if len(got) != 9 {
				t.Fatalf("recovered %d entries, want 9", len(got))
			}
			st2.Close()
		})
	}
}

func TestRecoveryRefusesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntries(10, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	path := st.Segments()[0].Path()
	// Flip record 4's host-length byte: corruption in the middle of the
	// file, with intact records behind it. Recovery must refuse rather
	// than truncate those records away.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{200}, 4*trace.RecordSize+48); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-file corruption silently truncated")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 10*trace.RecordSize {
		t.Fatalf("segment was modified: size %d err %v", fi.Size(), err)
	}
}

func TestOpenRejectsCodecMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Codec: JSONL})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(testEntries(1, 1)...)
	st.Close()
	if _, err := Open(dir, Options{Codec: Binary}); err == nil {
		t.Fatal("codec mismatch accepted")
	}
}

func TestViewWindowAndHostFilters(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 25})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntries(100, 1)...); err != nil {
		t.Fatal(err)
	}
	// Time window.
	got := collect(t, st.Source().Window(10, 19))
	if len(got) != 10 {
		t.Fatalf("windowed entries = %d, want 10", len(got))
	}
	for _, e := range got {
		if e.Time < 10 || e.Time > 19 {
			t.Fatalf("entry outside window: %+v", e)
		}
	}
	// Disjoint window: skipped via the time index.
	n, err := st.Source().Window(10_000, 20_000).Count()
	if err != nil || n != 0 {
		t.Fatalf("disjoint window entries = %d err = %v", n, err)
	}
	st.Close()
}

func TestConcurrentCaptureAndScan(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.CapturePacket("h1", sdn.Packet{SrcIP: int64(w), DstIP: int64(i), DstPort: 80})
				if i%50 == 0 {
					// Readers race appends: they must see whole records.
					if _, err := st.Source().Count(); err != nil {
						t.Errorf("concurrent scan: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if rec.Count() != workers*per {
		t.Fatalf("captured %d, want %d", rec.Count(), workers*per)
	}
	n, err := st.Source().Count()
	if err != nil || n != workers*per {
		t.Fatalf("scanned %d err = %v", n, err)
	}
	st.Close()
}

func TestStatsAggregates(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 30})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(testEntries(70, 5)...)
	s := st.Stats()
	if s.Entries != 70 || s.Segments != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinTime != 5 || s.MaxTime != 74 {
		t.Fatalf("time range = [%d,%d]", s.MinTime, s.MaxTime)
	}
	if s.Bytes != 70*trace.RecordSize {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	st.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.Append(testEntries(1, 1)...); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// The active segment's host list is built for Segments, its one reader,
// and is sorted like a sealed segment's.
func TestSegmentsListsActiveHosts(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testEntries(6, 0)...); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	if len(segs) != 2 || segs[1].Sealed {
		t.Fatalf("segments %+v, want one sealed and the active one", segs)
	}
	if got := segs[1].Hosts; !slices.Equal(got, []string{"h2", "h3"}) {
		t.Fatalf("active segment hosts %v, want [h2 h3]", got)
	}
	if s := st.Stats(); s.Entries != 6 || s.Segments != 2 || s.MinTime != 0 || s.MaxTime != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

// A scan allocates per segment, never per record: a sealed two-segment
// store of 50 000 records costs what one of 2 000 does, with the source
// host changing at every record.
func TestScanAllocationsDoNotGrowWithTheTrace(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	allocs := func(n int) float64 {
		st, err := Open(t.TempDir(), Options{SegmentEntries: n / 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(testEntries(n, 0)...); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if segs := st.Segments(); len(segs) != 2 {
			t.Fatalf("%d records in %d segments, want 2", n, len(segs))
		}
		src := st.Source()
		if got, err := src.Count(); err != nil || got != int64(n) {
			t.Fatalf("scanned %d of %d records: %v", got, n, err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := src.Scan(func(trace.Entry) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(50000)
	if small != large {
		t.Fatalf("a scan allocates %v times at 2 000 records and %v at 50 000", small, large)
	}
	t.Logf("%v allocations per scan", small)
}
