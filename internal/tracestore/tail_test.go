package tracestore

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// follow runs t.Follow on a goroutine and returns a receive channel of
// delivered entries plus a done channel carrying Follow's result.
func follow(ctx context.Context, tl *Tail) (<-chan trace.Entry, <-chan error) {
	out := make(chan trace.Entry, 1024)
	done := make(chan error, 1)
	go func() {
		defer close(out)
		done <- tl.Follow(ctx, func(e trace.Entry) error {
			select {
			case out <- e:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	return out, done
}

// TestTailFollowsLiveAppends: a tail started on an empty store sees
// every record appended afterwards, in order, across rotations, and
// Follow returns nil once the store closes.
func TestTailFollowsLiveAppends(t *testing.T) {
	for _, codec := range []Codec{Binary, JSONL} {
		t.Run(codec.Name(), func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{Codec: codec, SegmentEntries: 7})
			if err != nil {
				t.Fatal(err)
			}
			tl := st.Tail(TailOptions{})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, done := follow(ctx, tl)

			want := testEntries(100, 1)
			for i := 0; i < len(want); i += 9 {
				end := min(i+9, len(want))
				if err := st.Append(want[i:end]...); err != nil {
					t.Fatal(err)
				}
			}
			var got []trace.Entry
			for len(got) < len(want) {
				select {
				case e := <-out:
					got = append(got, e)
				case <-ctx.Done():
					t.Fatalf("timed out with %d/%d entries", len(got), len(want))
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Follow: %v", err)
			}
			for i := range want {
				if got[i].Time != want[i].Time || got[i].SrcHost != want[i].SrcHost {
					t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
				}
			}
			if tl.Skipped() != 0 {
				t.Fatalf("skipped = %d on a store nothing removes from", tl.Skipped())
			}
		})
	}
}

// removeSegments deletes segments' data and index files from a store
// directory, as an operator or a disk fault would: out of band.
func removeSegments(t *testing.T, st *Store, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		for _, name := range []string{segmentName(id, st.Codec()), indexName(id)} {
			if err := os.Remove(filepath.Join(st.Dir(), name)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// reopen opens the store directory again with the options of a store
// already closed.
func reopen(t *testing.T, st *Store) *Store {
	t.Helper()
	st2, err := Open(st.Dir(), st.opts)
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

// TestTailStartsAtOldestSurvivor: segments removed from disk before the
// tail starts are not a skip — the zero position means "oldest on disk".
func TestTailStartsAtOldestSurvivor(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntries(20, 1)...); err != nil { // segments 0..3
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	removeSegments(t, st, 0, 1)
	st = reopen(t, st)
	tl := st.Tail(TailOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, done := follow(ctx, tl)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var got []trace.Entry
	for e := range out {
		got = append(got, e)
	}
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if len(got) != 10 || got[0].Time != 11 {
		t.Fatalf("got %d entries starting at %v, want 10 starting at 11", len(got), got)
	}
	if tl.Skipped() != 0 {
		t.Fatalf("skipped = %d, want 0 (zero position = oldest on disk)", tl.Skipped())
	}
}

// TestTailCountsLostSegments: a tail paused mid-segment, then resumed at
// its position on a reopened store whose segments 0..2 were removed
// from disk in between, skips forward to the oldest survivor and counts
// the hop.
func TestTailCountsLostSegments(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntries(20, 1)...); err != nil { // segments 0..3
		t.Fatal(err)
	}
	tl := st.Tail(TailOptions{})
	// Deliver exactly 3 records (mid-segment 0), then stop.
	stop := errors.New("pause")
	n := 0
	err = tl.Follow(context.Background(), func(trace.Entry) error {
		n++
		if n == 3 {
			return stop
		}
		return nil
	})
	if err != stop || n != 3 {
		t.Fatalf("paused follow: n=%d err=%v", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	removeSegments(t, st, 0, 1, 2)
	st = reopen(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resumed := st.Tail(TailOptions{From: tl.Position()})
	var got []trace.Entry
	if err := resumed.Follow(context.Background(), func(e trace.Entry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("Follow after loss: %v", err)
	}
	if len(got) != 5 || got[0].Time != 16 {
		t.Fatalf("got %d entries starting at %v, want segment 3's 5 entries from 16",
			len(got), got)
	}
	if resumed.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1 (the partly read segment 0)", resumed.Skipped())
	}
}

// TestTailFailsOnSegmentDeletedUnderLiveStore: a sealed segment removed
// from disk while its store is open is a fault, not a gap to skip —
// Follow returns an error wrapping fs.ErrNotExist instead of hanging or
// silently delivering around it.
func TestTailFailsOnSegmentDeletedUnderLiveStore(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testEntries(17, 1)...); err != nil { // 0..2 sealed, 3 active
		t.Fatal(err)
	}
	removeSegments(t, st, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := 0
	err = st.Tail(TailOptions{}).Follow(ctx, func(trace.Entry) error { n++; return nil })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Follow = %v after %d entries, want an error wrapping fs.ErrNotExist", err, n)
	}
	if n != 0 {
		t.Fatalf("delivered %d entries around the missing segment", n)
	}
}

// TestTailRaceRotationRetention is the append/rotation race check: one
// goroutine appends, rotating every few records, while a tail follows
// throughout. The tail must never error, must deliver every record in
// order with nothing skipped, and must reach the end of the log once the
// writer closes the store.
func TestTailRaceRotationRetention(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	want := testEntries(total, 1)

	tl := st.Tail(TailOptions{Poll: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, done := follow(ctx, tl)

	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for i := 0; i < total; i += 5 {
			end := min(i+5, total)
			if err := st.Append(want[i:end]...); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()

	var got []trace.Entry
	for len(got) < total {
		select {
		case e := <-out:
			got = append(got, e)
		case <-ctx.Done():
			t.Fatalf("timed out: %d/%d entries delivered, skipped %d", len(got), total, tl.Skipped())
		}
	}
	<-writeDone
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	for i := range want {
		if got[i].Time != want[i].Time {
			t.Fatalf("delivery %d: time %d, want %d", i, got[i].Time, want[i].Time)
		}
	}
	if tl.Skipped() != 0 {
		t.Fatalf("skipped = %d, want 0 on a store nothing removes from", tl.Skipped())
	}
}
