package tracestore

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// TailPosition locates a follow-mode reader in the log: the segment it
// is reading and the byte offset of the next record within it. The zero
// value means "the oldest record on disk".
type TailPosition struct {
	Segment uint64
	Offset  int64
}

// TailOptions configures a Tail. Zero values take the defaults.
type TailOptions struct {
	// From is the starting position (zero = oldest record on disk).
	From TailPosition
	// Poll is the fallback wake interval for stores mutated by another
	// process (default 200ms). Same-process appends wake the tail
	// immediately through the store's change broadcast; the poll only
	// bounds staleness when the broadcast cannot fire.
	Poll time.Duration
}

// Tail is a follow-mode reader: it streams records in log order as
// segments grow and rotate, then blocks until more arrive. The store
// never removes a segment, so a gap in the log is out-of-band loss. A
// tail resumed on a reopened store whose positioned segment was removed
// from disk between opens skips forward to the oldest surviving segment
// and counts the hop in Skipped; a segment file removed under a live
// store fails Follow with an error wrapping fs.ErrNotExist.
//
// A Tail reads whole records only: appends become visible record-at-a-
// time because the segment writer flushes complete encodings, and each
// catch-up pass bounds reads to the byte extent frozen by its snapshot.
type Tail struct {
	st   *Store
	pos  TailPosition
	poll time.Duration
	// doneSealed records that the positioned segment was sealed and
	// consumed to its full extent — if it then disappears, nothing was
	// lost and the hop to its successor is not a skip.
	doneSealed bool
	skipped    atomic.Int64
	entries    atomic.Int64
}

// Tail creates a follow-mode reader over the store.
func (s *Store) Tail(opts TailOptions) *Tail {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	// A zero From means "the oldest record on disk": landing on a first
	// segment with a higher ID is then by definition not a loss.
	return &Tail{st: s, pos: opts.From, poll: opts.Poll,
		doneSealed: opts.From == TailPosition{}}
}

// Position returns the tail's current position: the next record to be
// delivered starts here. Valid only between Follow calls or from within
// the callback.
func (t *Tail) Position() TailPosition { return t.pos }

// Skipped counts the segments the tail hopped over because they were
// removed from disk, out of band, before it had read them whole.
func (t *Tail) Skipped() int64 { return t.skipped.Load() }

// Entries counts records delivered to the callback.
func (t *Tail) Entries() int64 { return t.entries.Load() }

// Follow streams records to fn from the tail's position onward,
// blocking for more once caught up. It returns when ctx is cancelled
// (ctx.Err()), when fn returns an error (that error), or — after
// delivering every remaining record — when the store has been closed
// (nil). fn runs on the caller's goroutine.
func (t *Tail) Follow(ctx context.Context, fn func(trace.Entry) error) error {
	timer := time.NewTimer(t.poll)
	defer timer.Stop()
	for {
		// Grab the change channel before reading: a mutation racing the
		// catch-up pass closes this channel, so the wait below cannot
		// miss it.
		ch := t.st.changes()
		n, err := t.catchUp(fn)
		if err != nil {
			return err
		}
		if n > 0 {
			// Delivered something; go straight around for more.
			if err := ctx.Err(); err != nil {
				return err
			}
			continue
		}
		if t.st.Closed() {
			return nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(t.poll)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		case <-timer.C:
		}
	}
}

// catchUp delivers every record readable from the current position and
// advances it, returning how many were delivered.
func (t *Tail) catchUp(fn func(trace.Entry) error) (int, error) {
	segs, err := t.st.snapshotReadable(func(si SegmentInfo) bool {
		return si.ID < t.pos.Segment
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, seg := range segs {
			seg.f.Close()
		}
	}()
	codec := t.st.opts.Codec
	delivered := 0
	for _, seg := range segs {
		if seg.info.ID > t.pos.Segment {
			// The positioned segment is absent from the snapshot. Either
			// we had consumed it whole while sealed (a natural advance),
			// or it was removed from disk before we finished — skip
			// forward to the oldest survivor and count the hop.
			if !t.doneSealed {
				t.skipped.Add(1)
			}
			t.pos = TailPosition{Segment: seg.info.ID}
			t.doneSealed = false
		}
		if t.pos.Offset > seg.info.Bytes {
			// The file shrank under us (possible only through external
			// interference); treat it as lost rather than reading
			// garbage.
			t.skipped.Add(1)
			t.pos = TailPosition{Segment: seg.info.ID + 1}
			t.doneSealed = false
			continue
		}
		if t.pos.Offset < seg.info.Bytes {
			t.doneSealed = false
			n, err := t.readSegment(seg, codec, fn)
			delivered += n
			if err != nil {
				return delivered, err
			}
		}
		// Consumed to the snapshot extent. The position stays here until
		// a successor shows up; doneSealed marks that this segment is
		// sealed and read whole, so moving past it loses nothing.
		t.doneSealed = seg.info.Sealed && t.pos.Offset == seg.info.Bytes
	}
	return delivered, nil
}

// readSegment streams records from pos.Offset to the snapshot extent of
// one segment, updating the position after every record so an error or
// restart resumes exactly at the next record boundary.
func (t *Tail) readSegment(seg openSegment, codec Codec, fn func(trace.Entry) error) (int, error) {
	start := t.pos.Offset
	if _, err := seg.f.Seek(start, io.SeekStart); err != nil {
		return 0, err
	}
	dec := codec.NewDecoder(io.LimitReader(seg.f, seg.info.Bytes-start))
	delivered := 0
	var e trace.Entry
	for {
		err := dec.Next(&e)
		if err == io.EOF {
			return delivered, nil
		}
		if err != nil {
			return delivered, err
		}
		t.pos.Offset = start + dec.Consumed()
		t.entries.Add(1)
		delivered++
		if err := fn(e); err != nil {
			return delivered, err
		}
	}
}
