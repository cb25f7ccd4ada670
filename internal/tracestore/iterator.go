package tracestore

import (
	"io"
	"math"

	"repro/internal/trace"
)

// View is a time-windowed, streaming read of the store. It implements
// trace.Source, so it plugs directly into backtesting as a workload:
// segments stream through one pooled read buffer of whole records, and
// the per-segment time index skips segments outside the window — replay
// memory is that buffer, independent of trace length.
type View struct {
	st       *Store
	from, to int64
}

// Source returns an unfiltered view over the whole log.
func (s *Store) Source() *View {
	return &View{st: s, from: math.MinInt64, to: math.MaxInt64}
}

// Store returns the store the view reads, for observability (a consumer
// can report which log, and how much of it, a replay draws from).
func (v *View) Store() *Store { return v.st }

// Bounds returns the view's time window (math.MinInt64 / math.MaxInt64
// when unbounded).
func (v *View) Bounds() (from, to int64) { return v.from, v.to }

// Window restricts the view to entries with from <= Time <= to.
func (v *View) Window(from, to int64) *View {
	w := *v
	w.from, w.to = from, to
	return &w
}

// keep applies the time window to one record's timestamp.
func (v *View) keep(t int64) bool {
	return t >= v.from && t <= v.to
}

// skipSegment applies the time window to one segment's index.
func (v *View) skipSegment(si SegmentInfo) bool {
	return !si.overlapsWindow(v.from, v.to)
}

// Scan streams every entry in the window, in segment order, to fn. It
// reads a consistent snapshot — segments sealed or flushed before the
// call — that concurrent appends cannot disturb.
func (v *View) Scan(fn func(trace.Entry) error) error {
	segs, err := v.st.snapshotReadable(v.skipSegment)
	if err != nil {
		return err
	}
	defer func() {
		for _, seg := range segs {
			seg.f.Close()
		}
	}()
	codec := v.st.opts.Codec
	for _, seg := range segs {
		if err := scanSegment(seg, codec, v, fn); err != nil {
			return err
		}
	}
	return nil
}

// Count streams the view and returns how many entries it yields.
func (v *View) Count() (int64, error) {
	var n int64
	err := v.Scan(func(trace.Entry) error { n++; return nil })
	return n, err
}

// scanSegment streams one snapshot segment, bounded to the byte extent
// the snapshot recorded (concurrent appends past it are invisible).
func scanSegment(seg openSegment, codec Codec, v *View, fn func(trace.Entry) error) error {
	dec := codec.NewDecoder(io.LimitReader(seg.f, seg.info.Bytes))
	var e trace.Entry
	for {
		err := dec.Next(&e)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !v.keep(e.Time) {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}
