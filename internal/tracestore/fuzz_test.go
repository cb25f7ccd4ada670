package tracestore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/sdn"
	"repro/internal/trace"
)

// How a stream of binary records ends.
const (
	endClean   = "clean"   // io.EOF between records
	endTorn    = "torn"    // the input stops inside a record
	endCorrupt = "corrupt" // a whole record that does not decode
)

// decodeSlices is the reference the in-place reader is held to:
// trace.DecodeRecord applied to successive RecordSize-byte slices. good is
// the length of the intact prefix.
func decodeSlices(data []byte) (entries []trace.Entry, end string, good int64) {
	for {
		rest := data[good:]
		switch {
		case len(rest) == 0:
			return entries, endClean, good
		case len(rest) < trace.RecordSize:
			return entries, endTorn, good
		}
		e, err := trace.DecodeRecord(rest[:trace.RecordSize])
		if err != nil {
			return entries, endCorrupt, good
		}
		entries = append(entries, e)
		good += trace.RecordSize
	}
}

func endOf(err error) string {
	switch {
	case err == io.EOF: // the contract returns a clean end bare
		return endClean
	case errors.Is(err, io.ErrUnexpectedEOF):
		return endTorn
	}
	return endCorrupt
}

// readAll drains r through the binary codec.
func readAll(r *bufio.Reader) (entries []trace.Entry, end string) {
	for {
		e, err := Binary.ReadRecord(r)
		if err != nil {
			return entries, endOf(err)
		}
		entries = append(entries, e)
	}
}

// FuzzBinarySegmentRead feeds arbitrary bytes — what a segment file or an
// ingest body may hold — to the in-place reader, through buffers that
// split records at every possible offset, and to segment recovery. Both
// must see exactly what slice-by-slice decoding sees: the same entries,
// the same kind of ending, and the same intact prefix, with a torn tail
// truncated and a corrupt record refused.
func FuzzBinarySegmentRead(f *testing.F) {
	// FuzzBinaryRecord's corpus, encoded, alone and in the shapes a
	// segment takes: a run, a torn tail, a corrupt middle record.
	seeds := []trace.Entry{
		{Time: 1, SrcHost: "h1", Pkt: sdn.Packet{SrcIP: 10, DstIP: 201, SrcPort: 4000, DstPort: 80, Proto: 6}},
		{Time: -9, SrcHost: "", Pkt: sdn.Packet{SrcIP: 0, DstIP: -1, SrcPort: 1 << 40, DstPort: 53, Proto: 17}},
	}
	var run []byte
	for _, e := range append(seeds, seeds[0], seeds[0]) {
		rec, err := Binary.AppendRecord(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec, uint16(0))
		run = append(run, rec...)
	}
	f.Add(run, uint16(7))
	f.Add(run[:len(run)-31], uint16(130))
	corrupt := append([]byte(nil), run...)
	corrupt[trace.RecordSize+48] = 200 // record 1's host length
	f.Add(corrupt, uint16(1))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		want, wantEnd, good := decodeSlices(data)

		// A buffer barely larger than a record makes Peek slide and refill
		// inside records; the one-byte reader makes every refill short.
		bufSize := trace.RecordSize + int(size)%512
		for name, r := range map[string]io.Reader{
			"whole reads":    bytes.NewReader(data),
			"one-byte reads": iotest.OneByteReader(bytes.NewReader(data)),
		} {
			got, end := readAll(bufio.NewReaderSize(r, bufSize))
			if end != wantEnd || !slices.Equal(got, want) {
				t.Fatalf("%s, buffer %d: %d entries ending %s, want %d ending %s",
					name, bufSize, len(got), end, len(want), wantEnd)
			}
		}

		path := filepath.Join(t.TempDir(), "seg-00000001.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := rebuildIndex(path, 1, Binary)
		st, serr := os.Stat(path)
		if serr != nil {
			t.Fatal(serr)
		}
		if wantEnd == endCorrupt {
			if err == nil || st.Size() != int64(len(data)) {
				t.Fatalf("recovery of a corrupt record: err %v, size %d of %d; want a refusal that keeps the file", err, st.Size(), len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery of a %s segment: %v", wantEnd, err)
		}
		if info.Entries != int64(len(want)) || info.Bytes != good || st.Size() != good {
			t.Fatalf("recovery of a %s segment: %d entries, %d bytes, file %d; want %d entries and %d bytes",
				wantEnd, info.Entries, info.Bytes, st.Size(), len(want), good)
		}
	})
}

// A record that reaches the reader in two writes is one record; an input
// that ends after the first write is a torn tail.
func TestBinaryRecordInTwoWrites(t *testing.T) {
	want := testEntries(1, 5)[0]
	rec, err := Binary.AppendRecord(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.Write(rec[:50])
		pw.Write(rec[50:])
		pw.Write(rec[:50])
		pw.Close()
	}()
	r := bufio.NewReader(pr)
	if got, err := Binary.ReadRecord(r); err != nil || got != want {
		t.Fatalf("record in two writes: %+v, %v; want %+v", got, err, want)
	}
	if _, err := Binary.ReadRecord(r); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("half a record then EOF: %v, want io.ErrUnexpectedEOF", err)
	}
}

// One Append of 600 records overflows the segment writer's 64 KiB buffer
// inside record 547, so that record reaches the file in two writes — and
// the tail's read buffer, as large, refills inside it too. A following
// tail must deliver every record whole, in order, and end positioned on a
// record boundary from which a second tail resumes.
func TestTailRecordInTwoWrites(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := st.Tail(TailOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, done := follow(ctx, tl)

	want := testEntries(601, 1)
	if err := st.Append(want[:600]...); err != nil {
		t.Fatal(err)
	}
	var got []trace.Entry
	for len(got) < 600 {
		select {
		case e := <-out:
			got = append(got, e)
		case <-ctx.Done():
			t.Fatalf("timed out with %d/600 entries", len(got))
		}
	}
	if err := st.Append(want[600]); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-out:
		got = append(got, e)
	case <-ctx.Done():
		t.Fatal("timed out waiting for the record appended after catch-up")
	}
	if !slices.Equal(got, want) {
		t.Fatal("the tail delivered other entries than were appended")
	}
	segment := st.Segments()[0].ID
	resumed := st.Tail(TailOptions{From: TailPosition{Segment: segment, Offset: 546 * trace.RecordSize}})
	n, err := resumed.catchUp(func(e trace.Entry) error {
		if e != want[546+int(resumed.Entries())-1] {
			t.Errorf("resumed tail: entry %d differs", resumed.Entries())
		}
		return nil
	})
	if err != nil || n != 55 {
		t.Fatalf("resumed tail delivered %d records, %v; want 55", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if pos := tl.Position(); pos != (TailPosition{Segment: segment, Offset: 601 * trace.RecordSize}) {
		t.Fatalf("tail position %+v, want segment %d offset %d", pos, segment, 601*trace.RecordSize)
	}
}
