package tracestore

import (
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
	endClean   = "clean"      // io.EOF between records
	endTorn    = "torn"       // the input stops inside a record
	endCorrupt = "corrupt"    // a whole record that does not decode
	endRead    = "read error" // the reader failed
)

// errRead is the failure of a reader that breaks after its data.
var errRead = errors.New("read failed")

// decodeSlices is the reference the block decoder is held to:
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
	case errors.Is(err, errRead):
		return endRead
	}
	return endCorrupt
}

// readAll drains a decoder. An ending that a second call does not repeat
// is reported as a mismatch.
func readAll(dec Decoder) (entries []trace.Entry, end string) {
	for {
		var e trace.Entry
		if err := dec.Next(&e); err != nil {
			end = endOf(err)
			if again := endOf(dec.Next(&e)); again != end {
				return entries, end + " then " + again
			}
			return entries, end
		}
		entries = append(entries, e)
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// FuzzBinarySegmentRead feeds arbitrary bytes — what a segment file or an
// ingest body may hold — to the block decoder and to segment recovery.
// The decoder reads them whole, a byte at a time, and in reads of every
// length up to two records into blocks of one to three records, so reads
// and refills split records at every offset. Every way must see exactly
// what slice-by-slice decoding sees: the same entries, the same kind of
// ending, and Consumed at the end of the intact prefix; a reader that
// fails after the data must deliver the same entries before its error.
// Recovery must truncate a torn tail and refuse a corrupt record.
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

		blockLen := (1 + int(size)%3) * trace.RecordSize
		readLen := 1 + int(size/3)%(2*trace.RecordSize)
		for _, way := range []struct {
			name string
			dec  Decoder
		}{
			{"whole reads", Binary.NewDecoder(bytes.NewReader(data))},
			{"one-byte reads", Binary.NewDecoder(iotest.OneByteReader(bytes.NewReader(data)))},
			{"data with EOF", Binary.NewDecoder(iotest.DataErrReader(bytes.NewReader(data)))},
			{"split reads", &binaryDecoder{
				r:   chunkReader{bytes.NewReader(data), readLen},
				buf: make([]byte, blockLen),
			}},
		} {
			got, end := readAll(way.dec)
			if end != wantEnd || !slices.Equal(got, want) || way.dec.Consumed() != good {
				t.Fatalf("%s (block %d, reads of %d): %d entries ending %s, consumed %d; want %d ending %s, consumed %d",
					way.name, blockLen, readLen, len(got), end, way.dec.Consumed(), len(want), wantEnd, good)
			}
		}
		// A corrupt record comes before the failure; any other ending is
		// the failure, since the data did not end there.
		brokenEnd := endRead
		if wantEnd == endCorrupt {
			brokenEnd = endCorrupt
		}
		broken := Binary.NewDecoder(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errRead)))
		got, end := readAll(broken)
		if end != brokenEnd || !slices.Equal(got, want) || broken.Consumed() != good {
			t.Fatalf("reader failing after the data: %d entries ending %s, consumed %d; want %d ending %s, consumed %d",
				len(got), end, broken.Consumed(), len(want), brokenEnd, good)
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
	dec := Binary.NewDecoder(pr)
	var got trace.Entry
	if err := dec.Next(&got); err != nil || got != want {
		t.Fatalf("record in two writes: %+v, %v; want %+v", got, err, want)
	}
	if err := dec.Next(&got); !errors.Is(err, io.ErrUnexpectedEOF) {
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
