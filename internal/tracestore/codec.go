// Package tracestore is the durable substrate under backtesting: an
// append-only, segmented on-disk trace log. Captured packets are encoded
// as the paper's fixed-width 120-byte log records (§5.4) — or as JSONL
// for debuggability — into numbered segment files that rotate at a size
// threshold, carry a sidecar index (entry count, time range, source
// hosts), and are replayed through a streaming iterator whose memory use
// is O(one record), independent of workload length. The log only grows:
// a sealed segment never changes, and the iterator's time window uses
// the per-segment index to skip whole segments.
package tracestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/trace"
)

// Codec encodes trace entries as on-disk records. Implementations must
// produce self-delimiting records so a segment is the plain
// concatenation of its records.
type Codec interface {
	// Name identifies the codec in segment file extensions and CLIs.
	Name() string
	// Ext is the segment file extension (".bin", ".jsonl").
	Ext() string
	// AppendRecord encodes one entry onto dst.
	AppendRecord(dst []byte, e trace.Entry) ([]byte, error)
	// ReadRecord decodes the next record from r and consumes exactly its
	// bytes. A clean end of input between records is the bare io.EOF; an
	// input that ends inside a record is an error wrapping
	// io.ErrUnexpectedEOF (a torn tail, which recovery truncates); a
	// record that cannot be decoded is any other error, and a read error
	// from r is returned as it came. After an error nothing of the failed
	// record is promised consumed. The entry owns nothing of r's buffer,
	// so it stays valid across later reads. The binary codec decodes in
	// place, so r's buffer must hold one record (bufio's default does).
	ReadRecord(r *bufio.Reader) (trace.Entry, error)
}

// Binary is the default codec: the paper's fixed-width 120-byte log
// record (§5.4), delegated to the trace package so size accounting and
// encoding share one definition.
var Binary Codec = &binaryCodec{}

// JSONL encodes one JSON object per line — a debuggable alternative
// backend readable with standard tools.
var JSONL Codec = jsonlCodec{}

// CodecByName resolves "binary" or "jsonl".
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "binary":
		return Binary, nil
	case "jsonl":
		return JSONL, nil
	}
	return nil, fmt.Errorf("tracestore: unknown codec %q (want binary or jsonl)", name)
}

// binaryCodec remembers the source host of the record it decoded last, so
// that a run of records from one host shares one string (see
// trace.DecodeRecordAfter). The memory is a hint and never part of a
// result: readers on several goroutines may overwrite each other's and
// only allocate the string they would have allocated anyway.
type binaryCodec struct {
	lastHost atomic.Pointer[string]
}

func (*binaryCodec) Name() string { return "binary" }
func (*binaryCodec) Ext() string  { return ".bin" }

func (*binaryCodec) AppendRecord(dst []byte, e trace.Entry) ([]byte, error) {
	return trace.AppendRecord(dst, e)
}

// ReadRecord decodes the record where it lies in r's buffer and then
// discards it, so a record costs no copy and, within a run of one host,
// no allocation.
func (c *binaryCodec) ReadRecord(r *bufio.Reader) (trace.Entry, error) {
	rec, err := r.Peek(trace.RecordSize)
	if err != nil {
		if err == io.EOF && len(rec) > 0 {
			err = fmt.Errorf("tracestore: torn binary record: %w", io.ErrUnexpectedEOF)
		}
		return trace.Entry{}, err
	}
	prev := ""
	if last := c.lastHost.Load(); last != nil {
		prev = *last
	}
	e, err := trace.DecodeRecordAfter(rec, prev)
	if err != nil {
		return trace.Entry{}, err
	}
	if e.SrcHost != prev {
		host := e.SrcHost // a copy, so that only a changed host reaches the heap
		c.lastHost.Store(&host)
	}
	r.Discard(trace.RecordSize) // cannot fail: Peek buffered that many bytes
	return e, nil
}

// jsonRecord is the JSONL wire shape; short keys keep lines compact.
type jsonRecord struct {
	T   int64  `json:"t"`
	H   string `json:"h"`
	SIP int64  `json:"sip"`
	DIP int64  `json:"dip"`
	SPT int64  `json:"spt"`
	DPT int64  `json:"dpt"`
	PR  int64  `json:"pr"`
}

type jsonlCodec struct{}

func (jsonlCodec) Name() string { return "jsonl" }
func (jsonlCodec) Ext() string  { return ".jsonl" }

func (jsonlCodec) AppendRecord(dst []byte, e trace.Entry) ([]byte, error) {
	line, err := json.Marshal(jsonRecord{
		T: e.Time, H: e.SrcHost,
		SIP: e.Pkt.SrcIP, DIP: e.Pkt.DstIP,
		SPT: e.Pkt.SrcPort, DPT: e.Pkt.DstPort, PR: e.Pkt.Proto,
	})
	if err != nil {
		return dst, err
	}
	dst = append(dst, line...)
	return append(dst, '\n'), nil
}

func (jsonlCodec) ReadRecord(r *bufio.Reader) (trace.Entry, error) {
	line, err := r.ReadBytes('\n')
	if err == io.EOF && len(line) == 0 {
		return trace.Entry{}, io.EOF
	}
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("tracestore: torn JSONL record: %w", io.ErrUnexpectedEOF)
		}
		return trace.Entry{}, err
	}
	var jr jsonRecord
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), &jr); err != nil {
		return trace.Entry{}, fmt.Errorf("tracestore: corrupt JSONL record: %w", err)
	}
	e := trace.Entry{Time: jr.T, SrcHost: jr.H}
	e.Pkt.SrcIP, e.Pkt.DstIP = jr.SIP, jr.DIP
	e.Pkt.SrcPort, e.Pkt.DstPort, e.Pkt.Proto = jr.SPT, jr.DPT, jr.PR
	return e, nil
}
