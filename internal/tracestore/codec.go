// Package tracestore is the durable substrate under backtesting: an
// append-only, segmented on-disk trace log. Captured packets are encoded
// as the paper's fixed-width 120-byte log records (§5.4) — or as JSONL
// for debuggability — into numbered segment files that rotate at a size
// threshold, carry a sidecar index (entry count, time range, source
// hosts), and are replayed through a streaming iterator whose memory use
// is one pooled read buffer, independent of workload length. The log
// only grows: a sealed segment never changes, and the iterator's time
// window uses the per-segment index to skip whole segments.
package tracestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

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
	// NewDecoder returns a decoder of the records r holds. Every read of
	// a segment, a tail and an ingest body goes through one.
	NewDecoder(r io.Reader) Decoder
}

// Decoder reads a stream of records in order. It reads ahead of the
// record it delivers, so once r is handed to it nothing else should
// read r.
type Decoder interface {
	// Next decodes the next record into e. A clean end of input between
	// records is the bare io.EOF; an input that ends inside a record is
	// an error wrapping io.ErrUnexpectedEOF (a torn tail, which recovery
	// truncates); a record that cannot be decoded is any other error, and
	// a read error from r is returned as it came. Each ending is reported
	// only after every whole record before it has been delivered, and
	// once reported it is returned again by every later call. The entry
	// owns nothing of the decoder's buffer, so it stays valid across
	// later calls.
	Next(e *trace.Entry) error
	// Consumed is the byte length of the records delivered so far: the
	// offset in r just past the last of them.
	Consumed() int64
}

// Binary is the default codec: the paper's fixed-width 120-byte log
// record (§5.4), delegated to the trace package so size accounting and
// encoding share one definition.
var Binary Codec = binaryCodec{}

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

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary" }
func (binaryCodec) Ext() string  { return ".bin" }

func (binaryCodec) AppendRecord(dst []byte, e trace.Entry) ([]byte, error) {
	return trace.AppendRecord(dst, e)
}

// blockRecords is how many binary records one read fills: as many whole
// records as fit in 64 KiB.
const blockRecords = (64 << 10) / trace.RecordSize

type block [blockRecords * trace.RecordSize]byte

// blocks recycles the binary decoders' read buffers, so a scan of a
// segment allocates none once the store has been read before.
var blocks = sync.Pool{New: func() any { return new(block) }}

func (binaryCodec) NewDecoder(r io.Reader) Decoder {
	b := blocks.Get().(*block)
	return &binaryDecoder{r: r, buf: b[:], pooled: b}
}

// binaryDecoder reads binary records a block of whole records at a time
// and decodes each where it lies in the block. It gives every source host
// one string per decoder: a trace is runs of packets from one host, so
// the previous host is checked first and a map of the hosts seen so far
// second.
type binaryDecoder struct {
	r io.Reader
	// buf is the block records are read into; recs is the part of it not
	// yet delivered, always whole records.
	buf, recs []byte
	// pooled is buf's pool entry, nil once returned or for a buffer that
	// is not the pool's.
	pooled *block
	// end is the ending the input has reached, reported once recs runs
	// out.
	end      error
	consumed int64
	last     string
	hosts    map[string]string
}

func (d *binaryDecoder) Consumed() int64 { return d.consumed }

func (d *binaryDecoder) Next(e *trace.Entry) error {
	if len(d.recs) == 0 {
		if err := d.fill(); err != nil {
			return err
		}
	}
	host, err := trace.DecodeRecordFields(d.recs[:trace.RecordSize], e)
	if err != nil {
		d.recs, d.end = nil, err
		d.release()
		return err
	}
	e.SrcHost = d.intern(host)
	d.recs = d.recs[trace.RecordSize:]
	d.consumed += trace.RecordSize
	return nil
}

// fill reads the next block. Short reads are read on from, so a block
// ends early only where the input does; the bytes of a record cut short
// there are the torn tail. Once no record is left, the ending is returned
// and the block goes back to the pool.
func (d *binaryDecoder) fill() error {
	if d.end == nil {
		n := 0
		for n < len(d.buf) && d.end == nil {
			var m int
			m, d.end = d.r.Read(d.buf[n:])
			n += m
		}
		whole := n - n%trace.RecordSize
		if d.end == io.EOF && whole != n {
			d.end = fmt.Errorf("tracestore: torn binary record: %w", io.ErrUnexpectedEOF)
		}
		d.recs = d.buf[:whole]
		if whole > 0 {
			return nil
		}
	}
	d.release()
	return d.end
}

// release returns the read buffer to the pool once the input has ended.
func (d *binaryDecoder) release() {
	if d.pooled != nil {
		blocks.Put(d.pooled)
		d.pooled = nil
	}
	d.buf = nil
}

// intern returns the one string this decoder keeps for host, making it on
// first sight. The map stops growing at MaxIndexedHosts entries, the
// bound of a segment's host index; past it, new hosts each get a string.
func (d *binaryDecoder) intern(host []byte) string {
	if string(host) == d.last { // conversions in comparisons and map lookups do not allocate
		return d.last
	}
	s, ok := d.hosts[string(host)]
	if !ok {
		s = string(host)
		if d.hosts == nil {
			d.hosts = make(map[string]string)
		}
		if len(d.hosts) < MaxIndexedHosts {
			d.hosts[s] = s
		}
	}
	d.last = s
	return s
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

func (jsonlCodec) NewDecoder(r io.Reader) Decoder {
	return &jsonlDecoder{r: bufio.NewReader(r)}
}

// jsonlDecoder reads one line per record.
type jsonlDecoder struct {
	r        *bufio.Reader
	end      error
	consumed int64
}

func (d *jsonlDecoder) Consumed() int64 { return d.consumed }

func (d *jsonlDecoder) Next(e *trace.Entry) error {
	if d.end != nil {
		return d.end
	}
	line, err := d.r.ReadBytes('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		d.end = io.EOF
	case err == io.EOF:
		d.end = fmt.Errorf("tracestore: torn JSONL record: %w", io.ErrUnexpectedEOF)
	case err != nil:
		d.end = err
	}
	if d.end != nil {
		return d.end
	}
	var jr jsonRecord
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), &jr); err != nil {
		d.end = fmt.Errorf("tracestore: corrupt JSONL record: %w", err)
		return d.end
	}
	*e = trace.Entry{Time: jr.T, SrcHost: jr.H}
	e.Pkt.SrcIP, e.Pkt.DstIP = jr.SIP, jr.DIP
	e.Pkt.SrcPort, e.Pkt.DstPort, e.Pkt.Proto = jr.SPT, jr.DPT, jr.PR
	d.consumed += int64(len(line))
	return nil
}
