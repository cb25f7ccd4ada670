package trace

import (
	"encoding/binary"
	"fmt"
)

// RecordSize is the fixed on-disk size of one binary log record: the
// paper's 120-byte format (§5.4) — an 8-byte timestamp, the five 8-byte
// header fields, a length-prefixed 64-byte source-host field, and an
// 8-byte reserved tail.
const RecordSize = 120

// MaxHostLen is the longest source-host ID a binary record can carry.
const MaxHostLen = 63

const (
	recTime    = 0
	recSrcIP   = 8
	recDstIP   = 16
	recSrcPort = 24
	recDstPort = 32
	recProto   = 40
	recHostLen = 48
	recHost    = 49
	recTail    = recHost + MaxHostLen // 8 reserved bytes, zeroed
)

// AppendRecord encodes one entry as a fixed-width binary record onto dst.
// Tags are a backtesting artifact and are not persisted. It fails if the
// source-host ID exceeds MaxHostLen bytes.
func AppendRecord(dst []byte, e Entry) ([]byte, error) {
	if len(e.SrcHost) > MaxHostLen {
		return dst, fmt.Errorf("trace: host ID %q exceeds %d bytes", e.SrcHost, MaxHostLen)
	}
	var rec [RecordSize]byte
	binary.BigEndian.PutUint64(rec[recTime:], uint64(e.Time))
	binary.BigEndian.PutUint64(rec[recSrcIP:], uint64(e.Pkt.SrcIP))
	binary.BigEndian.PutUint64(rec[recDstIP:], uint64(e.Pkt.DstIP))
	binary.BigEndian.PutUint64(rec[recSrcPort:], uint64(e.Pkt.SrcPort))
	binary.BigEndian.PutUint64(rec[recDstPort:], uint64(e.Pkt.DstPort))
	binary.BigEndian.PutUint64(rec[recProto:], uint64(e.Pkt.Proto))
	rec[recHostLen] = byte(len(e.SrcHost))
	copy(rec[recHost:], e.SrcHost)
	return append(dst, rec[:]...), nil
}

// DecodeRecord decodes one fixed-width binary record. It reads rec in
// place and keeps no reference to it: every field of the entry is a value
// and SrcHost is a string of its own, so the caller may reuse rec's
// memory as soon as the call returns.
func DecodeRecord(rec []byte) (Entry, error) {
	var e Entry
	host, err := DecodeRecordFields(rec, &e)
	if err != nil {
		return Entry{}, err
	}
	e.SrcHost = string(host)
	return e, nil
}

// DecodeRecordFields decodes every field of a binary record but the
// source host into e, leaving e.SrcHost as it was, and returns the host's
// bytes where they lie in rec. A reader of many records decodes through
// it so that it can give equal hosts one string; the returned slice
// aliases rec.
func DecodeRecordFields(rec []byte, e *Entry) (host []byte, err error) {
	if len(rec) < RecordSize {
		return nil, fmt.Errorf("trace: short record (%d of %d bytes)", len(rec), RecordSize)
	}
	n := int(rec[recHostLen])
	if n > MaxHostLen {
		return nil, fmt.Errorf("trace: corrupt record: host length %d", n)
	}
	// Field by field: a composite literal is built on the stack and
	// copied, and the copy's wide loads stall on the narrow stores.
	e.Time = int64(binary.BigEndian.Uint64(rec[recTime:]))
	e.Pkt.SrcIP = int64(binary.BigEndian.Uint64(rec[recSrcIP:]))
	e.Pkt.DstIP = int64(binary.BigEndian.Uint64(rec[recDstIP:]))
	e.Pkt.SrcPort = int64(binary.BigEndian.Uint64(rec[recSrcPort:]))
	e.Pkt.DstPort = int64(binary.BigEndian.Uint64(rec[recDstPort:]))
	e.Pkt.Proto = int64(binary.BigEndian.Uint64(rec[recProto:]))
	e.Pkt.Tags = 0
	return rec[recHost : recHost+n], nil
}
