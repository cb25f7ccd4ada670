package tracestore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/trace"
)

// MaxIndexedHosts bounds the per-segment host index; a segment touched
// by more distinct hosts records none (HostsOverflow).
const MaxIndexedHosts = 512

// SegmentInfo describes one segment of the log.
type SegmentInfo struct {
	// ID orders segments; replay visits segments in ascending ID.
	ID uint64 `json:"id"`
	// Entries is the record count.
	Entries int64 `json:"entries"`
	// Bytes is the segment file's real on-disk size.
	Bytes int64 `json:"bytes"`
	// MinTime and MaxTime bound the record timestamps (the time index).
	MinTime int64 `json:"min_time"`
	MaxTime int64 `json:"max_time"`
	// Hosts are the distinct source hosts, sorted (the host index); nil
	// with HostsOverflow set when more than MaxIndexedHosts appear.
	Hosts         []string `json:"hosts,omitempty"`
	HostsOverflow bool     `json:"hosts_overflow,omitempty"`
	// Sealed segments are immutable; only the newest segment accepts
	// appends.
	Sealed bool `json:"-"`

	path string
}

// Path returns the segment file's location.
func (si SegmentInfo) Path() string { return si.path }

// overlapsWindow consults the time index.
func (si SegmentInfo) overlapsWindow(from, to int64) bool {
	if si.Entries == 0 {
		return false
	}
	return si.MaxTime >= from && si.MinTime <= to
}

func segmentName(id uint64, c Codec) string { return fmt.Sprintf("seg-%08d%s", id, c.Ext()) }
func indexName(id uint64) string            { return fmt.Sprintf("seg-%08d.idx", id) }

// segmentWriter is the active (unsealed) segment.
type segmentWriter struct {
	f       *os.File
	w       *bufio.Writer
	scratch []byte
	info    SegmentInfo
	hosts   map[string]struct{}
}

func newSegmentWriter(dir string, id uint64, c Codec) (*segmentWriter, error) {
	path := filepath.Join(dir, segmentName(id, c))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &segmentWriter{
		f: f, w: bufio.NewWriterSize(f, 64<<10),
		info:  SegmentInfo{ID: id, MinTime: math.MaxInt64, MaxTime: math.MinInt64, path: path},
		hosts: make(map[string]struct{}),
	}, nil
}

func (sw *segmentWriter) append(c Codec, e trace.Entry) error {
	rec, err := c.AppendRecord(sw.scratch[:0], e)
	if err != nil {
		return err
	}
	sw.scratch = rec[:0]
	if _, err := sw.w.Write(rec); err != nil {
		return err
	}
	sw.info.Entries++
	sw.info.Bytes += int64(len(rec))
	if e.Time < sw.info.MinTime {
		sw.info.MinTime = e.Time
	}
	if e.Time > sw.info.MaxTime {
		sw.info.MaxTime = e.Time
	}
	if !sw.info.HostsOverflow {
		sw.hosts[e.SrcHost] = struct{}{}
		if len(sw.hosts) > MaxIndexedHosts {
			sw.info.HostsOverflow = true
			sw.hosts = nil
		}
	}
	return nil
}

func (sw *segmentWriter) flush() error { return sw.w.Flush() }

func (sw *segmentWriter) sync() error {
	if err := sw.w.Flush(); err != nil {
		return err
	}
	return sw.f.Sync()
}

// seal flushes, fsyncs, records the real file size, writes the sidecar
// index, and closes the file. The returned info is immutable from here.
func (sw *segmentWriter) seal(dir string) (SegmentInfo, error) {
	if err := sw.sync(); err != nil {
		return SegmentInfo{}, err
	}
	st, err := sw.f.Stat()
	if err != nil {
		return SegmentInfo{}, err
	}
	sw.info.Bytes = st.Size()
	if err := sw.f.Close(); err != nil {
		return SegmentInfo{}, err
	}
	info := sw.info
	if !info.HostsOverflow {
		info.Hosts = sortedHosts(sw.hosts)
	}
	if info.Entries == 0 {
		info.MinTime, info.MaxTime = 0, 0
	}
	info.Sealed = true
	if err := writeIndex(dir, info); err != nil {
		return SegmentInfo{}, err
	}
	return info, nil
}

// snapshotInfo is the active segment's current metadata, for readers
// that stream while capture is still running. It leaves Hosts nil:
// sorting the host set is work only Segments' callers want.
func (sw *segmentWriter) snapshotInfo() SegmentInfo {
	info := sw.info
	if info.Entries == 0 {
		info.MinTime, info.MaxTime = 0, 0
	}
	return info
}

func sortedHosts(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// writeIndex persists the sidecar index atomically (tmp + rename).
func writeIndex(dir string, info SegmentInfo) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, indexName(info.ID))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readIndex(dir string, id uint64) (SegmentInfo, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexName(id)))
	if err != nil {
		return SegmentInfo{}, err
	}
	var info SegmentInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return SegmentInfo{}, err
	}
	info.Sealed = true
	return info, nil
}

// rebuildIndex scans a segment file to reconstruct its metadata — the
// recovery path for segments whose sidecar index is missing (e.g. the
// active segment of a crashed process). A torn final record is truncated
// away: everything before it is intact because records are appended
// whole.
func rebuildIndex(path string, id uint64, c Codec) (SegmentInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	defer f.Close()
	info := SegmentInfo{ID: id, MinTime: math.MaxInt64, MaxTime: math.MinInt64, path: path}
	hosts := make(map[string]struct{})
	dec := c.NewDecoder(f)
	var e trace.Entry
	for {
		err := dec.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only a torn tail — a record cut short by a crash
			// mid-append — is safely repairable by truncating to the
			// intact prefix. Any other failure (corrupt record mid-file,
			// transient I/O error) still has data behind it; destroying
			// that would turn one bad byte into a lost segment, so
			// recovery refuses and surfaces the error instead.
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				return SegmentInfo{}, fmt.Errorf("tracestore: segment %s corrupt at offset %d: %w", path, dec.Consumed(), err)
			}
			if terr := os.Truncate(path, dec.Consumed()); terr != nil {
				return SegmentInfo{}, fmt.Errorf("tracestore: truncating torn segment %s: %v (after %v)", path, terr, err)
			}
			break
		}
		info.Entries++
		if e.Time < info.MinTime {
			info.MinTime = e.Time
		}
		if e.Time > info.MaxTime {
			info.MaxTime = e.Time
		}
		if !info.HostsOverflow {
			hosts[e.SrcHost] = struct{}{}
			if len(hosts) > MaxIndexedHosts {
				info.HostsOverflow = true
				hosts = nil
			}
		}
	}
	info.Bytes = dec.Consumed()
	if !info.HostsOverflow {
		info.Hosts = sortedHosts(hosts)
	}
	if info.Entries == 0 {
		info.MinTime, info.MaxTime = 0, 0
	}
	return info, nil
}
