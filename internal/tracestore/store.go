package tracestore

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// Options configures a store. Zero values take the defaults.
type Options struct {
	// Codec selects the record encoding (default Binary — the §5.4
	// 120-byte format). A store directory holds one codec; reopening
	// with a different one fails.
	Codec Codec
	// SegmentEntries rotates the active segment after this many records
	// (default 65536).
	SegmentEntries int
	// SegmentBytes rotates the active segment after this many bytes
	// (default 8 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.Codec == nil {
		o.Codec = Binary
	}
	if o.SegmentEntries <= 0 {
		o.SegmentEntries = 1 << 16
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Store is an append-only, segmented on-disk trace log. Appends go to
// the active segment, which seals (index sidecar + fsync) when it
// reaches the rotation thresholds; sealed segments never change and are
// the unit of index-based skipping. A Store is safe for concurrent use;
// readers obtained from Source observe a consistent prefix of the log.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	sealed []SegmentInfo // ascending ID
	active *segmentWriter
	nextID uint64
	closed bool
	// rotations counts seals performed by this process (threshold
	// rotations and the Close seal) — unlike Segments it excludes
	// segments recovered from disk, so it is the metric that tracks live
	// rotation activity.
	rotations int64
	// watch is the edge-triggered change broadcast backing follow-mode
	// readers: closed (and replaced lazily) whenever the readable extent
	// of the log changes. nil until someone asks.
	watch chan struct{}
}

var segmentRe = regexp.MustCompile(`^seg-(\d{8})\.(bin|jsonl)$`)

// Open creates or reopens a store directory. Every segment found on
// disk is sealed — missing or stale indexes are rebuilt by scanning the
// segment, truncating a torn final record if the previous process died
// mid-append — and new appends start a fresh segment.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opts: opts}
	for _, de := range names {
		m := segmentRe.FindStringSubmatch(de.Name())
		if m == nil {
			continue
		}
		if ext := "." + m[2]; ext != opts.Codec.Ext() {
			return nil, fmt.Errorf("tracestore: %s holds %s segments but codec %s was requested",
				dir, ext, opts.Codec.Name())
		}
		id, _ := strconv.ParseUint(m[1], 10, 64)
		path := filepath.Join(dir, de.Name())
		info, err := readIndex(dir, id)
		if err != nil || !indexMatchesFile(info, path) {
			info, err = rebuildIndex(path, id, opts.Codec)
			if err != nil {
				return nil, fmt.Errorf("tracestore: recovering segment %s: %w", path, err)
			}
			info.Sealed = true
			if err := writeIndex(dir, info); err != nil {
				return nil, err
			}
		}
		info.path = path
		st.sealed = append(st.sealed, info)
		if id >= st.nextID {
			st.nextID = id + 1
		}
	}
	sort.Slice(st.sealed, func(i, j int) bool { return st.sealed[i].ID < st.sealed[j].ID })
	return st, nil
}

// indexMatchesFile rejects a sidecar index that disagrees with the
// segment's real size (a crash between append and seal).
func indexMatchesFile(info SegmentInfo, path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Size() == info.Bytes
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Codec returns the store's record codec.
func (s *Store) Codec() Codec { return s.opts.Codec }

// Append encodes the entries onto the active segment, rotating it
// whenever a threshold is crossed.
func (s *Store) Append(entries ...trace.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("tracestore: store %s is closed", s.dir)
	}
	for _, e := range entries {
		if s.active == nil {
			sw, err := newSegmentWriter(s.dir, s.nextID, s.opts.Codec)
			if err != nil {
				return err
			}
			s.nextID++
			s.active = sw
		}
		if err := s.active.append(s.opts.Codec, e); err != nil {
			return err
		}
		if s.active.info.Entries >= int64(s.opts.SegmentEntries) ||
			s.active.info.Bytes >= s.opts.SegmentBytes {
			if err := s.sealActiveLocked(); err != nil {
				return err
			}
		}
	}
	if len(entries) > 0 {
		s.notifyLocked()
	}
	return nil
}

// changes returns a channel closed on the next growth of the readable
// extent (append or close). Follow-mode
// readers grab the channel before scanning, so a mutation racing the
// scan still wakes the subsequent wait.
func (s *Store) changes() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watch == nil {
		s.watch = make(chan struct{})
	}
	return s.watch
}

// notifyLocked wakes every waiter registered via changes; callers hold
// s.mu.
func (s *Store) notifyLocked() {
	if s.watch != nil {
		close(s.watch)
		s.watch = nil
	}
}

// sealActiveLocked seals the active segment; callers hold s.mu.
func (s *Store) sealActiveLocked() error {
	if s.active == nil {
		return nil
	}
	info, err := s.active.seal(s.dir)
	if err != nil {
		return err
	}
	info.path = filepath.Join(s.dir, segmentName(info.ID, s.opts.Codec))
	s.sealed = append(s.sealed, info)
	s.active = nil
	s.rotations++
	return nil
}

// Sync flushes and fsyncs the active segment — the durability point for
// live capture.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	return s.active.sync()
}

// Close seals the active segment and marks the store unusable for
// further appends. Readers created before Close keep working: sealed
// segment files remain on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer s.notifyLocked()
	return s.sealActiveLocked()
}

// Closed reports whether Close has been called. Follow-mode readers use
// it to distinguish "caught up, wait for more" from "the log has ended".
func (s *Store) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Segments returns a snapshot of all segment metadata, sealed first then
// the active segment, in replay order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]SegmentInfo(nil), s.sealed...)
	if s.active != nil {
		ai := s.active.snapshotInfo()
		if !ai.HostsOverflow {
			ai.Hosts = sortedHosts(s.active.hosts)
		}
		out = append(out, ai)
	}
	return out
}

// Stats aggregates the log: segment count, total entries, real on-disk
// bytes, and the overall record-timestamp range.
type Stats struct {
	Segments int
	Entries  int64
	Bytes    int64
	MinTime  int64
	MaxTime  int64
	// Rotations counts segment seals performed by this process (not
	// segments recovered from disk at Open).
	Rotations int64
}

// add folds one segment's index into the aggregate.
func (st *Stats) add(si SegmentInfo) {
	st.Segments++
	st.Entries += si.Entries
	st.Bytes += si.Bytes
	if si.Entries == 0 {
		return
	}
	first := st.Entries == si.Entries // no earlier segment held a record
	if first || si.MinTime < st.MinTime {
		st.MinTime = si.MinTime
	}
	if first || si.MaxTime > st.MaxTime {
		st.MaxTime = si.MaxTime
	}
}

// Stats summarizes the store from its segment indexes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Rotations: s.rotations}
	for _, si := range s.sealed {
		st.add(si)
	}
	if s.active != nil {
		st.add(s.active.snapshotInfo())
	}
	return st
}

// openSegment is one element of a read snapshot: segment metadata plus
// an already-open file handle.
type openSegment struct {
	info SegmentInfo
	f    *os.File
}

// snapshotReadable freezes the readable extent of the log: all sealed
// segments plus the flushed prefix of the active one. Segment files are
// opened here, under the store lock, so the snapshot and its handles
// agree; a segment file that has vanished from disk fails the snapshot
// with an error wrapping fs.ErrNotExist. Readers bound the active
// segment to its size at snapshot time, so concurrent appends never tear
// a read. skip lets the caller avoid opening segments its filters
// exclude. The caller owns the returned file handles.
func (s *Store) snapshotReadable(skip func(SegmentInfo) bool) ([]openSegment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := append([]SegmentInfo(nil), s.sealed...)
	if s.active != nil && s.active.info.Entries > 0 {
		if err := s.active.flush(); err != nil {
			return nil, err
		}
		infos = append(infos, s.active.snapshotInfo())
	}
	var out []openSegment
	for _, si := range infos {
		if skip != nil && skip(si) {
			continue
		}
		f, err := os.Open(si.path)
		if err != nil {
			for _, seg := range out {
				seg.f.Close()
			}
			return nil, err
		}
		out = append(out, openSegment{info: si, f: f})
	}
	return out, nil
}
