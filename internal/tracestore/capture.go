package tracestore

import (
	"sync"

	"repro/internal/sdn"
	"repro/internal/trace"
)

// Recorder adapts a Store to the sdn packet-capture hook: every packet
// injected into the network becomes one trace entry, stamped by a
// per-recorder monotone tick counter and appended to the store. It is safe for concurrent capture — parallel injectors
// interleave whole records, never tear them.
type Recorder struct {
	mu    sync.Mutex
	st    *Store
	tick  int64
	count int64
	err   error
}

// NewRecorder wraps a store as a capture hook.
func NewRecorder(st *Store) *Recorder { return &Recorder{st: st} }

// CapturePacket implements sdn.PacketCapture. Backtesting tags are a
// replay artifact and are not recorded. The first append error is
// retained (and further capture stops) rather than failing injection —
// the capture path must never break the network under observation.
func (r *Recorder) CapturePacket(srcHost string, pkt sdn.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.tick++
	pkt.Tags = 0
	if err := r.st.Append(trace.Entry{Time: r.tick, SrcHost: srcHost, Pkt: pkt}); err != nil {
		r.err = err
		return
	}
	r.count++
}

// Count returns how many packets have been captured.
func (r *Recorder) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Err returns the first append error, if capture degraded.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
