package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives in the benchmark only: spans go around the calls the
// driver makes into public functions, never inside the program. A nil
// *tracer is the untraced run; every method is a no-op on it, so the
// end-to-end metrics are measured with tracing off.

// counters is what is snapshotted at the edges of a phase span, so
// ratios are measured where the work happens.
type counters struct {
	Flushes       uint64 `json:"flushes"`
	Fences        uint64 `json:"fences"`
	FlushRequests uint64 `json:"flush_requests"`
	Coalesced     uint64 `json:"coalesced_flushes"`
	Mallocs       uint64 `json:"go_mallocs"`
	WireBytes     uint64 `json:"wire_bytes"`
	WireCalls     uint64 `json:"wire_syscalls"`
	JournalBytes  uint64 `json:"journal_bytes"`
	Checkpoints   uint64 `json:"checkpoints"`
}

func (a counters) sub(b counters) counters {
	return counters{
		Flushes:       a.Flushes - b.Flushes,
		Fences:        a.Fences - b.Fences,
		FlushRequests: a.FlushRequests - b.FlushRequests,
		Coalesced:     a.Coalesced - b.Coalesced,
		Mallocs:       a.Mallocs - b.Mallocs,
		WireBytes:     a.WireBytes - b.WireBytes,
		WireCalls:     a.WireCalls - b.WireCalls,
		JournalBytes:  a.JournalBytes - b.JournalBytes,
		Checkpoints:   a.Checkpoints - b.Checkpoints,
	}
}

// span is one traced interval. Spans of one request share Op; Parent is
// the span that caused this one (0 for the root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     uint64    `json:"op,omitempty"`
	Name   string    `json:"name"`
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	Delta  *counters `json:"counters,omitempty"`

	at counters // snapshot at Start, for phase spans
}

// maxOpSpans caps the per-op spans kept in memory; phase spans are
// never dropped.
const maxOpSpans = 50000

type tracer struct {
	epoch time.Time
	snap  func() counters

	mu      sync.Mutex
	spans   []span
	opSpans int
}

func newTracer(snap func() counters) *tracer {
	return &tracer{epoch: time.Now(), snap: snap}
}

// begin opens a phase span with a counter snapshot and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	at := t.snap()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch)), at: at})
	return id
}

// end closes a phase span and records the counter deltas across it.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.snap()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	d := now.sub(s.at)
	s.Delta = &d
}

// op records one completed driver call under parent.
func (t *tracer) op(parent int, name string, op uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opSpans >= maxOpSpans {
		return
	}
	t.opSpans++
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its child spans cover (children of concurrent workers
// may overlap, so the cover is the union of their intervals).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = s.Start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time over spans of one name.
func (t *tracer) selfByName() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// wireCounts is the counting net.Conn/net.Listener instrument: every
// Read or Write on an accepted connection is one system call on a real
// socket, so calls/request is syscalls/request on the daemon side.
type wireCounts struct {
	calls atomic.Uint64
	bytes atomic.Uint64
}

type countingListener struct {
	net.Listener
	c *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}
