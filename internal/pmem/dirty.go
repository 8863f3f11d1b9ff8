package pmem

import (
	"sync"
	"sync/atomic"
)

// Dirty-chunk tracking for live migration.
//
// A DirtyMap is a chunk-granular write bitmap over one address range.
// While any map is registered the device's store paths fold every
// write into the overlapping maps, so a migration engine can stream a
// full snapshot of a pool while writers keep going, then re-send only
// the chunks dirtied since — the iterative pre-copy discipline. The
// tracking gate is a single atomic load on the store fast path and
// costs nothing when no migration is active (the same pattern as the
// fault hook's hookArmed gate).

// TrackChunkSize is the dirty-tracking granularity in bytes.
const TrackChunkSize = ChunkSize

// DirtyMap is a registered dirty-chunk bitmap. All methods are safe
// for concurrent use with device writes.
type DirtyMap struct {
	r    Range
	bits []uint64
}

// newDirtyMap builds an unregistered map over r; Device.TrackDirty
// registers one.
func newDirtyMap(r Range) *DirtyMap {
	chunks := (r.Size() + TrackChunkSize - 1) / TrackChunkSize
	return &DirtyMap{r: r, bits: make([]uint64, (chunks+63)/64)}
}

// Range returns the tracked address range.
func (m *DirtyMap) Range() Range { return m.r }

// chunks returns the number of tracked chunks.
func (m *DirtyMap) chunks() uint64 {
	return (m.r.Size() + TrackChunkSize - 1) / TrackChunkSize
}

// orBit sets bit i with a CAS loop (go1.21: no atomic.Or).
func (m *DirtyMap) orBit(i uint64) {
	w, b := i>>6, uint64(1)<<(i&63)
	for {
		old := atomic.LoadUint64(&m.bits[w])
		if old&b != 0 || atomic.CompareAndSwapUint64(&m.bits[w], old, old|b) {
			return
		}
	}
}

// note marks the chunks overlapping [addr, addr+n) dirty. The access
// is already known to overlap m.r.
func (m *DirtyMap) note(addr Addr, n int) {
	lo, hi := addr, addr+Addr(n)
	if lo < m.r.Start {
		lo = m.r.Start
	}
	if hi > m.r.End {
		hi = m.r.End
	}
	first := uint64(lo-m.r.Start) / TrackChunkSize
	last := uint64(hi-1-m.r.Start) / TrackChunkSize
	for c := first; c <= last; c++ {
		m.orBit(c)
	}
}

// MarkAll dirties every chunk (a fresh snapshot pass covers the whole
// range).
func (m *DirtyMap) MarkAll() {
	for c := uint64(0); c < m.chunks(); c++ {
		m.orBit(c)
	}
}

// Count returns the number of dirty chunks.
func (m *DirtyMap) Count() int {
	n := 0
	for w := range m.bits {
		v := atomic.LoadUint64(&m.bits[w])
		for v != 0 {
			v &= v - 1
			n++
		}
	}
	return n
}

// CollectClear atomically drains the bitmap: every chunk dirty at the
// time of the call is returned as a device address range (adjacent
// chunks merged, the tail chunk clamped to the tracked range) and its
// bit cleared. Writes racing the drain land in the NEXT collection —
// never lost, at worst re-sent.
func (m *DirtyMap) CollectClear() []Range {
	var out []Range
	chunks := m.chunks()
	for w := range m.bits {
		v := atomic.SwapUint64(&m.bits[w], 0)
		for b := 0; v != 0; b++ {
			if v&(1<<uint(b)) == 0 {
				continue
			}
			v &^= 1 << uint(b)
			c := uint64(w)*64 + uint64(b)
			if c >= chunks {
				continue
			}
			start := m.r.Start + Addr(c*TrackChunkSize)
			end := start + TrackChunkSize
			if end > m.r.End {
				end = m.r.End
			}
			if n := len(out); n > 0 && out[n-1].End == start {
				out[n-1].End = end
			} else {
				out = append(out, Range{Start: start, End: end})
			}
		}
	}
	return out
}

// dirtyTracker is the device-side registry of live DirtyMaps.
type dirtyTracker struct {
	armed atomic.Bool
	mu    sync.RWMutex
	maps  []*DirtyMap
}

// TrackDirty registers a dirty map over r. Stores overlapping r are
// folded into the returned map until Untrack.
func (d *Device) TrackDirty(r Range) *DirtyMap {
	m := newDirtyMap(r)
	d.track.mu.Lock()
	d.track.maps = append(d.track.maps, m)
	d.track.mu.Unlock()
	d.track.armed.Store(true)
	return m
}

// Untrack deregisters m.
func (d *Device) Untrack(m *DirtyMap) {
	d.track.mu.Lock()
	for i, t := range d.track.maps {
		if t == m {
			d.track.maps = append(d.track.maps[:i], d.track.maps[i+1:]...)
			break
		}
	}
	if len(d.track.maps) == 0 {
		d.track.armed.Store(false)
	}
	d.track.mu.Unlock()
}

// noteDirty folds a write into every overlapping registered map.
func (d *Device) noteDirty(addr Addr, n int) {
	acc := Range{Start: addr, End: addr + Addr(n)}
	d.track.mu.RLock()
	for _, m := range d.track.maps {
		if m.r.Overlaps(acc) {
			m.note(addr, n)
		}
	}
	d.track.mu.RUnlock()
}

// --- transaction-quiesce arming ---
//
// Live migration quiesces ONE pool, not the daemon: clients write pool
// data directly on the shared device (the DAX model), so the final
// hand-off barrier is a pair of on-media words in the pool's root
// puddle header (freeze state + active-transaction count) that the
// transaction runtime checks on entry. The check costs a device word
// load per transaction, so it is gated behind this device-wide armed
// counter and free when no migration or moved pool exists.

// ArmQuiesce increments the quiesce gate; transactions start checking
// their pool's freeze word.
func (d *Device) ArmQuiesce() { d.quiesceArmed.Add(1) }

// DisarmQuiesce decrements the quiesce gate.
func (d *Device) DisarmQuiesce() { d.quiesceArmed.Add(-1) }

// QuiesceArmed reports whether any migration epoch is active on this
// device.
func (d *Device) QuiesceArmed() bool { return d.quiesceArmed.Load() > 0 }
