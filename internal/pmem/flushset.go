package pmem

import (
	"cmp"
	"slices"
)

// FlushSet is a write-combining buffer for cacheline flushes (clwb).
//
// Callers record every range they intend to persist with Add and issue
// the whole batch with Flush. Ranges are rounded to 64-byte cachelines,
// and overlapping or adjacent lines are merged, so a transaction that
// dirties the same line many times — or dirties neighbouring fields of
// one object through separate log entries — pays for one flush per
// distinct line run instead of one per store. This is the MOD-style
// "minimize ordering points" optimisation: on real hardware each
// redundant clwb costs a round trip to the cache hierarchy, and the
// paper's hybrid commit (Fig. 7) sits directly on this path.
//
// A FlushSet is not safe for concurrent use; transactions are
// thread-local (see core.Tx) so each commit owns its set. The first
// flushInline ranges live in the set itself, so a small batch in a
// local variable touches no Go heap. The set never holds a slice of its
// own array: escape analysis moves a value that points into itself to
// the heap.
type FlushSet struct {
	spill    []Range // every range, once there are more than flushInline
	inline   [flushInline]Range
	n        int    // ranges in inline; stays put once spill is in use
	requests uint64 // Add calls since the last Flush/Reset
}

const flushInline = 4

// pending returns the recorded ranges: line-aligned, sorted and merged
// lazily at Flush.
func (fs *FlushSet) pending() []Range {
	if fs.spill != nil {
		return fs.spill
	}
	return fs.inline[:fs.n]
}

// Add records [addr, addr+n) for flushing, rounded out to cacheline
// boundaries. Zero- and negative-length ranges are ignored.
func (fs *FlushSet) Add(addr Addr, n int) {
	if n <= 0 {
		return
	}
	fs.requests++
	start := addr &^ (LineSize - 1)
	end := (addr + Addr(n) + LineSize - 1) &^ (LineSize - 1)
	// Fast path: extend the previous range when the workload appends in
	// address order (log writes, sequential object updates).
	if rs := fs.pending(); len(rs) > 0 {
		last := &rs[len(rs)-1]
		if start >= last.Start && start <= last.End {
			if end > last.End {
				last.End = end
			}
			return
		}
	}
	r := Range{Start: start, End: end}
	switch {
	case fs.spill != nil:
		fs.spill = append(fs.spill, r)
	case fs.n < flushInline:
		fs.inline[fs.n] = r
		fs.n++
	default:
		fs.spill = append(append(make([]Range, 0, 4*flushInline), fs.inline[:]...), r)
	}
}

// Empty reports whether the set holds no pending ranges.
func (fs *FlushSet) Empty() bool { return len(fs.pending()) == 0 }

// Pending returns the number of distinct flushes the set would issue
// now: its ranges after sorting and merging. The recorded coverage is
// left untouched (merging happens on a copy).
func (fs *FlushSet) Pending() int {
	cp := *fs
	cp.spill = append([]Range(nil), fs.spill...)
	return len(cp.merged())
}

// merged returns the coalesced ranges in ascending order. The receiver's
// ranges are sorted in place; merging overwrites their prefix, which is
// safe because Flush resets the set immediately after.
func (fs *FlushSet) merged() []Range {
	if sp := fs.spill; sp != nil {
		if len(sp) > 1 {
			slices.SortFunc(sp, func(a, b Range) int { return cmp.Compare(a.Start, b.Start) })
		}
		return coalesce(sp)
	}
	// Insertion sort: at most flushInline ranges, sorted in place
	// without sending the inline array, and so the whole set, to the heap.
	rs := fs.inline[:fs.n]
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Start < rs[j-1].Start; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	return coalesce(rs)
}

// coalesce merges overlapping and line-adjacent ranges of the sorted rs
// into its prefix and returns that prefix.
func coalesce(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Flush coalesces the recorded ranges and issues one Device.Flush per
// maximal run of contiguous cachelines, then resets the set. It returns
// the number of flushes issued. The device's coalescing counters are
// updated with the batch (requests in, flushes out).
func (fs *FlushSet) Flush(d *Device) int {
	m := fs.merged()
	for _, r := range m {
		d.Flush(r.Start, int(r.Size()))
	}
	issued := len(m)
	d.noteCoalescing(fs.requests, uint64(issued))
	fs.Reset()
	return issued
}

// Reset discards all pending ranges without flushing.
func (fs *FlushSet) Reset() {
	fs.spill = fs.spill[:0]
	fs.n = 0
	fs.requests = 0
}
