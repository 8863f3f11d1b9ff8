// Package pmem simulates a byte-addressable persistent memory device.
//
// The device stands in for the Optane DC-PMM + DAX substrate the paper
// runs on. It exposes a flat 64-bit address space with load/store
// access and the x86 persistence primitives the paper's code depends
// on: cacheline flushes (clwb) and store fences (sfence).
//
// Two modes share one API:
//
//   - Fast mode: stores write through to the backing store and
//     Flush/Fence only maintain counters. Used by throughput benchmarks;
//     the cost model is uniform across every library in this repository,
//     so comparative results remain meaningful. Zero reads before it
//     writes: it never backs an untouched chunk and skips words that
//     are zero already.
//
//   - Chaos mode: stores land in a volatile overlay of 64-byte
//     cachelines. Flush stages lines, Fence writes staged lines to the
//     durable backing. Crash discards the overlay, independently
//     persisting each volatile line with probability ½ (modelling
//     arbitrary cache eviction). This makes crash-consistency testing
//     real: data that was not flushed and fenced genuinely disappears.
//     Zero here is a plain store of zeros, one persist event per page.
//
// The device also supports a fault hook used by the relocation engine
// to emulate userfaultfd-style on-demand puddle mapping, and snapshot
// save/restore standing in for the DAX-mounted filesystem.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Addr is an address in the simulated persistent memory space.
type Addr uint64

const (
	// LineSize is the simulated CPU cacheline size in bytes.
	LineSize = 64
	// PageSize is the simulated OS page size in bytes.
	PageSize = 4096

	chunkBits = 16 // 64 KiB chunks
	// ChunkSize is the granularity at which backing memory is allocated.
	ChunkSize = 1 << chunkBits
	chunkMask = ChunkSize - 1

	l2Bits = 12
	l2Size = 1 << l2Bits
	l1Bits = 13
	l1Size = 1 << l1Bits

	// MaxAddr is the first address beyond the device (2 TiB).
	MaxAddr Addr = 1 << (chunkBits + l2Bits + l1Bits)
)

// Mode selects the device persistence model.
type Mode int

const (
	// Fast writes through and only counts flushes/fences.
	Fast Mode = iota
	// Chaos models a volatile CPU cache with explicit persistence.
	Chaos
)

func (m Mode) String() string {
	switch m {
	case Fast:
		return "fast"
	case Chaos:
		return "chaos"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrOutOfRange reports an access beyond MaxAddr.
var ErrOutOfRange = errors.New("pmem: address out of range")

type lineState uint8

const (
	lineDirty   lineState = iota // written, not flushed: volatile
	linePending                  // flushed, awaiting fence: volatile
)

type line struct {
	data  [LineSize]byte
	state lineState
}

// A chunk stores its bytes as little-endian words and every fast-mode
// access goes through sync/atomic on those words. That makes the
// device safe for the optimistic (seqlock) read path: readers may
// race writers on the same addresses and observe torn multi-word
// values — which sequence validation discards — but no individual
// word access is ever a data race, so `-race` stays meaningful for
// the layers above. Sub-word stores merge via CAS so two writers
// touching different bytes of a shared word never lose an update.
const chunkWords = ChunkSize / 8

type chunk [chunkWords]uint64

// loadBytes copies len(buf) bytes at chunk offset off into buf using
// atomic word loads. Individual words are consistent; the buffer as a
// whole may be torn relative to a concurrent multi-word store.
func (c *chunk) loadBytes(off int, buf []byte) {
	i := 0
	if r := off & 7; r != 0 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], atomic.LoadUint64(&c[off>>3]))
		n := copy(buf, tmp[r:])
		i, off = n, off+n
	}
	for len(buf)-i >= 8 {
		binary.LittleEndian.PutUint64(buf[i:i+8], atomic.LoadUint64(&c[off>>3]))
		i, off = i+8, off+8
	}
	if i < len(buf) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], atomic.LoadUint64(&c[off>>3]))
		copy(buf[i:], tmp[:])
	}
}

// storeBytes copies data to chunk offset off. Whole aligned words are
// plain atomic stores; partial head/tail words merge through rmw.
func (c *chunk) storeBytes(off int, data []byte) {
	i := 0
	if r := off & 7; r != 0 {
		n := 8 - r
		if n > len(data) {
			n = len(data)
		}
		c.rmw(off>>3, r, data[:n])
		i, off = n, off+n
	}
	for len(data)-i >= 8 {
		atomic.StoreUint64(&c[off>>3], binary.LittleEndian.Uint64(data[i:i+8]))
		i, off = i+8, off+8
	}
	if i < len(data) {
		c.rmw(off>>3, 0, data[i:])
	}
}

// zeroBytes clears n bytes at chunk offset off, storing only to whole
// words that load nonzero; partial head/tail words merge through rmw,
// which skips its CAS when the bytes are zero already.
func (c *chunk) zeroBytes(off, n int) {
	if r := off & 7; r != 0 {
		k := min(n, 8-r)
		c.rmw(off>>3, r, zeroPage[:k])
		off, n = off+k, n-k
	}
	for ; n >= 8; off, n = off+8, n-8 {
		if atomic.LoadUint64(&c[off>>3]) != 0 {
			atomic.StoreUint64(&c[off>>3], 0)
		}
	}
	if n > 0 {
		c.rmw(off>>3, 0, zeroPage[:n])
	}
}

// rmw merges part into bytes [r, r+len(part)) of word w with a CAS
// loop, preserving concurrent writes to the word's other bytes.
func (c *chunk) rmw(w, r int, part []byte) {
	for {
		old := atomic.LoadUint64(&c[w])
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], old)
		copy(tmp[r:], part)
		nw := binary.LittleEndian.Uint64(tmp[:])
		if old == nw || atomic.CompareAndSwapUint64(&c[w], old, nw) {
			return
		}
	}
}

type l2table [l2Size]atomic.Pointer[chunk]

// Range is a half-open address interval [Start, End).
type Range struct {
	Start, End Addr
}

// Contains reports whether a lies inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Overlaps reports whether the two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

// Size returns the length of the range in bytes.
func (r Range) Size() uint64 { return uint64(r.End - r.Start) }

func (r Range) String() string { return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End)) }

// FaultHandler is invoked (with no device locks held) when an access
// touches an armed fault range. The handler must remove the range
// before writing through the device, or the access recurses.
type FaultHandler func(addr Addr)

// Stats are cumulative device counters.
type Stats struct {
	Flushes uint64 // Flush calls
	Fences  uint64 // Fence calls
	Crashes uint64 // Crash calls

	// Write-combining counters, maintained by FlushSet batches.
	FlushRequests    uint64 // ranges submitted to coalescers
	CoalescedFlushes uint64 // requests absorbed by merging (requests - issued)

	// Wait-die lease arbitration counters, maintained by the
	// transaction runtime (core): victims that died on a lease conflict
	// and the automatic retries that followed. Device-level so any
	// workload sharing the device can observe free-order contention.
	LeaseConflicts uint64
	LeaseRetries   uint64

	// Optimistic read-path counters, maintained by seqlock readers
	// (kvstore): validated read attempts, sequence-validation retries,
	// and reads that exhausted their attempts and took the latch.
	OptimisticReads   uint64
	OptimisticRetries uint64
	LatchFallbacks    uint64

	// Per-worker allocation-cache counters, maintained by the
	// transaction runtime (core): allocs/frees served from a worker's
	// parked slabs without touching the shared heap lease, small allocs
	// that fell through to the shared heap, slabs carved into caches,
	// empty cached slabs donated back in bulk, and parked slabs
	// reclaimed by recovery when a writable pool reopened.
	CacheHits      uint64
	CacheMisses    uint64
	CacheRefills   uint64
	SlabDonations  uint64
	ReclaimedSlabs uint64
}

// crashSignal is the panic payload raised when a crash point fires.
type crashSignal struct{ event int64 }

// IsCrash reports whether a recovered panic value came from a device
// crash point. Harnesses use it to distinguish injected crashes from
// real bugs.
func IsCrash(r any) bool {
	_, ok := r.(crashSignal)
	return ok
}

// Device is a simulated persistent memory device. The zero value is not
// usable; construct with New or NewChaos.
type Device struct {
	mode Mode

	// Durable backing store: two-level radix of lazily allocated chunks.
	l1      [l1Size]atomic.Pointer[l2table]
	allocMu sync.Mutex

	// Chaos-mode volatile cache overlay, keyed by line-aligned address.
	mu      sync.Mutex
	overlay map[Addr]*line
	// staged lists the lines Flush has moved to linePending since the
	// last Fence, so Fence walks what was flushed rather than the whole
	// overlay. A line re-dirtied after its flush stays listed but is no
	// longer pending; Fence re-checks the state.
	staged  []Addr
	rng     *rand.Rand
	events  int64
	crashAt int64 // fire a crash when events reaches this; 0 disables
	// crashDrops makes the armed crash point resolve as DropVolatile
	// instead of CrashNow.
	crashDrops bool

	// userfaultfd-style hook.
	hookArmed  atomic.Bool
	hookMu     sync.Mutex
	hookRanges []Range
	hookFn     FaultHandler

	// Dirty-chunk tracking + migration quiesce gate (dirty.go).
	track        dirtyTracker
	quiesceArmed atomic.Int64

	flushes    atomic.Uint64
	fences     atomic.Uint64
	crashes    atomic.Uint64
	flushReqs  atomic.Uint64
	coalesced  atomic.Uint64
	leaseConf  atomic.Uint64
	leaseRetry atomic.Uint64
	optReads   atomic.Uint64
	optRetries atomic.Uint64
	latchFalls atomic.Uint64
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
	cacheRef   atomic.Uint64
	slabDons   atomic.Uint64
	slabRecl   atomic.Uint64

	fenceDelay atomic.Int64 // ns each Fence blocks; 0 = free (default)
}

// New returns a fast-mode device.
func New() *Device {
	return &Device{mode: Fast}
}

// NewChaos returns a chaos-mode device whose crash behaviour is driven
// by the given seed.
func NewChaos(seed int64) *Device {
	return &Device{
		mode:    Chaos,
		overlay: make(map[Addr]*line),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Mode reports the device persistence model.
func (d *Device) Mode() Mode { return d.mode }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Flushes:           d.flushes.Load(),
		Fences:            d.fences.Load(),
		Crashes:           d.crashes.Load(),
		FlushRequests:     d.flushReqs.Load(),
		CoalescedFlushes:  d.coalesced.Load(),
		LeaseConflicts:    d.leaseConf.Load(),
		LeaseRetries:      d.leaseRetry.Load(),
		OptimisticReads:   d.optReads.Load(),
		OptimisticRetries: d.optRetries.Load(),
		LatchFallbacks:    d.latchFalls.Load(),
		CacheHits:         d.cacheHits.Load(),
		CacheMisses:       d.cacheMiss.Load(),
		CacheRefills:      d.cacheRef.Load(),
		SlabDonations:     d.slabDons.Load(),
		ReclaimedSlabs:    d.slabRecl.Load(),
	}
}

// NoteCacheHits records n allocs/frees served from a worker's parked
// slabs without touching the shared heap lease. Transactions batch
// this at commit/abort to keep the alloc fast path free of shared
// cacheline writes.
func (d *Device) NoteCacheHits(n uint64) { d.cacheHits.Add(n) }

// NoteCacheMisses records n small allocations that fell through the
// worker cache to the shared heap.
func (d *Device) NoteCacheMisses(n uint64) { d.cacheMiss.Add(n) }

// NoteCacheRefills records n slabs carved from a shared heap into a
// worker's allocation cache.
func (d *Device) NoteCacheRefills(n uint64) { d.cacheRef.Add(n) }

// NoteSlabDonations records n empty cached slabs donated back to a
// heap's free lists in bulk.
func (d *Device) NoteSlabDonations(n uint64) { d.slabDons.Add(n) }

// NoteReclaimedSlabs records n parked slabs reclaimed by recovery
// when a writable pool reopened.
func (d *Device) NoteReclaimedSlabs(n uint64) { d.slabRecl.Add(n) }

// NoteOptimisticReads records n validated (seqlock) read attempts.
// Readers batch this to keep the hot path free of shared-cacheline
// writes.
func (d *Device) NoteOptimisticReads(n uint64) { d.optReads.Add(n) }

// NoteOptimisticRetries records n sequence-validation failures that
// forced a reread.
func (d *Device) NoteOptimisticRetries(n uint64) { d.optRetries.Add(n) }

// NoteLatchFallbacks records n reads that exhausted their optimistic
// attempts and fell back to the stripe latch.
func (d *Device) NoteLatchFallbacks(n uint64) { d.latchFalls.Add(n) }

// NoteLeaseConflict records one wait-die victim (a transaction that
// died on a heap-lease conflict and must retry).
func (d *Device) NoteLeaseConflict() { d.leaseConf.Add(1) }

// NoteLeaseRetry records one automatic re-execution of a wait-die
// victim.
func (d *Device) NoteLeaseRetry() { d.leaseRetry.Add(1) }

// noteCoalescing records one FlushSet batch: requests submitted and
// flushes actually issued after write-combining.
func (d *Device) noteCoalescing(requests, issued uint64) {
	d.flushReqs.Add(requests)
	if requests > issued {
		d.coalesced.Add(requests - issued)
	}
}

// chunkFor returns the chunk containing addr, allocating it if create
// is set. Returns nil when the chunk is unbacked and create is false.
func (d *Device) chunkFor(addr Addr, create bool) *chunk {
	if addr >= MaxAddr {
		panic(fmt.Sprintf("pmem: address %#x out of range", uint64(addr)))
	}
	i1 := addr >> (chunkBits + l2Bits)
	i2 := (addr >> chunkBits) & (l2Size - 1)
	t := d.l1[i1].Load()
	if t == nil {
		if !create {
			return nil
		}
		d.allocMu.Lock()
		if t = d.l1[i1].Load(); t == nil {
			t = new(l2table)
			d.l1[i1].Store(t)
		}
		d.allocMu.Unlock()
	}
	c := t[i2].Load()
	if c == nil {
		if !create {
			return nil
		}
		d.allocMu.Lock()
		if c = t[i2].Load(); c == nil {
			c = new(chunk)
			t[i2].Store(c)
		}
		d.allocMu.Unlock()
	}
	return c
}

// checkFault runs the fault hook if the access [addr, addr+n) touches
// an armed range.
func (d *Device) checkFault(addr Addr, n int) {
	if !d.hookArmed.Load() {
		return
	}
	acc := Range{addr, addr + Addr(n)}
	for {
		d.hookMu.Lock()
		var hit Addr
		found := false
		for _, r := range d.hookRanges {
			if r.Overlaps(acc) {
				hit = r.Start
				found = true
				break
			}
		}
		fn := d.hookFn
		d.hookMu.Unlock()
		if !found || fn == nil {
			return
		}
		fn(hit)
	}
}

// ArmFaultHook installs the fault handler. Accesses that overlap a
// range added with AddFaultRange invoke fn with the range start.
func (d *Device) ArmFaultHook(fn FaultHandler) {
	d.hookMu.Lock()
	d.hookFn = fn
	d.hookMu.Unlock()
}

// AddFaultRange arms r: the next access overlapping r triggers the
// fault handler.
func (d *Device) AddFaultRange(r Range) {
	d.hookMu.Lock()
	d.hookRanges = append(d.hookRanges, r)
	d.hookMu.Unlock()
	d.hookArmed.Store(true)
}

// RemoveFaultRange disarms the range starting at start. It reports
// whether a range was removed.
func (d *Device) RemoveFaultRange(start Addr) bool {
	d.hookMu.Lock()
	defer d.hookMu.Unlock()
	for i, r := range d.hookRanges {
		if r.Start == start {
			d.hookRanges = append(d.hookRanges[:i], d.hookRanges[i+1:]...)
			if len(d.hookRanges) == 0 {
				d.hookArmed.Store(false)
			}
			return true
		}
	}
	return false
}

// FaultRanges returns a copy of the currently armed ranges.
func (d *Device) FaultRanges() []Range {
	d.hookMu.Lock()
	defer d.hookMu.Unlock()
	out := make([]Range, len(d.hookRanges))
	copy(out, d.hookRanges)
	return out
}

// tickLocked advances the chaos event counter and reports whether the
// armed crash point fired. Callers hold d.mu and must release it
// before invoking fireCrash, so an injected crash never leaks the
// device lock.
func (d *Device) tickLocked() bool {
	d.events++
	if d.crashAt != 0 && d.events >= d.crashAt {
		d.crashAt = 0
		return true
	}
	return false
}

// fireCrash performs the injected power failure and unwinds the
// calling goroutine with a crashSignal panic.
func (d *Device) fireCrash() {
	d.mu.Lock()
	ev, drop := d.events, d.crashDrops
	d.mu.Unlock()
	if drop {
		d.DropVolatile()
	} else {
		d.CrashNow()
	}
	panic(crashSignal{event: ev})
}

// Events returns the chaos-mode persistence event count (stores,
// flushes and fences each count one event).
func (d *Device) Events() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events
}

// CrashAtEvent arms an injected crash: when the event counter reaches
// n the device crashes (volatile state is resolved randomly and
// dropped) and the in-progress operation panics with a value for which
// IsCrash returns true. Chaos mode only.
func (d *Device) CrashAtEvent(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = n
	d.crashDrops = false
}

// CrashAtEventDropping is CrashAtEvent with the adversarial outcome:
// the injected crash loses every line that was not flushed (as
// DropVolatile does) instead of keeping each with probability ½.
func (d *Device) CrashAtEventDropping(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = n
	d.crashDrops = true
}

// Load copies len(buf) bytes at addr into buf.
func (d *Device) Load(addr Addr, buf []byte) {
	d.checkFault(addr, len(buf))
	if d.mode == Chaos {
		d.mu.Lock()
		d.loadChaos(addr, buf)
		d.mu.Unlock()
		return
	}
	d.loadDurable(addr, buf)
}

func (d *Device) loadDurable(addr Addr, buf []byte) {
	for len(buf) > 0 {
		off := int(addr & chunkMask)
		n := ChunkSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if c := d.chunkFor(addr, false); c != nil {
			c.loadBytes(off, buf[:n])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		addr += Addr(n)
		buf = buf[n:]
	}
}

func (d *Device) loadChaos(addr Addr, buf []byte) {
	d.loadDurable(addr, buf)
	// Patch in volatile lines.
	first := addr &^ (LineSize - 1)
	last := (addr + Addr(len(buf)) - 1) &^ (LineSize - 1)
	for la := first; la <= last; la += LineSize {
		ln, ok := d.overlay[la]
		if !ok {
			continue
		}
		// Intersection of [la, la+LineSize) with [addr, addr+len).
		lo, hi := la, la+LineSize
		if lo < addr {
			lo = addr
		}
		if end := addr + Addr(len(buf)); hi > end {
			hi = end
		}
		copy(buf[lo-addr:hi-addr], ln.data[lo-la:hi-la])
	}
}

// Store copies data to addr. In chaos mode the write is volatile until
// flushed and fenced.
func (d *Device) Store(addr Addr, data []byte) {
	d.checkFault(addr, len(data))
	if d.track.armed.Load() {
		d.noteDirty(addr, len(data))
	}
	if d.mode == Chaos {
		d.mu.Lock()
		d.storeChaos(addr, data)
		fire := d.tickLocked()
		d.mu.Unlock()
		if fire {
			d.fireCrash()
		}
		return
	}
	d.storeDurable(addr, data)
}

func (d *Device) storeDurable(addr Addr, data []byte) {
	for len(data) > 0 {
		off := int(addr & chunkMask)
		n := ChunkSize - off
		if n > len(data) {
			n = len(data)
		}
		c := d.chunkFor(addr, true)
		c.storeBytes(off, data[:n])
		addr += Addr(n)
		data = data[n:]
	}
}

func (d *Device) storeChaos(addr Addr, data []byte) {
	for len(data) > 0 {
		la := addr &^ (LineSize - 1)
		off := int(addr - la)
		n := LineSize - off
		if n > len(data) {
			n = len(data)
		}
		ln, ok := d.overlay[la]
		if !ok {
			ln = &line{}
			d.loadDurable(la, ln.data[:])
			d.overlay[la] = ln
		}
		copy(ln.data[off:off+n], data[:n])
		ln.state = lineDirty // re-dirtying a pending line un-stages it
		addr += Addr(n)
		data = data[n:]
	}
}

// Flush stages the cachelines covering [addr, addr+n) for persistence
// (clwb). The data is durable only after a subsequent Fence.
func (d *Device) Flush(addr Addr, n int) {
	d.flushes.Add(1)
	if d.mode != Chaos {
		return
	}
	d.mu.Lock()
	first := addr &^ (LineSize - 1)
	last := (addr + Addr(n) - 1) &^ (LineSize - 1)
	for la := first; la <= last; la += LineSize {
		if ln, ok := d.overlay[la]; ok && ln.state == lineDirty {
			ln.state = linePending
			d.staged = append(d.staged, la)
		}
	}
	fire := d.tickLocked()
	d.mu.Unlock()
	if fire {
		d.fireCrash()
	}
}

// SetFenceLatency models the DIMM write-queue drain an sfence waits
// for on real persistent memory (hundreds of nanoseconds to a few
// microseconds on Optane DC-PMM). Zero, the default, keeps fences
// free — the uniform cost model every comparative benchmark uses.
// When non-zero, each Fence blocks its calling goroutine for dur, so
// concurrent transactions overlap their persistence stalls exactly as
// hardware threads do; the multi-worker scaling benchmarks use this
// to measure lock-hierarchy serialization rather than simulator CPU
// time.
func (d *Device) SetFenceLatency(dur time.Duration) {
	d.fenceDelay.Store(int64(dur))
}

// fenceStall blocks for the configured fence latency, if any. Sub-
// 100µs stalls yield-spin instead of sleeping: OS timer granularity
// can be a millisecond or worse, and a yield-spin both keeps the
// stall accurate and lets other goroutines' work (or their own
// stalls) overlap it — the behaviour real concurrent flushes have.
func (d *Device) fenceStall() {
	ns := d.fenceDelay.Load()
	if ns <= 0 {
		return
	}
	if ns >= int64(100*time.Microsecond) {
		time.Sleep(time.Duration(ns))
		return
	}
	deadline := time.Now().Add(time.Duration(ns))
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Fence makes all staged (flushed) lines durable (sfence).
func (d *Device) Fence() {
	d.fences.Add(1)
	d.fenceStall()
	if d.mode != Chaos {
		return
	}
	d.mu.Lock()
	for _, la := range d.staged {
		// A line flushed twice is listed twice and gone by the second
		// visit; one stored to since its flush is dirty again.
		if ln, ok := d.overlay[la]; ok && ln.state == linePending {
			d.storeDurable(la, ln.data[:])
			delete(d.overlay, la)
		}
	}
	d.staged = d.staged[:0]
	fire := d.tickLocked()
	d.mu.Unlock()
	if fire {
		d.fireCrash()
	}
}

// Persist flushes and fences [addr, addr+n).
func (d *Device) Persist(addr Addr, n int) {
	d.Flush(addr, n)
	d.Fence()
}

// CrashNow simulates a power failure: every volatile line is
// independently written back (cache eviction) or lost with probability
// ½, then the volatile state is discarded. Lines resolve in address
// order, so the device's seed alone decides which survive. Fast mode:
// no-op except for the counter, since fast-mode stores are already
// durable.
func (d *Device) CrashNow() {
	d.crashes.Add(1)
	if d.mode != Chaos {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, la := range sortedLines(d.overlay) {
		if ln := d.overlay[la]; ln.state == linePending || d.rng.Intn(2) == 0 {
			// Pending lines sit in the write queue; with ADR they
			// persist on power loss. Dirty lines may have been evicted.
			d.storeDurable(la, ln.data[:])
		}
	}
	clear(d.overlay)
	d.staged = d.staged[:0]
}

// DropVolatile discards every dirty line without writing it back — the
// adversarial crash where no line that was stored but not flushed
// survives. Flushed but unfenced (pending) lines still persist: under
// ADR they sit in the write queue, as in CrashNow.
func (d *Device) DropVolatile() {
	d.crashes.Add(1)
	if d.mode != Chaos {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for la, ln := range d.overlay {
		if ln.state == linePending {
			d.storeDurable(la, ln.data[:])
		}
	}
	clear(d.overlay)
	d.staged = d.staged[:0]
}

// VolatileLines reports how many cachelines are currently volatile.
func (d *Device) VolatileLines() int {
	if d.mode != Chaos {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.overlay)
}

// LoadU64 reads a little-endian uint64 at addr. An aligned fast-mode
// load is a single atomic word load.
func (d *Device) LoadU64(addr Addr) uint64 {
	if d.mode == Fast && !d.hookArmed.Load() {
		off := int(addr & chunkMask)
		if off+8 <= ChunkSize {
			c := d.chunkFor(addr, false)
			if c == nil {
				return 0
			}
			if off&7 == 0 {
				return atomic.LoadUint64(&c[off>>3])
			}
			var b [8]byte
			c.loadBytes(off, b[:])
			return binary.LittleEndian.Uint64(b[:])
		}
	}
	var b [8]byte
	d.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreU64 writes a little-endian uint64 at addr. An aligned
// fast-mode store is a single atomic word store. When dirty tracking
// is armed the store falls through to Store so migrations see it.
func (d *Device) StoreU64(addr Addr, v uint64) {
	if d.mode == Fast && !d.hookArmed.Load() && !d.track.armed.Load() {
		off := int(addr & chunkMask)
		if off+8 <= ChunkSize {
			c := d.chunkFor(addr, true)
			if off&7 == 0 {
				atomic.StoreUint64(&c[off>>3], v)
				return
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			c.storeBytes(off, b[:])
			return
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Store(addr, b[:])
}

// LoadU32 reads a little-endian uint32 at addr.
func (d *Device) LoadU32(addr Addr) uint32 {
	if d.mode == Fast && !d.hookArmed.Load() {
		off := int(addr & chunkMask)
		if off+4 <= ChunkSize {
			c := d.chunkFor(addr, false)
			if c == nil {
				return 0
			}
			if r := off & 7; r <= 4 {
				return uint32(atomic.LoadUint64(&c[off>>3]) >> (8 * r))
			}
			var b [4]byte
			c.loadBytes(off, b[:])
			return binary.LittleEndian.Uint32(b[:])
		}
	}
	var b [4]byte
	d.Load(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// StoreU32 writes a little-endian uint32 at addr.
func (d *Device) StoreU32(addr Addr, v uint32) {
	if d.mode == Fast && !d.hookArmed.Load() && !d.track.armed.Load() {
		off := int(addr & chunkMask)
		if off+4 <= ChunkSize {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			d.chunkFor(addr, true).storeBytes(off, b[:])
			return
		}
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Store(addr, b[:])
}

// CASU64 atomically compares-and-swaps the aligned little-endian
// uint64 at addr. Fast mode maps to one CAS on the backing word, so
// concurrent clients sharing the device (the DAX model) get a real
// atomic primitive; chaos mode serializes under the overlay lock.
// The migration quiesce protocol builds its on-media transaction
// counter out of this.
func (d *Device) CASU64(addr Addr, old, new uint64) bool {
	if addr&7 != 0 {
		panic(fmt.Sprintf("pmem: CASU64 at unaligned address %#x", uint64(addr)))
	}
	d.checkFault(addr, 8)
	if d.track.armed.Load() {
		d.noteDirty(addr, 8)
	}
	if d.mode == Chaos {
		d.mu.Lock()
		var b [8]byte
		d.loadChaos(addr, b[:])
		if binary.LittleEndian.Uint64(b[:]) != old {
			d.mu.Unlock()
			return false
		}
		binary.LittleEndian.PutUint64(b[:], new)
		d.storeChaos(addr, b[:])
		fire := d.tickLocked()
		d.mu.Unlock()
		if fire {
			d.fireCrash()
		}
		return true
	}
	c := d.chunkFor(addr, true)
	return atomic.CompareAndSwapUint64(&c[int(addr&chunkMask)>>3], old, new)
}

// AddU64 atomically adds delta to the aligned uint64 at addr (use
// two's complement for subtraction) and returns the new value.
func (d *Device) AddU64(addr Addr, delta uint64) uint64 {
	for {
		old := d.LoadU64(addr)
		if d.CASU64(addr, old, old+delta) {
			return old + delta
		}
	}
}

// LoadU16 reads a little-endian uint16 at addr.
func (d *Device) LoadU16(addr Addr) uint16 {
	var b [2]byte
	d.Load(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// StoreU16 writes a little-endian uint16 at addr.
func (d *Device) StoreU16(addr Addr, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	d.Store(addr, b[:])
}

// LoadU8 reads the byte at addr.
func (d *Device) LoadU8(addr Addr) uint8 {
	var b [1]byte
	d.Load(addr, b[:])
	return b[0]
}

// StoreU8 writes one byte at addr.
func (d *Device) StoreU8(addr Addr, v uint8) {
	d.Store(addr, []byte{v})
}

// zeroPage is the zeros Zero and zeroBytes store from; nothing writes
// to it.
var zeroPage [PageSize]byte

// Zero clears [addr, addr+n) a page at a time; the fault hook and dirty
// maps see each page as a Store of zeros shows it. Fast mode skips a
// chunk never backed and every word that loads as zero, so clearing a
// mostly zero header costs loads, not locked stores.
func (d *Device) Zero(addr Addr, n int) {
	for n > 0 {
		k := min(n, PageSize)
		if d.mode == Chaos {
			d.Store(addr, zeroPage[:k])
		} else {
			d.checkFault(addr, k)
			if d.track.armed.Load() {
				d.noteDirty(addr, k)
			}
			for a, end := addr, addr+Addr(k); a < end; {
				off := int(a & chunkMask)
				m := min(int(end-a), ChunkSize-off)
				if c := d.chunkFor(a, false); c != nil {
					c.zeroBytes(off, m)
				}
				a += Addr(m)
			}
		}
		addr += Addr(k)
		n -= k
	}
}

// Copy moves n bytes from src to dst within the device. Ranges must
// not overlap.
func (d *Device) Copy(dst, src Addr, n int) {
	var buf [4096]byte
	for n > 0 {
		k := n
		if k > len(buf) {
			k = len(buf)
		}
		d.Load(src, buf[:k])
		d.Store(dst, buf[:k])
		dst += Addr(k)
		src += Addr(k)
		n -= k
	}
}

// sortedLines returns the addresses of the volatile lines in ascending
// order.
func sortedLines(overlay map[Addr]*line) []Addr {
	lines := make([]Addr, 0, len(overlay))
	for la := range overlay {
		lines = append(lines, la)
	}
	slices.Sort(lines)
	return lines
}
