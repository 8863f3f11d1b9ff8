// Package alloc implements the per-puddle two-level object allocator
// (paper §4.5).
//
// Small allocations (≤ 256 B) are served from per-type slab pages;
// large allocations come from a per-puddle buddy allocator. Every
// object carries its type ID in allocator metadata — slabs store one
// type ID per page, large blocks store an object header — which lets
// the relocation engine enumerate every (object, type) pair in a
// puddle and, with the registered pointer maps, find every pointer.
//
// Persistent metadata is one byte per 1 KiB heap block in the puddle
// header (the block map), plus in-heap slab headers. All metadata
// mutations flow through a Mutator so they are undo-logged inside
// transactions exactly like application data; volatile free lists and
// slab indexes are rebuilt by scanning the block map on open.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
)

// Mutator performs crash-consistent writes on behalf of the allocator.
// Inside a transaction the implementation undo-logs the target range
// before writing (and persists the log entry first); outside one it
// writes through and persists immediately.
type Mutator interface {
	// Write stores data at addr with undo protection.
	Write(addr pmem.Addr, data []byte)
	// WriteU64 stores a little-endian uint64 with undo protection.
	WriteU64(addr pmem.Addr, v uint64)
	// RegisterNew notes a freshly allocated payload so the transaction
	// flushes it at commit. It is not logged: if the transaction
	// aborts, the allocation itself is rolled back.
	RegisterNew(addr pmem.Addr, size int)
}

// Direct is a Mutator for use outside transactions: writes go straight
// to the device and are persisted immediately.
type Direct struct{ Dev *pmem.Device }

// Write implements Mutator.
func (d Direct) Write(addr pmem.Addr, data []byte) {
	d.Dev.Store(addr, data)
	d.Dev.Persist(addr, len(data))
}

// WriteU64 implements Mutator.
func (d Direct) WriteU64(addr pmem.Addr, v uint64) {
	d.Dev.StoreU64(addr, v)
	d.Dev.Persist(addr, 8)
}

// RegisterNew implements Mutator. Outside a transaction the caller is
// responsible for persisting payload writes.
func (d Direct) RegisterNew(addr pmem.Addr, size int) {}

// Block map byte encoding: 0 marks the interior of a block; a start
// byte carries the block's order in the low nibble plus flag bits.
const (
	bmStart  = 0x10
	bmAlloc  = 0x20
	bmSlab   = 0x40
	bmCached = 0x80 // slab parked in a worker's allocation cache
	bmOrder  = 0x0f
	maxOrder = 15 // 1 KiB << 15 = 32 MiB, far above any puddle heap here

	// SmallMax is the largest allocation served by slabs.
	SmallMax = 256
	// slabOrder: slabs are 4 KiB buddy blocks.
	slabOrder = 2
	slabSize  = puddle.BlockSize << slabOrder

	// In-slab header layout.
	slabMagic     = 0x534c4142 // "SLAB"
	slabHdrSize   = 64
	sOffMagic     = 0  // u32
	sOffElemSize  = 4  // u32
	sOffElemCount = 8  // u32
	sOffTypeID    = 16 // u64
	sOffBitmap    = 24 // 40 bytes -> 320 bits, enough for 252 elems

	// Large-object header preceding the payload.
	ObjHdrSize = 16
	oOffType   = 0 // u64
	oOffSize   = 8 // u64
)

// Size classes for slab allocations.
var classes = [...]uint32{16, 32, 64, 128, 256}

func classFor(size uint32) (uint32, bool) {
	for _, c := range classes {
		if size <= c {
			return c, true
		}
	}
	return 0, false
}

// ClassFor returns the slab size class serving size-byte allocations,
// or false when the size is served by the buddy path instead.
func ClassFor(size uint32) (uint32, bool) { return classFor(size) }

// Errors.
var (
	ErrNoSpace  = errors.New("alloc: puddle heap has no room for this allocation")
	ErrTooLarge = errors.New("alloc: allocation exceeds puddle heap capacity")
	ErrBadFree  = errors.New("alloc: free of an address that is not an allocated object")
	ErrBadSize  = errors.New("alloc: allocation size must be positive")
	// ErrParked marks an operation on a block owned by a worker's
	// allocation cache: the caller must go through the owning
	// CacheEntry (see ParkedAt) instead of the shared heap path.
	ErrParked = errors.New("alloc: block is parked in a worker allocation cache")
)

type slabKey struct {
	typeID ptypes.TypeID
	class  uint32
}

// freeList is one order's free set: a slice giving deterministic pop
// order plus a position index, so membership tests and arbitrary
// removals (buddy detach during merge) are O(1) instead of a linear
// scan over the whole list.
type freeList struct {
	items []uint64
	pos   map[uint64]int
}

func (f *freeList) len() int { return len(f.items) }

func (f *freeList) push(idx uint64) {
	if f.pos == nil {
		f.pos = make(map[uint64]int)
	}
	f.pos[idx] = len(f.items)
	f.items = append(f.items, idx)
}

// pop removes and returns the most recently pushed block.
func (f *freeList) pop() uint64 {
	idx := f.items[len(f.items)-1]
	f.items = f.items[:len(f.items)-1]
	delete(f.pos, idx)
	return idx
}

// remove detaches a specific block, reporting whether it was present.
// The vacated slot is filled by the last element (order of the free
// list is not meaningful beyond determinism).
func (f *freeList) remove(idx uint64) bool {
	i, ok := f.pos[idx]
	if !ok {
		return false
	}
	last := len(f.items) - 1
	moved := f.items[last]
	f.items[i] = moved
	f.pos[moved] = i
	f.items = f.items[:last]
	delete(f.pos, idx)
	return true
}

func (f *freeList) has(idx uint64) bool {
	_, ok := f.pos[idx]
	return ok
}

func (f *freeList) reset() {
	f.items = f.items[:0]
	for k := range f.pos {
		delete(f.pos, k)
	}
}

// Heap manages one puddle's heap.
//
// Concurrency: every exported method takes the heap's own mutex, so a
// Heap is safe for concurrent use by multiple goroutines — allocation
// safety lives with the heap, not with the owning pool. Transactions
// need a stronger guarantee than per-call atomicity: allocator
// metadata is undo-logged, so two in-flight transactions interleaving
// on one heap would capture each other's uncommitted metadata bytes in
// their undo logs, making abort rollback (and multi-log crash
// recovery) unsound. The lease (Lease/TryLease/Unlease) grants that
// transaction-scope exclusivity; see the method comments.
type Heap struct {
	P   *puddle.Puddle
	dev *pmem.Device

	mu       sync.Mutex
	blocks   uint64
	order    [maxOrder + 1]freeList // per-order free sets
	slabs    map[slabKey][]pmem.Addr
	liveObjs uint64 // live objects outside parked slabs
	freeBlks uint64

	// Worker allocation-cache state (cache.go). parked maps a slab's
	// block index to the live CacheEntry owning it; pending holds
	// parked slabs found on media with no live entry (crash orphans,
	// folded back in by ReclaimParked). The persistent cache-record
	// region in the puddle header tracks one 64-byte record per parked
	// slab: recOff/recSlots give its geometry (recOff 0 = no region),
	// recUsed the volatile slot map, healRecs record slots whose
	// extent no longer names a parked slab (crash between a
	// donation/unpark's block-map write and its record clear).
	parked   map[uint64]*CacheEntry
	pending  []pendingSlab
	recOff   pmem.Addr
	recSlots int
	recUsed  []bool
	healRecs []int

	lease   chan struct{} // transaction-scope ownership token
	leaseTS atomic.Uint64 // owner's transaction timestamp (0 = non-transactional owner)
}

// NewHeap opens the heap of a formatted puddle, rebuilding volatile
// state (free lists, slab indexes) from the persistent block map.
func NewHeap(p *puddle.Puddle) *Heap {
	h := &Heap{
		P: p, dev: p.Dev, blocks: p.Blocks(),
		slabs:  make(map[slabKey][]pmem.Addr),
		parked: make(map[uint64]*CacheEntry),
		lease:  make(chan struct{}, 1),
	}
	// Cache-record region: the slack between the block map and the end
	// of the puddle header, carved into 64-byte slots.
	off := (uint64(puddle.BlockMapOff) + h.blocks + cacheRecSize - 1) &^ (cacheRecSize - 1)
	if off+cacheRecSize <= p.HeaderBytes() {
		h.recOff = p.Base + pmem.Addr(off)
		h.recSlots = int((p.HeaderBytes() - off) / cacheRecSize)
		h.recUsed = make([]bool, h.recSlots)
	}
	h.rescan()
	return h
}

// Lease blocks until the caller holds transaction-scope ownership of
// the heap. While leased, only the owner may run mutating operations
// (Alloc/AllocLarge/Free/Rescan); the per-call mutex alone is not
// enough for transactions because their undo logs must not cover
// metadata bytes another in-flight transaction is mutating.
//
// Lease leaves the owner timestamp at zero, marking a short-lived
// non-transactional owner (Malloc, Pool.Free, CreateRoot). Such owners
// hold exactly one lease and never wait while holding it, so they can
// never participate in a lease deadlock cycle — transactions may
// always wait for them. Transactions themselves must use TryLeaseAs so
// their age is visible to the wait-die arbitration in internal/core.
func (h *Heap) Lease() { h.lease <- struct{}{} }

// TryLease acquires the lease without blocking, reporting success.
func (h *Heap) TryLease() bool { return h.TryLeaseAs(0) }

// TryLeaseAs acquires the lease without blocking and records ts as the
// owner's transaction timestamp for deadlock arbitration.
func (h *Heap) TryLeaseAs(ts uint64) bool {
	select {
	case h.lease <- struct{}{}:
		h.leaseTS.Store(ts)
		return true
	default:
		return false
	}
}

// LeaseOwnerTS reports the current owner's transaction timestamp: 0
// when the heap is unleased or leased by a non-transactional owner.
// It is advisory — the owner can change concurrently — which is all
// wait-die needs (a stale read only delays or retries arbitration, it
// never lets two owners coexist).
func (h *Heap) LeaseOwnerTS() uint64 { return h.leaseTS.Load() }

// LeaseAsTimeout blocks up to d for the lease, recording ts on
// success. Blocking parks the caller on the lease channel itself, so a
// release hands the lease to a camped waiter ahead of any freshly
// arriving TryLease — that fairness is what prevents livelock between
// a wait-die waiter and a fast retry loop. The timeout bounds how long
// a caller may camp before re-running its deadlock arbitration (the
// owner may have changed underneath it).
func (h *Heap) LeaseAsTimeout(ts uint64, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case h.lease <- struct{}{}:
		h.leaseTS.Store(ts)
		return true
	case <-t.C:
		return false
	}
}

// Unlease releases a lease taken with Lease, TryLease or TryLeaseAs.
func (h *Heap) Unlease() {
	h.leaseTS.Store(0)
	<-h.lease
}

// Format writes an empty heap's block map: the heap is carved into the
// largest aligned buddy blocks that fit, all free. Open it with NewHeap.
func Format(p *puddle.Puddle, m Mutator) {
	blocks := p.Blocks()
	bm := make([]byte, blocks)
	var i uint64
	for i < blocks {
		o := largestOrderAt(i, blocks-i)
		bm[i] = bmStart | byte(o)
		i += 1 << o
	}
	m.Write(p.BlockMapAddr(), bm)
}

// largestOrderAt returns the biggest order whose block is aligned at
// index i and fits within rem blocks.
func largestOrderAt(i, rem uint64) uint {
	var o uint = 0
	for o < maxOrder {
		n := uint(o + 1)
		if i%(1<<n) != 0 || (uint64(1)<<n) > rem {
			break
		}
		o = n
	}
	return o
}

func (h *Heap) bmAddr(idx uint64) pmem.Addr { return h.P.BlockMapAddr() + pmem.Addr(idx) }

func (h *Heap) blockAddr(idx uint64) pmem.Addr {
	return h.P.HeapBase() + pmem.Addr(idx*puddle.BlockSize)
}

func (h *Heap) blockIdx(addr pmem.Addr) uint64 {
	return uint64(addr-h.P.HeapBase()) / puddle.BlockSize
}

// Rescan rebuilds the volatile free lists and slab index from the
// persistent block map. Transactions call it after an abort rolls the
// block map back underneath the volatile state.
func (h *Heap) Rescan() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rescan()
}

// rescan rebuilds the volatile free lists and slab index from the
// persistent block map (done on every open, like PMDK).
func (h *Heap) rescan() {
	for o := range h.order {
		h.order[o].reset()
	}
	h.slabs = make(map[slabKey][]pmem.Addr)
	h.liveObjs = 0
	h.freeBlks = 0
	h.pending = h.pending[:0]
	h.healRecs = h.healRecs[:0]
	for i := range h.recUsed {
		h.recUsed[i] = false
	}
	bm := make([]byte, h.blocks)
	h.dev.Load(h.P.BlockMapAddr(), bm)
	var i uint64
	for i < h.blocks {
		b := bm[i]
		if b&bmStart == 0 {
			i++ // torn map byte or interior; skip defensively
			continue
		}
		o := uint(b & bmOrder)
		switch {
		case b&bmAlloc == 0:
			h.order[o].push(i)
			h.freeBlks += 1 << o
		case b&bmCached != 0:
			// Parked in a worker cache. A live entry is the authority
			// for its slab's accounting (rescan runs under an abort
			// whose rollback may concern other blocks entirely);
			// without one this is a crash orphan, queued for
			// ReclaimParked.
			if e := h.parked[i]; e == nil || !e.Live() {
				h.pending = append(h.pending, h.scanParked(i))
			}
		case b&bmSlab != 0:
			h.scanSlab(h.blockAddr(i))
		default:
			h.liveObjs++
		}
		i += 1 << o
	}
	h.rescanRecords(bm)
}

// rescanRecords rebuilds the volatile cache-record slot map and the
// heal list from the persistent record region, then attaches record
// slots to the pending slabs they describe.
func (h *Heap) rescanRecords(bm []byte) {
	if h.recSlots == 0 {
		return
	}
	seen := make(map[uint64]int)
	for s := 0; s < h.recSlots; s++ {
		ra := h.recAddr(s)
		if h.dev.LoadU64(ra+crOffOwner) == 0 {
			continue
		}
		h.recUsed[s] = true
		ext := h.dev.LoadU64(ra + crOffExtent)
		if ext >= h.blocks || bm[ext]&(bmStart|bmCached) != bmStart|bmCached {
			h.healRecs = append(h.healRecs, s)
			continue
		}
		if _, dup := seen[ext]; dup {
			h.healRecs = append(h.healRecs, s)
			continue
		}
		seen[ext] = s
	}
	for i := range h.pending {
		if s, ok := seen[h.pending[i].idx]; ok {
			h.pending[i].rec = s
		}
	}
}

func (h *Heap) scanSlab(base pmem.Addr) {
	if h.dev.LoadU32(base+sOffMagic) != slabMagic {
		return
	}
	class := h.dev.LoadU32(base + sOffElemSize)
	count := h.dev.LoadU32(base + sOffElemCount)
	tid := ptypes.TypeID(h.dev.LoadU64(base + sOffTypeID))
	var buf [40]byte
	used := 0
	for i, b := range h.loadBitmap(base, count, &buf) {
		for j := 0; j < 8; j++ {
			e := uint32(i*8 + j)
			if e >= count {
				break
			}
			if b&(1<<j) != 0 {
				used++
			}
		}
	}
	h.liveObjs += uint64(used)
	if used < int(count) {
		k := slabKey{tid, class}
		h.slabs[k] = append(h.slabs[k], base)
	}
}

func (h *Heap) slabBit(slab pmem.Addr, e uint32) bool {
	b := h.dev.LoadU8(slab + sOffBitmap + pmem.Addr(e/8))
	return b&(1<<(e%8)) != 0
}

// loadBitmap reads a slab's occupancy bitmap in one device access.
func (h *Heap) loadBitmap(slab pmem.Addr, count uint32, buf *[40]byte) []byte {
	n := (count + 7) / 8
	h.dev.Load(slab+sOffBitmap, buf[:n])
	return buf[:n]
}

// findFreeSlot returns the first free element index, or -1. The
// occupancy bitmap is 8-byte aligned (sOffBitmap = 24 off a 4 KiB
// block), so the scan runs one word at a time: the first word with a
// zero bit locates the slot via trailing-zeros on its complement.
// Bits beyond count are never set, so a full slab resolves to a slot
// index >= count exactly once, in the last word.
func (h *Heap) findFreeSlot(slab pmem.Addr, count uint32) int32 {
	for w := uint32(0); w*64 < count; w++ {
		inv := ^h.dev.LoadU64(slab + sOffBitmap + pmem.Addr(w*8))
		if inv == 0 {
			continue
		}
		e := w*64 + uint32(bits.TrailingZeros64(inv))
		if e >= count {
			return -1
		}
		return int32(e)
	}
	return -1
}

// slabEmpty reports whether no element of the slab is allocated.
func (h *Heap) slabEmpty(slab pmem.Addr, count uint32) bool {
	for w := uint32(0); w*64 < count; w++ {
		if h.dev.LoadU64(slab+sOffBitmap+pmem.Addr(w*8)) != 0 {
			return false
		}
	}
	return true
}

// wordMask returns the valid-bit mask for word w of a count-element
// occupancy bitmap.
func wordMask(w, count uint32) uint64 {
	if w*64 >= count {
		return 0
	}
	if rem := count - w*64; rem < 64 {
		return (uint64(1) << rem) - 1
	}
	return ^uint64(0)
}

func (h *Heap) setSlabBit(m Mutator, slab pmem.Addr, e uint32, v bool) {
	a := slab + sOffBitmap + pmem.Addr(e/8)
	b := h.dev.LoadU8(a)
	if v {
		b |= 1 << (e % 8)
	} else {
		b &^= 1 << (e % 8)
	}
	m.Write(a, []byte{b})
}

// allocBlock removes a free block of exactly the given order, splitting
// larger blocks as needed. The block at heap start is preferred while
// free: the first allocation of a fresh puddle therefore lands at the
// fixed root offset (paper §4.5: "the object allocator always
// allocates the first object at a fixed offset"), and growth stays
// dense at low addresses.
func (h *Heap) allocBlock(m Mutator, want uint) (uint64, error) {
	var idx uint64
	var o uint
	if b0 := h.dev.LoadU8(h.bmAddr(0)); b0&bmStart != 0 && b0&bmAlloc == 0 && uint(b0&bmOrder) >= want {
		o = uint(b0 & bmOrder)
		if !h.order[o].remove(0) {
			return 0, fmt.Errorf("alloc: free list desynchronized at block 0")
		}
	} else {
		o = want
		for o <= maxOrder && h.order[o].len() == 0 {
			o++
		}
		if o > maxOrder {
			return 0, ErrNoSpace
		}
		idx = h.order[o].pop()
	}
	// Split down to the requested order, keeping the low half.
	for o > want {
		o--
		buddy := idx + (1 << o)
		m.Write(h.bmAddr(buddy), []byte{bmStart | byte(o)})
		h.order[o].push(buddy)
	}
	h.freeBlks -= 1 << want
	return idx, nil
}

// freeBlock returns a block to the free lists, merging buddies.
func (h *Heap) freeBlock(m Mutator, idx uint64, o uint) {
	h.freeBlks += 1 << o
	for o < maxOrder {
		buddy := idx ^ (1 << o)
		if buddy >= h.blocks {
			break
		}
		// Detach the buddy and merge; O(1) via the position index.
		if !h.order[o].remove(buddy) {
			break
		}
		lo := idx
		if buddy < idx {
			lo = buddy
		}
		hi := lo + (1 << o)
		m.Write(h.bmAddr(hi), []byte{0})
		idx = lo
		o++
	}
	m.Write(h.bmAddr(idx), []byte{bmStart | byte(o)})
	h.order[o].push(idx)
}

// orderForBytes returns the smallest order whose block holds n bytes.
func orderForBytes(n uint64) uint {
	o := uint(0)
	for uint64(puddle.BlockSize)<<o < n {
		o++
	}
	return o
}

// Alloc allocates size bytes typed typeID and returns the payload
// address. The object's contents are undefined (malloc semantics).
func (h *Heap) Alloc(m Mutator, typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	if size == 0 {
		return 0, ErrBadSize
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if class, ok := classFor(size); ok {
		return h.allocSmall(m, typeID, class)
	}
	return h.allocLarge(m, typeID, size)
}

// AllocLarge always uses the buddy path, even for small sizes. The
// pool root object is allocated this way so it lands at the fixed root
// offset (paper §4.5).
func (h *Heap) AllocLarge(m Mutator, typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocLarge(m, typeID, size)
}

func (h *Heap) allocLarge(m Mutator, typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	need := uint64(size) + ObjHdrSize
	o := orderForBytes(need)
	if o > maxOrder || uint64(puddle.BlockSize)<<o > h.P.HeapSize() {
		return 0, ErrTooLarge
	}
	idx, err := h.allocBlock(m, o)
	if err != nil {
		return 0, err
	}
	base := h.blockAddr(idx)
	m.Write(h.bmAddr(idx), []byte{bmStart | bmAlloc | byte(o)})
	m.WriteU64(base+oOffType, uint64(typeID))
	m.WriteU64(base+oOffSize, uint64(size))
	h.liveObjs++
	payload := base + ObjHdrSize
	m.RegisterNew(payload, int(size))
	return payload, nil
}

func (h *Heap) allocSmall(m Mutator, typeID ptypes.TypeID, class uint32) (pmem.Addr, error) {
	k := slabKey{typeID, class}
	for _, slab := range h.slabs[k] {
		count := h.dev.LoadU32(slab + sOffElemCount)
		e := h.findFreeSlot(slab, count)
		if e < 0 {
			h.dropSlab(k, slab) // stale index entry
			continue
		}
		h.setSlabBit(m, slab, uint32(e), true)
		h.liveObjs++
		addr := slab + slabHdrSize + pmem.Addr(uint32(e)*class)
		m.RegisterNew(addr, int(class))
		if h.findFreeSlot(slab, count) < 0 {
			h.dropSlab(k, slab)
		}
		return addr, nil
	}
	// No slab with space: carve a new one.
	idx, err := h.allocBlock(m, slabOrder)
	if err != nil {
		return 0, err
	}
	base := h.blockAddr(idx)
	m.Write(h.bmAddr(idx), []byte{bmStart | bmAlloc | bmSlab | slabOrder})
	count := uint32((slabSize - slabHdrSize) / class)
	var hdr [slabHdrSize]byte
	m.Write(base, hdr[:]) // zero the header (incl. bitmap)
	m.WriteU64(base+sOffTypeID, uint64(typeID))
	var w [8]byte
	putU32(w[:4], slabMagic)
	putU32(w[4:], class)
	m.Write(base+sOffMagic, w[:])
	putU32(w[:4], count)
	m.Write(base+sOffElemCount, w[:4])
	h.setSlabBit(m, base, 0, true)
	h.slabs[k] = append(h.slabs[k], base)
	h.liveObjs++
	addr := base + slabHdrSize
	m.RegisterNew(addr, int(class))
	return addr, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func (h *Heap) fullSlab(slab pmem.Addr, count uint32) bool {
	return h.findFreeSlot(slab, count) < 0
}

func (h *Heap) dropSlab(k slabKey, slab pmem.Addr) {
	lst := h.slabs[k]
	for i, s := range lst {
		if s == slab {
			h.slabs[k] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// findStart locates the buddy block containing heap index idx.
func (h *Heap) findStart(idx uint64) (start uint64, b byte, ok bool) {
	bmBase := h.P.BlockMapAddr()
	for o := uint(0); o <= maxOrder; o++ {
		c := idx &^ ((1 << o) - 1)
		cb := h.dev.LoadU8(bmBase + pmem.Addr(c))
		if cb&bmStart == 0 {
			continue
		}
		co := uint(cb & bmOrder)
		if co >= o && c+(1<<co) > idx {
			return c, cb, true
		}
		return 0, 0, false // found a start that doesn't cover idx
	}
	return 0, 0, false
}

// Free releases the object whose payload starts at addr.
func (h *Heap) Free(m Mutator, addr pmem.Addr) error {
	if addr < h.P.HeapBase() || addr >= h.P.Base+pmem.Addr(h.P.Size()) {
		return ErrBadFree
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := h.blockIdx(addr)
	start, b, ok := h.findStart(idx)
	if !ok || b&bmAlloc == 0 {
		return ErrBadFree
	}
	if b&bmCached != 0 {
		return ErrParked
	}
	base := h.blockAddr(start)
	o := uint(b & bmOrder)
	if b&bmSlab != 0 {
		return h.freeSmall(m, base, addr)
	}
	if addr != base+ObjHdrSize {
		return ErrBadFree
	}
	m.Write(h.bmAddr(start), []byte{bmStart | byte(o)})
	h.liveObjs--
	h.freeBlock(m, start, o)
	return nil
}

func (h *Heap) freeSmall(m Mutator, slab, addr pmem.Addr) error {
	class := h.dev.LoadU32(slab + sOffElemSize)
	count := h.dev.LoadU32(slab + sOffElemCount)
	off := uint64(addr - slab - slabHdrSize)
	if addr < slab+slabHdrSize || off%uint64(class) != 0 || uint32(off/uint64(class)) >= count {
		return ErrBadFree
	}
	e := uint32(off / uint64(class))
	if !h.slabBit(slab, e) {
		return ErrBadFree
	}
	wasFull := h.fullSlab(slab, count)
	h.setSlabBit(m, slab, e, false)
	h.liveObjs--
	tid := ptypes.TypeID(h.dev.LoadU64(slab + sOffTypeID))
	k := slabKey{tid, class}
	idx := h.blockIdx(slab)
	// Empty slab: return the page to the buddy allocator.
	if h.slabEmpty(slab, count) {
		h.dropSlab(k, slab)
		m.Write(slab+sOffMagic, []byte{0, 0, 0, 0}) // kill the slab magic
		m.Write(h.bmAddr(idx), []byte{bmStart | slabOrder})
		h.freeBlock(m, idx, slabOrder)
		return nil
	}
	if wasFull {
		h.slabs[k] = append(h.slabs[k], slab)
	}
	return nil
}

// Object describes one live allocation.
type Object struct {
	Addr   pmem.Addr
	TypeID ptypes.TypeID
	Size   uint32
}

// Objects calls fn for every live object in the heap, in address
// order. Iteration stops if fn returns false. This is the enumeration
// the relocation engine uses to find pointers (paper §4.2). The heap
// lock is held for the duration: fn must not call back into the same
// Heap.
func (h *Heap) Objects(fn func(Object) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bm := make([]byte, h.blocks)
	h.dev.Load(h.P.BlockMapAddr(), bm)
	var i uint64
	for i < h.blocks {
		b := bm[i]
		if b&bmStart == 0 {
			i++
			continue
		}
		o := uint(b & bmOrder)
		base := h.blockAddr(i)
		if b&bmAlloc != 0 {
			if b&bmSlab != 0 {
				class := h.dev.LoadU32(base + sOffElemSize)
				count := h.dev.LoadU32(base + sOffElemCount)
				tid := ptypes.TypeID(h.dev.LoadU64(base + sOffTypeID))
				for e := uint32(0); e < count; e++ {
					if h.slabBit(base, e) {
						obj := Object{base + slabHdrSize + pmem.Addr(e*class), tid, class}
						if !fn(obj) {
							return
						}
					}
				}
			} else {
				tid := ptypes.TypeID(h.dev.LoadU64(base + oOffType))
				size := uint32(h.dev.LoadU64(base + oOffSize))
				if !fn(Object{base + ObjHdrSize, tid, size}) {
					return
				}
			}
		}
		i += 1 << o
	}
}

// SizeOf returns the payload size of the object at addr.
func (h *Heap) SizeOf(addr pmem.Addr) (uint32, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := h.blockIdx(addr)
	start, b, ok := h.findStart(idx)
	if !ok || b&bmAlloc == 0 {
		return 0, ErrBadFree
	}
	base := h.blockAddr(start)
	if b&bmSlab != 0 {
		return h.dev.LoadU32(base + sOffElemSize), nil
	}
	return uint32(h.dev.LoadU64(base + oOffSize)), nil
}

// TypeOf returns the type ID of the object at addr.
func (h *Heap) TypeOf(addr pmem.Addr) (ptypes.TypeID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := h.blockIdx(addr)
	start, b, ok := h.findStart(idx)
	if !ok || b&bmAlloc == 0 {
		return 0, ErrBadFree
	}
	base := h.blockAddr(start)
	if b&bmSlab != 0 {
		return ptypes.TypeID(h.dev.LoadU64(base + sOffTypeID)), nil
	}
	return ptypes.TypeID(h.dev.LoadU64(base + oOffType)), nil
}

// FreeBytes returns a lower bound on allocatable bytes (free buddy
// blocks; slack inside slabs is not counted).
func (h *Heap) FreeBytes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.freeBlks * puddle.BlockSize
}

// LiveObjects returns the number of live allocations, including
// objects inside parked (worker-cached) slabs and crash-orphaned
// parked slabs awaiting reclaim.
func (h *Heap) LiveObjects() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.liveObjs
	for _, e := range h.parked {
		n += uint64(e.liveN.Load())
	}
	for _, ps := range h.pending {
		n += uint64(ps.live)
	}
	return n
}

// Validate checks heap invariants (block map consistency, no
// overlapping blocks, free-list accuracy) for tests.
func (h *Heap) Validate() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	bm := make([]byte, h.blocks)
	h.dev.Load(h.P.BlockMapAddr(), bm)
	free := make(map[uint64]uint)
	for o := range h.order {
		for _, idx := range h.order[o].items {
			if _, dup := free[idx]; dup {
				return fmt.Errorf("block %d on two free lists", idx)
			}
			free[idx] = uint(o)
		}
	}
	pendingIdx := make(map[uint64]bool, len(h.pending))
	for _, ps := range h.pending {
		pendingIdx[ps.idx] = true
	}
	var i uint64
	covered := uint64(0)
	for i < h.blocks {
		b := bm[i]
		if b&bmStart == 0 {
			return fmt.Errorf("block %d: expected a start byte, got %#x", i, b)
		}
		o := uint(b & bmOrder)
		if i%(1<<o) != 0 {
			return fmt.Errorf("block %d: misaligned for order %d", i, o)
		}
		if i+(1<<o) > h.blocks {
			return fmt.Errorf("block %d: order %d overruns heap", i, o)
		}
		for j := i + 1; j < i+(1<<o); j++ {
			if bm[j] != 0 {
				return fmt.Errorf("block %d: interior byte %d is %#x", i, j, bm[j])
			}
		}
		if b&bmCached != 0 {
			// A parked slab is allocated to exactly one owner: a live
			// worker cache entry, or the pending-reclaim queue.
			if b&bmAlloc == 0 || b&bmSlab == 0 {
				return fmt.Errorf("block %d: cached byte %#x without alloc|slab flags", i, b)
			}
			e := h.parked[i]
			if (e == nil || !e.Live()) && !pendingIdx[i] {
				return fmt.Errorf("parked block %d leaked: no cache entry and no pending reclaim", i)
			}
			if e != nil && e.Live() && pendingIdx[i] {
				return fmt.Errorf("parked block %d double-owned: live cache entry and pending reclaim", i)
			}
		}
		if b&bmAlloc == 0 {
			fo, ok := free[i]
			if !ok || fo != o {
				return fmt.Errorf("free block %d (order %d) missing from free list", i, o)
			}
			delete(free, i)
		}
		covered += 1 << o
		i += 1 << o
	}
	if covered != h.blocks {
		return fmt.Errorf("coverage %d != %d blocks", covered, h.blocks)
	}
	if len(free) != 0 {
		return fmt.Errorf("%d stale free-list entries", len(free))
	}
	return nil
}
