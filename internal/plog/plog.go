// Package plog implements Puddles' crash-consistency logs: the log
// format of paper Figure 6 and the log spaces of Figure 5.
//
// A log is a sequence of self-validating entries plus metadata that
// controls recovery. Each entry carries the target address, a sequence
// number, a replay order (forward for redo, backward for undo), flags,
// and a checksum; each log carries an epoch, mixed into every checksum,
// and a sequence range [lo, hi). An entry is live iff its checksum
// matches under the current epoch and lo ≤ seq < hi. The format is
// expressive enough for undo, redo, and hybrid logging, and structured
// enough that the daemon can replay it safely with no application
// involvement — replay is a plain copy of entry data to the entry
// address.
//
// # At rest
//
// An idle log has range (0,2) (RangeUndoOnly), an epoch no entry was
// ever written under, and used = 0 in every segment. Nothing is live,
// and nothing has to be persisted to begin a transaction: the first
// Append is already a recoverable undo entry. FormatLog and Reset both
// leave a log in this state.
//
// # One commit point per discipline
//
//   - Undo-only transaction (k ranges): k Appends, one fence over the
//     logged locations, then Reset. Reset's fence is the commit point:
//     before it recovery rolls the transaction back, after it the log
//     is empty. k + 2 fences.
//   - Hybrid transaction (k undo ranges, r redo entries): the commit
//     point is the single 8-byte range store (0,2) → (2,4) (SetRange),
//     which disables the undo entries and enables the redo entries at
//     once; the redo entries are applied and fenced, then Reset retires
//     the log. k + r + 4 fences.
//
// # Nothing shrinks under the old epoch
//
// Reset stores, in this order, epoch+1, range (0,2) and used = 0 into
// the head segment's header — three words of one cacheline (FormatLog
// and OpenLog refuse a head whose words straddle two) — and persists
// them with one flush and one fence. Stores to one cacheline reach
// persistence in program order (x86-TSO; the chaos device persists a
// line as it stood at some store boundary), so whatever prefix of the
// three survives a crash, the epoch bump is part of it. That ordering
// is the safety argument: the epoch bump invalidates every entry of the
// transaction at once, whereas used = 0, a rewound tail segment or a
// reopened range (0,2) on their own would each hide or re-enable only
// some entries, and recovery would replay a strict subset of a
// committed transaction's undo log over its data. So everything that
// shrinks or re-labels the visible entry set is either ordered behind
// the epoch in the same line or issued after the fence: the used
// counters of chained tail segments rewind only after it, flush-only,
// and ride the next Append's fence (a stale tail counter exposes only
// old-epoch entries, which no checksum accepts).
//
// The tear table for a crash inside Reset (head line as persisted):
//
//	epoch   range   head used  tail used   recovery sees
//	old     old     old        old         the whole transaction: undo
//	                                       rolls it back, or (range
//	                                       (2,4)) redo re-applies it
//	new     old     old        old         nothing (checksums fail)
//	new     (0,2)   old        old         nothing
//	new     (0,2)   0          old         nothing
//	new     (0,2)   0          0           nothing — the at-rest state
//
// "old epoch with any of range, head used or tail used already new" is
// the row that must not exist, and does not.
//
// Logs live in designated log puddles and can chain across several
// puddles when they outgrow one (Figure 5). A log space is a directory
// puddle listing every log the application registered with the daemon.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"

	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// Replay orders.
const (
	// OrderForward entries replay in append order (redo logging).
	OrderForward uint16 = 0
	// OrderBackward entries replay in reverse append order (undo).
	OrderBackward uint16 = 1
)

// Entry flags.
const (
	// FlagVolatile marks an entry whose target is volatile memory; the
	// daemon skips it during post-crash recovery (the volatile state is
	// gone), but the runtime applies it on transaction abort (§4.1).
	FlagVolatile uint16 = 1 << 0
)

// Conventional sequence numbers for hybrid logging (paper Fig. 7).
const (
	SeqUndo uint32 = 1
	SeqRedo uint32 = 3
)

// Conventional sequence ranges. A log rests at RangeUndoOnly; a hybrid
// commit publishes RangeRedoOnly at its commit point and Reset returns
// the log to RangeUndoOnly under a fresh epoch.
var (
	RangeUndoOnly = [2]uint32{0, 2} // at rest and while logging: replay undo only
	RangeRedoOnly = [2]uint32{2, 4} // after a hybrid commit point: replay redo only
	RangeNone     = [2]uint32{4, 4} // replay nothing
)

// restRange is RangeUndoOnly as the on-media word.
const restRange = uint64(0)<<32 | 2

const (
	logMagic = 0x31474f4c50 // "PLOG1"

	// Segment header layout (at the start of each log segment).
	lOffMagic = 0
	lOffEpoch = 8  // u64: generation, mixed into every checksum
	lOffRange = 16 // u64: lo<<32 | hi
	lOffUsed  = 24 // u64: bytes of entries in this segment
	lOffNext  = 32 // u64: global address of next segment's header, 0=end
	lOffCap   = 40 // u64: entry-area capacity of this segment
	lHdrSize  = 64

	// Entry header layout.
	eOffCk    = 0  // u64 checksum
	eOffAddr  = 8  // u64 target address
	eOffSeq   = 16 // u32
	eOffOrder = 20 // u16
	eOffFlags = 22 // u16
	eOffSize  = 24 // u64 data bytes
	// EntryHdrSize is the fixed per-entry overhead.
	EntryHdrSize = 32
)

var crcTable = crc64.MakeTable(crc64.ISO)

// Errors.
var (
	ErrBadLog   = errors.New("plog: not a formatted log")
	ErrLogFull  = errors.New("plog: log is full and no grow function was provided")
	ErrTooSmall = errors.New("plog: region too small for a log segment")
	// ErrMisaligned rejects a head segment whose epoch, range and used
	// words do not share a cacheline; Reset's single fence depends on it.
	ErrMisaligned = errors.New("plog: log header straddles a cacheline")
	// ErrOutOfBounds reports a segment that does not lie inside a region
	// the opener's BoundsFunc vouches for.
	ErrOutOfBounds = errors.New("plog: log segment outside its puddle")
	// ErrBadEntry reports an entry whose size field runs past the bytes
	// its segment holds. The scan of that segment ends there, as it does
	// at a bad checksum.
	ErrBadEntry = errors.New("plog: entry size exceeds its segment")
)

// Entry is one log record.
type Entry struct {
	Addr  pmem.Addr
	Seq   uint32
	Order uint16
	Flags uint16
	Data  []byte
}

func entrySpan(dataLen int) uint64 {
	return EntryHdrSize + (uint64(dataLen)+7)&^7
}

// GrowFunc supplies a fresh region (the heap of a new log puddle) when
// the log runs out of space. Libpuddles backs it with GetNewPuddle.
type GrowFunc func() (pmem.Range, error)

// Log is a handle to a (possibly multi-segment) log.
type Log struct {
	dev  *pmem.Device
	segs []pmem.Range // segs[0] holds the epoch and sequence range
}

// headAligned reports whether the words Reset persists together (epoch,
// range, used) of a head segment at base share one cacheline.
func headAligned(base pmem.Addr) bool {
	return (base+lOffEpoch)/pmem.LineSize == (base+lOffUsed+7)/pmem.LineSize
}

// FormatLog initialises a log over region, at rest, and returns a handle.
func FormatLog(dev *pmem.Device, region pmem.Range) (*Log, error) {
	if region.Size() < lHdrSize+EntryHdrSize+8 {
		return nil, ErrTooSmall
	}
	base := region.Start
	if !headAligned(base) {
		return nil, ErrMisaligned
	}
	dev.Zero(base, lHdrSize)
	dev.StoreU64(base+lOffCap, region.Size()-lHdrSize)
	dev.StoreU64(base+lOffEpoch, 1)
	dev.StoreU64(base+lOffRange, restRange)
	dev.Persist(base, lHdrSize)
	dev.StoreU64(base+lOffMagic, logMagic)
	dev.Persist(base+lOffMagic, 8)
	return &Log{dev: dev, segs: []pmem.Range{region}}, nil
}

// BoundsFunc names the region a log segment whose header sits at base
// may occupy — for the daemon, the registered log puddle containing
// base. ok = false means no such region exists.
type BoundsFunc func(base pmem.Addr) (region pmem.Range, ok bool)

// OpenLog opens a formatted log at base, following the segment chain.
// Every segment, the head and each one a next pointer names, must sit
// inside the region bounds returns for it, and a capacity field that
// claims more is clamped to that region, the same way Scan clamps used
// to the capacity: whoever wrote the log can make its reader neither
// read nor allocate beyond the regions bounds vouches for. A nil bounds
// is for a log's own writer, who trusts its headers; segments are then
// bounded by the device only.
func OpenLog(dev *pmem.Device, base pmem.Addr, bounds BoundsFunc) (*Log, error) {
	l := &Log{dev: dev}
	for base != 0 {
		region, ok := pmem.Range{Start: base, End: pmem.MaxAddr}, true
		if bounds != nil {
			region, ok = bounds(base)
		}
		if !ok || !region.Contains(base) || region.End > pmem.MaxAddr || uint64(region.End-base) < lHdrSize {
			if len(l.segs) > 0 {
				break // wild next pointer: ignore the tail, as for a torn extension
			}
			return nil, ErrOutOfBounds
		}
		if dev.LoadU64(base+lOffMagic) != logMagic {
			if len(l.segs) > 0 {
				break // torn chain extension: ignore the unformatted tail
			}
			return nil, ErrBadLog
		}
		if len(l.segs) == 0 && !headAligned(base) {
			return nil, ErrMisaligned
		}
		capacity := dev.LoadU64(base + lOffCap)
		if room := uint64(region.End-base) - lHdrSize; capacity > room {
			capacity = room
		}
		seg := pmem.Range{Start: base, End: base + pmem.Addr(lHdrSize+capacity)}
		if slices.ContainsFunc(l.segs, seg.Overlaps) {
			break // next pointer back into the chain: one region is never scanned twice
		}
		l.segs = append(l.segs, seg)
		base = pmem.Addr(dev.LoadU64(base + lOffNext))
		if len(l.segs) > 1024 {
			return nil, fmt.Errorf("plog: segment chain too long (corrupt next pointer?)")
		}
	}
	return l, nil
}

// Head returns the address of the log's first segment (its identity).
func (l *Log) Head() pmem.Addr { return l.segs[0].Start }

// Segments returns the number of chained segments.
func (l *Log) Segments() int { return len(l.segs) }

func (l *Log) epoch() uint64 { return l.dev.LoadU64(l.segs[0].Start + lOffEpoch) }

// SetRange atomically publishes the sequence range [lo, hi) and
// persists it — the stage transitions of paper Figure 7.
func (l *Log) SetRange(lo, hi uint32) {
	a := l.segs[0].Start + lOffRange
	l.dev.StoreU64(a, uint64(lo)<<32|uint64(hi))
	l.dev.Persist(a, 8)
}

// Range returns the current sequence range.
func (l *Log) Range() (lo, hi uint32) {
	w := l.dev.LoadU64(l.segs[0].Start + lOffRange)
	return uint32(w >> 32), uint32(w)
}

func (l *Log) checksum(epoch uint64, hdr []byte, data []byte) uint64 {
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], epoch)
	ck := crc64.Update(0, crcTable, eb[:])
	ck = crc64.Update(ck, crcTable, hdr)
	return crc64.Update(ck, crcTable, data)
}

// Append writes an entry, persisting it before publishing it via the
// segment's used counter. If the active segment is full and grow is
// non-nil, a new segment is chained in.
func (l *Log) Append(e Entry, grow GrowFunc) error {
	span := entrySpan(len(e.Data))
	seg := l.segs[len(l.segs)-1]
	used := l.dev.LoadU64(seg.Start + lOffUsed)
	capacity := l.dev.LoadU64(seg.Start + lOffCap)
	if used+span > capacity {
		if grow == nil {
			return ErrLogFull
		}
		region, err := grow()
		if err != nil {
			return err
		}
		if region.Size() < lHdrSize+span {
			return ErrTooSmall
		}
		// Format the new segment, then link it (link persisted last so
		// a crash mid-grow leaves a clean chain).
		base := region.Start
		l.dev.Zero(base, lHdrSize)
		l.dev.StoreU64(base+lOffCap, region.Size()-lHdrSize)
		l.dev.StoreU64(base+lOffMagic, logMagic)
		l.dev.Persist(base, lHdrSize)
		l.dev.StoreU64(seg.Start+lOffNext, uint64(base))
		l.dev.Persist(seg.Start+lOffNext, 8)
		l.segs = append(l.segs, region)
		seg = region
		used = 0
		capacity = region.Size() - lHdrSize
		if used+span > capacity {
			return ErrTooSmall
		}
	}
	at := seg.Start + lHdrSize + pmem.Addr(used)
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffAddr:], uint64(e.Addr))
	binary.LittleEndian.PutUint32(hdr[eOffSeq:], e.Seq)
	binary.LittleEndian.PutUint16(hdr[eOffOrder:], e.Order)
	binary.LittleEndian.PutUint16(hdr[eOffFlags:], e.Flags)
	binary.LittleEndian.PutUint64(hdr[eOffSize:], uint64(len(e.Data)))
	ck := l.checksum(l.epoch(), hdr[8:], e.Data)
	binary.LittleEndian.PutUint64(hdr[eOffCk:], ck)
	l.dev.Store(at, hdr[:])
	if len(e.Data) > 0 {
		l.dev.Store(at+EntryHdrSize, e.Data)
	}
	// One fence covers both the entry and the used-counter bump: a torn
	// bump is harmless because recovery re-derives validity from the
	// epoch-bound checksums (and clamps a wild counter).
	l.dev.Flush(at, int(span))
	l.dev.StoreU64(seg.Start+lOffUsed, used+span)
	l.dev.Flush(seg.Start+lOffUsed, 8)
	l.dev.Fence()
	return nil
}

// Scan is the log's one decoder. It returns all structurally valid
// entries (current epoch, good checksum) in append order; sequence-range
// filtering is the replayer's job. Partially persisted entries are
// detected by checksum and end the scan of their segment, exactly like
// PMDK (paper §4.1). The error is the first structural defect the scan
// met: ErrBadEntry (wrapped, with the position) when an entry's size
// field runs past its segment. That is what a stale or half-written
// entry can look like, and it is also the one field a hostile owner
// could use to make the scanner allocate without bound, so the size is
// checked against the bytes the segment holds before anything is
// allocated for it.
func (l *Log) Scan() ([]Entry, error) {
	epoch := l.epoch()
	var out []Entry
	var defect error
	for _, seg := range l.segs {
		// The handle's segment size was clamped when the log was opened;
		// a capacity field rewritten since cannot widen it.
		capacity := min(l.dev.LoadU64(seg.Start+lOffCap), seg.Size()-lHdrSize)
		used := l.dev.LoadU64(seg.Start + lOffUsed)
		if used > capacity {
			used = capacity // wild used counter: clamp and let checksums decide
		}
		var off uint64
		for off+EntryHdrSize <= used {
			at := seg.Start + lHdrSize + pmem.Addr(off)
			var hdr [EntryHdrSize]byte
			l.dev.Load(at, hdr[:])
			size := binary.LittleEndian.Uint64(hdr[eOffSize:])
			if size > used-off-EntryHdrSize {
				if defect == nil {
					defect = fmt.Errorf("%w: segment %#x entry at +%d declares %d bytes, %d remain",
						ErrBadEntry, uint64(seg.Start), off, size, used-off-EntryHdrSize)
				}
				break
			}
			span := entrySpan(int(size))
			if off+span > used {
				break
			}
			data := make([]byte, size)
			if size > 0 {
				l.dev.Load(at+EntryHdrSize, data)
			}
			want := binary.LittleEndian.Uint64(hdr[eOffCk:])
			if l.checksum(epoch, hdr[8:], data) != want {
				break
			}
			out = append(out, Entry{
				Addr:  pmem.Addr(binary.LittleEndian.Uint64(hdr[eOffAddr:])),
				Seq:   binary.LittleEndian.Uint32(hdr[eOffSeq:]),
				Order: binary.LittleEndian.Uint16(hdr[eOffOrder:]),
				Flags: binary.LittleEndian.Uint16(hdr[eOffFlags:]),
				Data:  data,
			})
			off += span
		}
	}
	return out, defect
}

// Entries is Scan for callers that treat a defect like a torn tail.
func (l *Log) Entries() []Entry {
	out, _ := l.Scan()
	return out
}

// Reset invalidates every entry and returns the log to rest: one flush
// and one fence, which is the commit point of an undo-only transaction.
// The store order within the head line (epoch, then range, then used)
// and the tail rewinds coming only after the fence are what make a
// crash anywhere in here all-or-nothing; see the package comment.
// Chained segments stay linked for reuse.
func (l *Log) Reset() {
	head := l.segs[0].Start
	l.dev.StoreU64(head+lOffEpoch, l.epoch()+1)
	l.dev.StoreU64(head+lOffRange, restRange)
	l.dev.StoreU64(head+lOffUsed, 0)
	l.dev.Flush(head+lOffEpoch, lOffUsed+8-lOffEpoch)
	l.dev.Fence()
	for _, seg := range l.segs[1:] {
		l.dev.StoreU64(seg.Start+lOffUsed, 0)
		l.dev.Flush(seg.Start+lOffUsed, 8)
	}
}

// AtRest reports whether the log is in the state FormatLog and Reset
// leave it in: undo window open, no segment holding anything. A crash
// between the stores of Reset, and a log an older build reset to range
// (0,0), are the two ways to be neither pending nor at rest; recovery
// resets such a log, because an Append behind a stale used counter
// would land after entries no scan gets past.
func (l *Log) AtRest() bool {
	if l.dev.LoadU64(l.segs[0].Start+lOffRange) != restRange {
		return false
	}
	for _, seg := range l.segs {
		if l.dev.LoadU64(seg.Start+lOffUsed) != 0 {
			return false
		}
	}
	return true
}

// Pending reports whether the log holds any live (range-selected)
// entries — i.e. whether a crashed transaction needs recovery.
func (l *Log) Pending() bool {
	lo, hi := l.Range()
	if lo == hi {
		return false
	}
	entries, _ := l.Scan()
	for _, e := range entries {
		if e.Seq >= lo && e.Seq < hi {
			return true
		}
	}
	return false
}

// Replay applies the live entries of the log to the device: backward-
// order entries in reverse append order first (undo), then forward-
// order entries in append order (redo) — the recovery algorithm of
// paper §4.1. When system is true (daemon recovery), volatile-flagged
// entries are skipped. Replay leaves the log invalidated.
//
// applyFilter, when non-nil, is consulted per entry; returning false
// skips the write (the daemon uses this to enforce that recovery only
// touches addresses the crashed application could write — §4.6).
func (l *Log) Replay(system bool, applyFilter func(Entry) bool) int {
	lo, hi := l.Range()
	applied := 0
	if lo != hi {
		entries, _ := l.Scan()
		// Flushes are write-combined: entries from one transaction often
		// target the same or neighbouring cachelines (undo+redo pairs,
		// repeated updates), and nothing needs to be durable until the
		// single fence below, so one coalesced flush pass suffices.
		var fs pmem.FlushSet
		apply := func(e Entry) {
			if e.Seq < lo || e.Seq >= hi {
				return
			}
			if system && e.Flags&FlagVolatile != 0 {
				return
			}
			if applyFilter != nil && !applyFilter(e) {
				return
			}
			l.dev.Store(e.Addr, e.Data)
			fs.Add(e.Addr, len(e.Data))
			applied++
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if entries[i].Order == OrderBackward {
				apply(entries[i])
			}
		}
		for _, e := range entries {
			if e.Order == OrderForward {
				apply(e)
			}
		}
		fs.Flush(l.dev)
		l.dev.Fence()
	}
	l.Reset()
	return applied
}

// --- Log spaces (paper Fig. 5) ---

const (
	lsEntry = 32 // directory slot: u64 log head addr + 16B uuid + 8B reserved

	// A log space is a super-header describing the shard geometry,
	// followed by N independent shard directories. Each shard
	// directory has its own header (magic, mutable slot high-water,
	// capacity, shard index) and a CRC over its immutable geometry
	// fields, so a corrupt or misplaced shard is detected at open
	// instead of replaying garbage. The mutable count is deliberately
	// outside the CRC: slots publish with single 8-byte stores and must
	// stay torn-write atomic without read-modify-write of a checksum.
	slsMagic      = 0x3243505350 // "PSPC2"; any other magic is ErrBadLog
	slsOffMagic   = 0
	slsOffShards  = 8
	slsOffSegSize = 16
	slsOffCRC     = 24 // crc64 over shards|segSize
	slsHdrSize    = 64

	sdMagic    = 0x3144525348 // "HSRD1": one shard directory
	sdOffMagic = 0
	sdOffCount = 8  // mutable slot high-water (outside the CRC)
	sdOffCap   = 16 // immutable capacity in slots
	sdOffIdx   = 24 // immutable shard index
	sdOffCRC   = 32 // crc64 over magic|cap|idx
	sdHdrSize  = 64

	// MaxLogShards bounds the shard count a directory may declare; a
	// wild super-header cannot make open loop over millions of shards.
	MaxLogShards = 256
)

// ErrLogSpaceFull reports an exhausted log-space directory.
var ErrLogSpaceFull = errors.New("plog: log space is full")

// LogSpace is one shard directory of registered logs in a
// ShardedLogSpace. It performs no internal locking — callers serialize
// per directory (the client holds a per-shard latch; daemon recovery
// is quiesced).
type LogSpace struct {
	dev  *pmem.Device
	base pmem.Addr
	cap  int
}

func shardCRC(capacity, idx uint64) uint64 {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], sdMagic)
	binary.LittleEndian.PutUint64(b[8:], capacity)
	binary.LittleEndian.PutUint64(b[16:], idx)
	return crc64.Checksum(b[:], crcTable)
}

// formatShard initialises one shard directory over region.
func formatShard(dev *pmem.Device, region pmem.Range, idx int) (*LogSpace, error) {
	if region.Size() < sdHdrSize+lsEntry {
		return nil, ErrTooSmall
	}
	base := region.Start
	capacity := (region.Size() - sdHdrSize) / lsEntry
	dev.Zero(base, sdHdrSize)
	dev.StoreU64(base+sdOffCap, capacity)
	dev.StoreU64(base+sdOffIdx, uint64(idx))
	dev.StoreU64(base+sdOffCRC, shardCRC(capacity, uint64(idx)))
	dev.Persist(base, sdHdrSize)
	dev.StoreU64(base+sdOffMagic, sdMagic)
	dev.Persist(base+sdOffMagic, 8)
	return &LogSpace{dev: dev, base: base, cap: int(capacity)}, nil
}

// openShard validates one shard directory's header and geometry CRC.
func openShard(dev *pmem.Device, region pmem.Range, idx int) (*LogSpace, error) {
	base := region.Start
	if dev.LoadU64(base+sdOffMagic) != sdMagic {
		return nil, ErrBadLog
	}
	capacity := dev.LoadU64(base + sdOffCap)
	gotIdx := dev.LoadU64(base + sdOffIdx)
	if dev.LoadU64(base+sdOffCRC) != shardCRC(capacity, gotIdx) {
		return nil, fmt.Errorf("plog: shard %d header CRC mismatch", idx)
	}
	if gotIdx != uint64(idx) || sdHdrSize+capacity*lsEntry > region.Size() {
		return nil, fmt.Errorf("plog: shard %d geometry corrupt (idx=%d cap=%d)", idx, gotIdx, capacity)
	}
	return &LogSpace{dev: dev, base: base, cap: int(capacity)}, nil
}

func (ls *LogSpace) slotAddr(i int) pmem.Addr {
	return ls.base + sdHdrSize + pmem.Addr(i*lsEntry)
}

// AddLog registers a log (by the address of its head segment).
func (ls *LogSpace) AddLog(head pmem.Addr, id uid.UUID) error {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	// Reuse a tombstone if present.
	slot := -1
	for i := 0; i < n; i++ {
		if ls.dev.LoadU64(ls.slotAddr(i)) == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		if n >= ls.cap {
			return ErrLogSpaceFull
		}
		slot = n
	}
	a := ls.slotAddr(slot)
	ls.dev.Store(a+8, id[:])
	ls.dev.Persist(a+8, 16)
	ls.dev.StoreU64(a, uint64(head)) // address written last: publishes the slot
	ls.dev.Persist(a, 8)
	if slot == n {
		ls.dev.StoreU64(ls.base+sdOffCount, uint64(n+1))
		ls.dev.Persist(ls.base+sdOffCount, 8)
	}
	return nil
}

// RemoveLog tombstones the registration of the log at head.
func (ls *LogSpace) RemoveLog(head pmem.Addr) bool {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	for i := 0; i < n; i++ {
		a := ls.slotAddr(i)
		if pmem.Addr(ls.dev.LoadU64(a)) == head {
			ls.dev.StoreU64(a, 0)
			ls.dev.Persist(a, 8)
			return true
		}
	}
	return false
}

// Logs returns the head addresses of all registered logs.
func (ls *LogSpace) Logs() []pmem.Addr {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	var out []pmem.Addr
	for i := 0; i < n; i++ {
		if a := ls.dev.LoadU64(ls.slotAddr(i)); a != 0 {
			out = append(out, pmem.Addr(a))
		}
	}
	return out
}

// Capacity returns the maximum number of simultaneous registrations.
func (ls *LogSpace) Capacity() int { return ls.cap }

// --- sharded log spaces ---

// ShardedLogSpace stripes an application's log registrations across N
// independently-persisted shard directories, so concurrent workers
// register and unregister logs without sharing a directory (the client
// guards each shard with its own latch) and the daemon replays the
// shards of one crashed application in parallel.
type ShardedLogSpace struct {
	shards []*LogSpace
}

// SpaceSize returns the log-space puddle size to allocate for n shard
// directories: one page of slots per shard plus the header page,
// clamped to the minimum puddle. Client, benchmarks and chaos sweeps
// all size their directories through this so a geometry change cannot
// leave them exercising different layouts.
func SpaceSize(n int) uint64 {
	size := uint64(pmem.PageSize) * uint64(1+n)
	if size < puddle.MinSize {
		size = puddle.MinSize
	}
	return size
}

// shardedGeometry computes the per-shard segment size for a heap of
// heapSize bytes split n ways (cacheline aligned so simulated shard
// directories never share a line).
func shardedGeometry(heapSize uint64, n int) (segSize uint64, err error) {
	if n < 1 || n > MaxLogShards {
		return 0, fmt.Errorf("plog: shard count %d out of range [1,%d]", n, MaxLogShards)
	}
	segSize = (heapSize - slsHdrSize) / uint64(n) &^ 63
	if segSize < sdHdrSize+lsEntry {
		return 0, ErrTooSmall
	}
	return segSize, nil
}

// FormatShardedLogSpace initialises a sharded log space with n shard
// directories over p's heap.
func FormatShardedLogSpace(p *puddle.Puddle, n int) (*ShardedLogSpace, error) {
	dev := p.Dev
	base := p.HeapBase()
	segSize, err := shardedGeometry(p.HeapSize(), n)
	if err != nil {
		return nil, err
	}
	s := &ShardedLogSpace{shards: make([]*LogSpace, n)}
	for i := 0; i < n; i++ {
		start := base + slsHdrSize + pmem.Addr(uint64(i)*segSize)
		sh, err := formatShard(dev, pmem.Range{Start: start, End: start + pmem.Addr(segSize)}, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	// Super-header last: a crash mid-format leaves an unformatted
	// (invisible) space, exactly like puddle formatting.
	var g [16]byte
	binary.LittleEndian.PutUint64(g[0:], uint64(n))
	binary.LittleEndian.PutUint64(g[8:], segSize)
	dev.Zero(base, slsHdrSize)
	dev.StoreU64(base+slsOffShards, uint64(n))
	dev.StoreU64(base+slsOffSegSize, segSize)
	dev.StoreU64(base+slsOffCRC, crc64.Checksum(g[:], crcTable))
	dev.Persist(base, slsHdrSize)
	dev.StoreU64(base+slsOffMagic, slsMagic)
	dev.Persist(base+slsOffMagic, 8)
	return s, nil
}

// OpenShardedLogSpace opens the log space in p via its super-header.
func OpenShardedLogSpace(p *puddle.Puddle) (*ShardedLogSpace, error) {
	dev := p.Dev
	base := p.HeapBase()
	if dev.LoadU64(base+slsOffMagic) != slsMagic {
		return nil, ErrBadLog
	}
	n := dev.LoadU64(base + slsOffShards)
	segSize := dev.LoadU64(base + slsOffSegSize)
	var g [16]byte
	binary.LittleEndian.PutUint64(g[0:], n)
	binary.LittleEndian.PutUint64(g[8:], segSize)
	if dev.LoadU64(base+slsOffCRC) != crc64.Checksum(g[:], crcTable) {
		return nil, fmt.Errorf("plog: sharded log space geometry CRC mismatch")
	}
	if n < 1 || n > MaxLogShards || slsHdrSize+n*segSize > p.HeapSize() {
		return nil, fmt.Errorf("plog: sharded log space geometry corrupt (shards=%d seg=%d)", n, segSize)
	}
	s := &ShardedLogSpace{shards: make([]*LogSpace, n)}
	for i := 0; i < int(n); i++ {
		start := base + slsHdrSize + pmem.Addr(uint64(i)*segSize)
		sh, err := openShard(dev, pmem.Range{Start: start, End: start + pmem.Addr(segSize)}, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

// Shards returns the number of shard directories.
func (s *ShardedLogSpace) Shards() int { return len(s.shards) }

// Shard returns shard directory i (callers hold that shard's latch).
func (s *ShardedLogSpace) Shard(i int) *LogSpace { return s.shards[i] }

// AddLog registers a log in shard directory i. ErrLogSpaceFull means
// this shard is out of slots; callers may retry a sibling shard.
func (s *ShardedLogSpace) AddLog(i int, head pmem.Addr, id uid.UUID) error {
	return s.shards[i].AddLog(head, id)
}

// RemoveLog tombstones the registration of head in shard directory i.
func (s *ShardedLogSpace) RemoveLog(i int, head pmem.Addr) bool {
	return s.shards[i].RemoveLog(head)
}

// ShardLogs returns the registered log heads of shard directory i.
func (s *ShardedLogSpace) ShardLogs(i int) []pmem.Addr { return s.shards[i].Logs() }

// Logs returns the registered log heads of every shard.
func (s *ShardedLogSpace) Logs() []pmem.Addr {
	var out []pmem.Addr
	for _, sh := range s.shards {
		out = append(out, sh.Logs()...)
	}
	return out
}

// Capacity sums the registration capacity across shards.
func (s *ShardedLogSpace) Capacity() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cap
	}
	return n
}
