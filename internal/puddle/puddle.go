// Package puddle defines the on-media layout of a puddle (paper §4.3).
//
// A puddle is a contiguous, page-aligned region of persistent memory
// with two parts: a header holding the puddle's metadata (UUID, size,
// kind, owning pool, allocator block map) and a heap managed by the
// object allocator. Headers cost 4 KiB per 2 MiB of puddle (the
// paper's 0.2% overhead); puddles can be any multiple of a page but
// cannot grow or shrink once created.
package puddle

import (
	"errors"
	"fmt"

	"puddles/internal/pmem"
	"puddles/internal/uid"
)

// Kind distinguishes what a puddle stores.
type Kind uint64

// Puddle kinds.
const (
	KindData     Kind = 1 // application objects
	KindLog      Kind = 2 // crash-consistency log
	KindLogSpace Kind = 3 // directory of logs (paper Fig. 5)
	KindMeta     Kind = 4 // daemon metadata
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindLog:
		return "log"
	case KindLogSpace:
		return "logspace"
	case KindMeta:
		return "meta"
	default:
		return fmt.Sprintf("Kind(%d)", uint64(k))
	}
}

const (
	magic = 0x314c44_4455_50 // "PUDDL1"

	// BlockSize is the allocator's minimum block (buddy order 0).
	BlockSize = 1024

	// MinSize is the smallest legal puddle (header page + one heap page).
	MinSize = 2 * pmem.PageSize

	// DefaultSize matches the paper's "several MiBs" guidance.
	DefaultSize = 2 << 20

	// Header field offsets.
	offMagic    = 0
	offUUID     = 8
	offSize     = 24
	offKind     = 32
	offPool     = 40
	offHdrSize  = 56
	offRootType = 64
	offRootSize = 72
	offFlags    = 80
	offFreeze   = 88 // migration freeze state (root puddle only)
	offActiveTx = 96 // on-media active-transaction count (root puddle only)
	// BlockMapOff is where the allocator block map begins within the
	// header. One byte per BlockSize heap block.
	BlockMapOff = 128
)

// Errors.
var (
	ErrBadSize  = errors.New("puddle: size must be a multiple of the page size and at least MinSize")
	ErrBadMagic = errors.New("puddle: bad magic (not a formatted puddle)")
	ErrTooSmall = errors.New("puddle: header cannot hold the block map")
)

// HeaderSize returns the header bytes for a puddle of the given total
// size: one 4 KiB page per 2 MiB, minimum one page.
func HeaderSize(total uint64) uint64 {
	h := (total + (512*pmem.PageSize - 1)) / (512 * pmem.PageSize) * pmem.PageSize
	if h < pmem.PageSize {
		h = pmem.PageSize
	}
	return h
}

// Puddle is a handle to a formatted puddle.
type Puddle struct {
	Dev  *pmem.Device
	Base pmem.Addr

	// Cached immutable fields.
	size    uint64
	hdrSize uint64
	kind    Kind
	id      uid.UUID
}

// Format initialises a puddle at base and persists its header.
func Format(dev *pmem.Device, base pmem.Addr, size uint64, id uid.UUID, kind Kind, pool uid.UUID) (*Puddle, error) {
	if size < MinSize || size%pmem.PageSize != 0 || uint64(base)%pmem.PageSize != 0 {
		return nil, ErrBadSize
	}
	hdr := HeaderSize(size)
	blocks := (size - hdr) / BlockSize
	if BlockMapOff+blocks > hdr {
		return nil, ErrTooSmall
	}
	dev.Zero(base, int(hdr))
	dev.Store(base+offUUID, id[:])
	dev.StoreU64(base+offSize, size)
	dev.StoreU64(base+offKind, uint64(kind))
	dev.Store(base+offPool, pool[:])
	dev.StoreU64(base+offHdrSize, hdr)
	dev.Persist(base, int(hdr))
	// Magic written and persisted last: a crash mid-format leaves an
	// unformatted (invisible) puddle rather than a torn one.
	dev.StoreU64(base+offMagic, magic)
	dev.Persist(base+offMagic, 8)
	return &Puddle{Dev: dev, Base: base, size: size, hdrSize: hdr, kind: kind, id: id}, nil
}

// Open validates the header at base and returns a handle.
func Open(dev *pmem.Device, base pmem.Addr) (*Puddle, error) {
	if dev.LoadU64(base+offMagic) != magic {
		return nil, ErrBadMagic
	}
	p := &Puddle{Dev: dev, Base: base}
	p.size = dev.LoadU64(base + offSize)
	p.hdrSize = dev.LoadU64(base + offHdrSize)
	p.kind = Kind(dev.LoadU64(base + offKind))
	dev.Load(base+offUUID, p.id[:])
	if p.size < MinSize || p.hdrSize < pmem.PageSize || p.hdrSize >= p.size {
		return nil, fmt.Errorf("puddle: corrupt header at %#x", uint64(base))
	}
	return p, nil
}

// UUID returns the puddle's identifier.
func (p *Puddle) UUID() uid.UUID { return p.id }

// Stale reports whether the media at the handle's base no longer
// carries this puddle's identity: its range was freed and handed out
// again, so the handle addresses someone else's data.
func (p *Puddle) Stale() bool {
	var u uid.UUID
	p.Dev.Load(p.Base+offUUID, u[:])
	return u != p.id
}

// Size returns the total puddle size in bytes.
func (p *Puddle) Size() uint64 { return p.size }

// Kind returns the puddle kind.
func (p *Puddle) Kind() Kind { return p.kind }

// Range returns the full [base, base+size) range.
func (p *Puddle) Range() pmem.Range {
	return pmem.Range{Start: p.Base, End: p.Base + pmem.Addr(p.size)}
}

// PoolUUID returns the owning pool's identifier.
func (p *Puddle) PoolUUID() uid.UUID {
	var u uid.UUID
	p.Dev.Load(p.Base+offPool, u[:])
	return u
}

// SetPoolUUID reassigns the puddle to a pool and persists the change.
func (p *Puddle) SetPoolUUID(u uid.UUID) {
	p.Dev.Store(p.Base+offPool, u[:])
	p.Dev.Persist(p.Base+offPool, 16)
}

// HeaderBytes returns the header size in bytes.
func (p *Puddle) HeaderBytes() uint64 { return p.hdrSize }

// HeapBase returns the first heap address.
func (p *Puddle) HeapBase() pmem.Addr { return p.Base + pmem.Addr(p.hdrSize) }

// HeapSize returns the heap size in bytes.
func (p *Puddle) HeapSize() uint64 { return p.size - p.hdrSize }

// Blocks returns the number of allocator blocks in the heap.
func (p *Puddle) Blocks() uint64 { return p.HeapSize() / BlockSize }

// BlockMapAddr returns the address of the allocator block map.
func (p *Puddle) BlockMapAddr() pmem.Addr { return p.Base + BlockMapOff }

// RootType returns the type ID and size recorded for the pool root
// object (meaningful on a pool's root puddle).
func (p *Puddle) RootType() (typeID uint64, size uint32) {
	return p.Dev.LoadU64(p.Base + offRootType), uint32(p.Dev.LoadU64(p.Base + offRootSize))
}

// SetRootType records the root object's type and size.
func (p *Puddle) SetRootType(typeID uint64, size uint32) {
	p.Dev.StoreU64(p.Base+offRootType, typeID)
	p.Dev.StoreU64(p.Base+offRootSize, uint64(size))
	p.Dev.Persist(p.Base+offRootType, 16)
}

// Flags returns the header flags word.
func (p *Puddle) Flags() uint64 { return p.Dev.LoadU64(p.Base + offFlags) }

// SetFlags persists the header flags word.
func (p *Puddle) SetFlags(f uint64) {
	p.Dev.StoreU64(p.Base+offFlags, f)
	p.Dev.Persist(p.Base+offFlags, 8)
}

// Migration freeze states, stored in the root puddle's freeze word.
// Clients write pool data directly on the shared device (the DAX
// model), so the per-pool quiesce barrier for live migration lives on
// media where every mapper can see it: transactions bump the active
// count on entry and drop it after their commit is durable; the
// migration engine sets FreezeQuiesce, waits for the count to drain,
// ships the final delta, and leaves FreezeMoved behind so resuming
// writers learn the pool now lives elsewhere.
const (
	FreezeNone    uint64 = 0 // pool serves writes normally
	FreezeQuiesce uint64 = 1 // final-delta quiesce: new transactions wait
	FreezeMoved   uint64 = 2 // ownership ceded: transactions must redirect
)

// FreezeAddr returns the address of the pool freeze word (meaningful
// on a pool's root puddle).
func (p *Puddle) FreezeAddr() pmem.Addr { return p.Base + offFreeze }

// ActiveTxAddr returns the address of the on-media active-transaction
// counter (meaningful on a pool's root puddle).
func (p *Puddle) ActiveTxAddr() pmem.Addr { return p.Base + offActiveTx }

// Freeze reads the pool freeze word.
func (p *Puddle) Freeze() uint64 { return p.Dev.LoadU64(p.Base + offFreeze) }

// SetFreeze persists the pool freeze word.
func (p *Puddle) SetFreeze(v uint64) {
	p.Dev.StoreU64(p.Base+offFreeze, v)
	p.Dev.Persist(p.Base+offFreeze, 8)
}

// SetBase retargets the handle after the puddle's contents were moved
// to a new address (relocation). The media is untouched.
func (p *Puddle) SetBase(base pmem.Addr) { p.Base = base }

// SetUUID rewrites the puddle's identity and persists it. Import
// assigns fresh UUIDs to relocated copies so clones coexist with their
// originals — the exact operation PMDK's embedded-UUID design makes
// impossible (paper §2.3).
func (p *Puddle) SetUUID(id uid.UUID) {
	p.Dev.Store(p.Base+offUUID, id[:])
	p.Dev.Persist(p.Base+offUUID, 16)
	p.id = id
}
