// Shadow (MOD-style) persistent structures: a hash-trie map and a
// FIFO queue whose mutations build what they change in unreachable
// memory and publish it with one atomically written pointer: the
// queue's root, or the one map trie word that reaches the replaced
// leaf or subtree. A carve-free update costs exactly ONE fence (the
// shadow flush barrier in core.ShadowTx.Commit) against the undo-log
// discipline's three or more.
//
// Memory management: nodes are 64-byte slots carved from 64 KiB
// extents allocated through the wrapped undo transaction, so extent
// carves keep leases/wait-die arbitration and crash atomicity. No
// free list is persisted — recovery recomputes it as
// (every slot in the extent chain) − (slots reachable from the root).
// Slots retired by an update are quarantined in a one-op limbo list
// and become reusable only after the NEXT commit's fence, which is
// what makes the not-yet-fenced publish safe: a crash can lose only
// the latest op's one pointer store, and the version that loss brings
// back differs from the current one only by slots that op retired,
// which no later op has overwritten.
package structures

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

const (
	shadowNodeSize   = 64
	shadowExtentSize = 64 << 10
	shadowExtentHdr  = 64
	shadowNodesPer   = (shadowExtentSize - shadowExtentHdr) / shadowNodeSize

	descMagicMap   = 0x5348444d41503031 // "SHDMAP01"
	descMagicQueue = 0x5348445155453031 // "SHDQUE01"
	extentMagic    = 0x5348444558543031 // "SHDEXT01"

	// Node kind words. The high bits brand the slot so recovery can
	// detect a walk into garbage.
	nodeKindMask = 0xff
	nodeBrand    = 0x534e4f4445 << 16 // "SNODE"
	snInternal   = 1
	snLeaf       = 2
	snQDesc      = 3
	snQNode      = 4
)

// ErrShadowCorrupt reports a structural invariant violation found
// while opening or validating a shadow structure.
var ErrShadowCorrupt = errors.New("structures: shadow structure corrupt")

// shadowCore is the volatile state shared by the map and the queue:
// the persistent descriptor plus the recomputable slot bookkeeping.
type shadowCore struct {
	c    *core.Client
	pool *core.Pool
	dev  *pmem.Device
	desc pmem.Addr

	descTI ptypes.TypeID
	extTI  ptypes.TypeID

	mu      sync.RWMutex
	extents []pmem.Addr
	free    []pmem.Addr // reusable slots: unreachable AND durably so
	limbo   []pmem.Addr // retired by the latest op; freed after next fence
	spare   []pmem.Addr // the previous limbo's buffer, reused for retirees
	count   int
}

// pend tracks one mutation attempt so a wait-die retry can rewind the
// volatile bookkeeping without touching the committed structure.
type pend struct {
	avail   []pmem.Addr // alias of core.free; consumed from the tail
	carved  []pmem.Addr // slots from a freshly carved extent
	retired []pmem.Addr
	newExt  pmem.Addr
}

func (s *shadowCore) reset(p *pend) {
	p.avail = s.free
	p.carved = nil
	p.retired = s.spare[:0]
	p.newExt = 0
}

// take hands out an unreachable slot, carving a fresh extent through
// the wrapped undo transaction when the pool runs dry.
func (s *shadowCore) take(st *core.ShadowTx, p *pend) (pmem.Addr, error) {
	if n := len(p.avail); n > 0 {
		a := p.avail[n-1]
		p.avail = p.avail[:n-1]
		return a, nil
	}
	if n := len(p.carved); n > 0 {
		a := p.carved[n-1]
		p.carved = p.carved[:n-1]
		return a, nil
	}
	ext, err := st.Alloc(s.extTI, shadowExtentSize)
	if err != nil {
		return 0, err
	}
	// The extent payload is registered fresh by the allocator, so the
	// header writes ride the transaction's stage-1 flush. The chain
	// link lives in committed memory and must be undo-logged.
	st.StoreU64(ext, extentMagic)
	st.StoreU64(ext+8, s.dev.LoadU64(s.desc+16))
	if err := st.Tx().SetU64(s.desc+16, uint64(ext)); err != nil {
		return 0, err
	}
	p.newExt = ext
	for i := shadowNodesPer - 1; i >= 0; i-- {
		p.carved = append(p.carved, ext+shadowExtentHdr+pmem.Addr(i*shadowNodeSize))
	}
	a := p.carved[len(p.carved)-1]
	p.carved = p.carved[:len(p.carved)-1]
	return a, nil
}

// settle applies a successful attempt: consumed slots leave the free
// list, the previous op's limbo (now durably unreachable — this
// commit's fence hardened the publish that orphaned it) is recycled,
// and this op's retirees take its place. The old limbo's buffer,
// copied out, becomes the spare the next op's retirees fill.
func (s *shadowCore) settle(p *pend, delta int) {
	s.free = p.avail
	if p.newExt != 0 {
		s.extents = append(s.extents, p.newExt)
	}
	s.free = append(s.free, p.carved...)
	s.free = append(s.free, s.limbo...)
	s.spare, s.limbo = s.limbo, p.retired
	s.count += delta
}

// Sync fences the device so the latest publish is durable, then
// recycles the limbo slots it was protecting.
func (s *shadowCore) sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dev.Fence()
	s.free = append(s.free, s.limbo...)
	s.limbo = nil
}

// --- descriptor management -------------------------------------------------

// bindShadowCore registers the (idempotent) shadow layouts with the
// daemon and prepares an empty volatile core.
func bindShadowCore(c *core.Client, pool *core.Pool) (*shadowCore, error) {
	descInfo, err := c.RegisterType("shadow.desc", shadowNodeSize, nil)
	if err != nil {
		return nil, err
	}
	extInfo, err := c.RegisterType("shadow.extent", shadowExtentSize, nil)
	if err != nil {
		return nil, err
	}
	return &shadowCore{
		c:      c,
		pool:   pool,
		dev:    c.Device(),
		descTI: descInfo.ID,
		extTI:  extInfo.ID,
	}, nil
}

func newShadowCore(c *core.Client, pool *core.Pool, magic uint64) (*shadowCore, error) {
	s, err := bindShadowCore(c, pool)
	if err != nil {
		return nil, err
	}
	desc, err := pool.Malloc(s.descTI, shadowNodeSize)
	if err != nil {
		return nil, err
	}
	dev := c.Device()
	dev.StoreU64(desc, magic)
	dev.Persist(desc, 8)
	s.desc = desc
	return s, nil
}

func openShadowCore(c *core.Client, pool *core.Pool, desc pmem.Addr, magic uint64) (*shadowCore, error) {
	s, err := bindShadowCore(c, pool)
	if err != nil {
		return nil, err
	}
	dev := c.Device()
	if dev.LoadU64(desc) != magic {
		return nil, fmt.Errorf("%w: bad descriptor magic at %#x", ErrShadowCorrupt, uint64(desc))
	}
	s.desc = desc
	for ext := pmem.Addr(dev.LoadU64(desc + 16)); ext != 0; ext = pmem.Addr(dev.LoadU64(ext + 8)) {
		if dev.LoadU64(ext) != extentMagic {
			return nil, fmt.Errorf("%w: bad extent magic at %#x", ErrShadowCorrupt, uint64(ext))
		}
		s.extents = append(s.extents, ext)
	}
	return s, nil
}

// slotOf reports whether a is a node slot of one of exts, an extent
// chain sorted by address.
func slotOf(exts []pmem.Addr, a pmem.Addr) bool {
	i, _ := slices.BinarySearch(exts, a+1)
	if i == 0 {
		return false
	}
	off := a - exts[i-1]
	return off >= shadowExtentHdr && off < shadowExtentSize && off%shadowNodeSize == 0
}

// recoverFree rebuilds the volatile free list as universe − reachable.
func (s *shadowCore) recoverFree(reachable map[pmem.Addr]bool) {
	for _, ext := range s.extents {
		for i := 0; i < shadowNodesPer; i++ {
			a := ext + shadowExtentHdr + pmem.Addr(i*shadowNodeSize)
			if !reachable[a] {
				s.free = append(s.free, a)
			}
		}
	}
}

// census checks reachable + free + limbo == every slot ever carved.
func (s *shadowCore) census(reachable map[pmem.Addr]bool) error {
	total := len(s.extents) * shadowNodesPer
	seen := make(map[pmem.Addr]bool, total)
	for a := range reachable {
		seen[a] = true
	}
	for _, a := range s.free {
		if seen[a] {
			return fmt.Errorf("%w: slot %#x both reachable/free twice", ErrShadowCorrupt, uint64(a))
		}
		seen[a] = true
	}
	for _, a := range s.limbo {
		if seen[a] {
			return fmt.Errorf("%w: limbo slot %#x double-booked", ErrShadowCorrupt, uint64(a))
		}
		seen[a] = true
	}
	if len(seen) != total {
		return fmt.Errorf("%w: census %d slots, extents carry %d", ErrShadowCorrupt, len(seen), total)
	}
	for _, ext := range s.extents {
		for i := 0; i < shadowNodesPer; i++ {
			if !seen[ext+shadowExtentHdr+pmem.Addr(i*shadowNodeSize)] {
				return fmt.Errorf("%w: slot leaked from extent %#x", ErrShadowCorrupt, uint64(ext))
			}
		}
	}
	return nil
}
