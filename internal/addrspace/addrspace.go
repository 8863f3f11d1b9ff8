// Package addrspace manages the machine-wide global puddle address
// space (paper §3.4).
//
// Puddled maintains a single shared persistent-memory range that every
// puddle in a machine is allocated from; applications map parts of it
// into their own address spaces. A single machine-wide space is what
// makes cross-pool pointers and cross-pool transactions possible. The
// paper reserves 1 TiB at a fixed virtual address (ignoring ASLR); we
// reserve [Base, Base+Size) inside the simulated device.
//
// The manager hands out page-aligned, contiguous reservations and
// supports explicit reservation at a caller-chosen address (used when
// importing puddles that want their previous location back).
//
// Reserve is plain first-fit from the base: the lowest gap that holds
// the request wins, so a range freed by a delete, an import's staging
// copy or a migration is the next one handed out. An earlier bump
// cursor kept fresh allocations moving up the space until the daemon
// rebooted; every import and grant then landed on never-touched
// addresses, and the simulated device grew a fresh 64 KiB chunk for
// each of them. Reuse means a stale handle can address a range that now
// belongs to someone else: clients check the root puddle's on-media
// identity before a transaction writes (core.Tx.enterPool) and evict
// overlapping ranges from their address index (core.Client.indexHeap).
package addrspace

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"puddles/internal/pmem"
)

const (
	// Base is the first address of the global puddle space (1 TiB).
	Base pmem.Addr = 1 << 40
	// Size is the extent of the global puddle space (1 TiB).
	Size uint64 = 1 << 40
	// End is the first address past the global puddle space.
	End = Base + pmem.Addr(Size)
)

// Errors returned by the manager.
var (
	ErrConflict   = errors.New("addrspace: range conflicts with an existing reservation")
	ErrExhausted  = errors.New("addrspace: global puddle space exhausted")
	ErrNotAligned = errors.New("addrspace: address or size not page-aligned")
	ErrNotFound   = errors.New("addrspace: no reservation at that address")
	ErrOutside    = errors.New("addrspace: range outside the global puddle space")
)

// Reservation is a contiguous page-aligned range assigned to one owner
// (typically one puddle, identified by its UUID string).
type Reservation struct {
	Range pmem.Range
	Owner string
}

// Manager allocates non-overlapping ranges from one contiguous region.
// It is an in-memory index; persistence of reservations is the
// daemon's job (it re-populates a Manager from its registry on boot).
type Manager struct {
	base pmem.Addr
	end  pmem.Addr

	mu   sync.Mutex
	resv []Reservation // sorted by Range.Start
}

// NewManager returns an empty manager over the global puddle space.
func NewManager() *Manager {
	return NewManagerRange(Base, Size)
}

// NewManagerRange returns an empty manager over [base, base+size).
// The daemon uses a second manager for its import staging area.
func NewManagerRange(base pmem.Addr, size uint64) *Manager {
	return &Manager{base: base, end: base + pmem.Addr(size)}
}

func aligned(a pmem.Addr) bool { return uint64(a)%pmem.PageSize == 0 }

// locate returns the index of the first reservation with Start >= a.
func (m *Manager) locate(a pmem.Addr) int {
	return sort.Search(len(m.resv), func(i int) bool { return m.resv[i].Range.Start >= a })
}

// conflict reports whether r overlaps an existing reservation.
func (m *Manager) conflict(r pmem.Range) bool {
	i := m.locate(r.Start)
	if i < len(m.resv) && m.resv[i].Range.Overlaps(r) {
		return true
	}
	if i > 0 && m.resv[i-1].Range.Overlaps(r) {
		return true
	}
	return false
}

// ReserveAt reserves exactly [addr, addr+size) for owner. It fails
// with ErrConflict if any byte is already reserved.
func (m *Manager) ReserveAt(addr pmem.Addr, size uint64, owner string) (pmem.Range, error) {
	if !aligned(addr) || size == 0 || size%pmem.PageSize != 0 {
		return pmem.Range{}, ErrNotAligned
	}
	r := pmem.Range{Start: addr, End: addr + pmem.Addr(size)}
	if r.Start < m.base || r.End > m.end {
		return pmem.Range{}, ErrOutside
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conflict(r) {
		return pmem.Range{}, ErrConflict
	}
	m.resv = slices.Insert(m.resv, m.locate(r.Start), Reservation{Range: r, Owner: owner})
	return r, nil
}

// Reserve reserves the lowest free range of the given size (first
// fit from the base).
func (m *Manager) Reserve(size uint64, owner string) (pmem.Range, error) {
	if size == 0 || size%pmem.PageSize != 0 {
		return pmem.Range{}, ErrNotAligned
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cursor := m.base
	for i := 0; ; i++ {
		gapEnd := m.end
		if i < len(m.resv) {
			gapEnd = m.resv[i].Range.Start
		}
		if gapEnd > cursor && uint64(gapEnd-cursor) >= size {
			r := pmem.Range{Start: cursor, End: cursor + pmem.Addr(size)}
			m.resv = slices.Insert(m.resv, i, Reservation{Range: r, Owner: owner})
			return r, nil
		}
		if i >= len(m.resv) {
			return pmem.Range{}, ErrExhausted
		}
		cursor = m.resv[i].Range.End
	}
}

// Release removes the reservation starting at addr.
func (m *Manager) Release(addr pmem.Addr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.locate(addr)
	if i >= len(m.resv) || m.resv[i].Range.Start != addr {
		return ErrNotFound
	}
	m.resv = slices.Delete(m.resv, i, i+1)
	return nil
}

// Lookup returns the reservation containing addr.
func (m *Manager) Lookup(addr pmem.Addr) (Reservation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.locate(addr)
	if i < len(m.resv) && m.resv[i].Range.Start == addr {
		return m.resv[i], true
	}
	if i > 0 && m.resv[i-1].Range.Contains(addr) {
		return m.resv[i-1], true
	}
	return Reservation{}, false
}

// Reserved reports whether any byte of [addr, addr+size) is reserved.
func (m *Manager) Reserved(addr pmem.Addr, size uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conflict(pmem.Range{Start: addr, End: addr + pmem.Addr(size)})
}

// All returns a copy of every reservation, sorted by start address.
func (m *Manager) All() []Reservation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Reservation, len(m.resv))
	copy(out, m.resv)
	return out
}

// ReservedBytes returns the total number of reserved bytes.
func (m *Manager) ReservedBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total uint64
	for _, r := range m.resv {
		total += r.Range.Size()
	}
	return total
}

// Validate checks internal invariants (sortedness, non-overlap,
// in-bounds) and returns an error describing the first violation. It
// exists for property-based tests.
func (m *Manager) Validate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range m.resv {
		if r.Range.Start < m.base || r.Range.End > m.end {
			return fmt.Errorf("reservation %d %v outside global space", i, r.Range)
		}
		if r.Range.Start >= r.Range.End {
			return fmt.Errorf("reservation %d %v is empty or inverted", i, r.Range)
		}
		if !aligned(r.Range.Start) || r.Range.Size()%pmem.PageSize != 0 {
			return fmt.Errorf("reservation %d %v not page aligned", i, r.Range)
		}
		if i > 0 && m.resv[i-1].Range.End > r.Range.Start {
			return fmt.Errorf("reservations %d and %d overlap", i-1, i)
		}
	}
	return nil
}
