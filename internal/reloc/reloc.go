// Package reloc defines the export container for relocatable PM data
// (paper §4.2, "Relocation on import").
//
// Exporting a pool copies its puddles and the associated metadata
// (pointer maps, root designation) into a self-contained container —
// no object serialization: puddle images are raw in-memory bytes.
// Importing registers the puddles back into a (possibly different)
// machine's global puddle space; when their recorded addresses are
// taken, the import engine assigns new ranges and the pointer-rewrite
// cascade fixes the contents.
package reloc

import (
	"errors"
	"fmt"
	"sort"

	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// ContainerVersion is the export format version.
const ContainerVersion = 1

// PuddleImage is one exported puddle: identity, the address it lived
// at (pointers in every image refer to these addresses), and raw bytes.
type PuddleImage struct {
	UUID    uid.UUID
	Addr    uint64 // address in the exporting machine's global space
	Size    uint64
	Kind    uint64
	Content []byte
}

// Container is a fully self-contained exported pool.
type Container struct {
	Version  int
	PoolName string
	PoolUUID uid.UUID
	RootUUID uid.UUID // the pool's root puddle
	Types    []ptypes.TypeInfo
	Puddles  []PuddleImage
}

// Errors.
var (
	ErrBadContainer = errors.New("reloc: malformed export container")
)

// EncodeBytes returns the encoded container (see codec.go): puddle
// contents verbatim, no per-object serialization.
func (c *Container) EncodeBytes() ([]byte, error) {
	for _, p := range c.Puddles {
		if uint64(len(p.Content)) != p.Size {
			return nil, fmt.Errorf("reloc: puddle content/size mismatch")
		}
	}
	return c.EncodeFrom(func(i int, dst []byte) { copy(dst, c.Puddles[i].Content) }), nil
}

// DecodeBytes decodes an encoded container. Puddle contents alias b —
// zero-copy, like mapping the exported file itself — so callers must
// keep b unmodified while the container is in use.
func DecodeBytes(b []byte) (*Container, error) {
	c, err := decodeBinary(b)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks structural invariants.
func (c *Container) Validate() error {
	if c.Version != ContainerVersion {
		return fmt.Errorf("%w: version %d", ErrBadContainer, c.Version)
	}
	if len(c.Puddles) == 0 {
		return fmt.Errorf("%w: no puddles", ErrBadContainer)
	}
	rootOK := false
	seen := make(map[uid.UUID]bool, len(c.Puddles))
	for i, p := range c.Puddles {
		if p.Size == 0 || uint64(len(p.Content)) != p.Size {
			return fmt.Errorf("%w: puddle %d content/size mismatch (%d vs %d)", ErrBadContainer, i, len(p.Content), p.Size)
		}
		if p.Addr%pmem.PageSize != 0 || p.Size%pmem.PageSize != 0 {
			return fmt.Errorf("%w: puddle %d not page aligned", ErrBadContainer, i)
		}
		if seen[p.UUID] {
			return fmt.Errorf("%w: duplicate puddle UUID %v", ErrBadContainer, p.UUID)
		}
		seen[p.UUID] = true
		if p.UUID == c.RootUUID {
			rootOK = true
		}
	}
	if !rootOK {
		return fmt.Errorf("%w: root puddle %v not present", ErrBadContainer, c.RootUUID)
	}
	return nil
}

// FindByOldAddr returns the index of the puddle whose exported range
// contains addr, or -1.
func (c *Container) FindByOldAddr(addr pmem.Addr) int {
	for i, p := range c.Puddles {
		if uint64(addr) >= p.Addr && uint64(addr) < p.Addr+p.Size {
			return i
		}
	}
	return -1
}

// Move records one puddle's relocation: the address range it occupied
// in the source space and the base it was placed at in the target.
type Move struct {
	Old pmem.Range
	New pmem.Addr
}

// AddrMap translates source-space addresses to target-space addresses
// across a set of relocated puddles — the §4.2 pointer-rewrite rule
// factored out so the offline import cascade and the live-migration
// adopt path share one translation.
type AddrMap struct {
	moves []Move
}

// NewAddrMap builds a translation over moves (sorted by old base).
func NewAddrMap(moves []Move) *AddrMap {
	m := &AddrMap{moves: append([]Move(nil), moves...)}
	sort.Slice(m.moves, func(i, j int) bool { return m.moves[i].Old.Start < m.moves[j].Old.Start })
	return m
}

// Identity reports whether every puddle kept its address — no
// pointer rewriting is needed at all.
func (m *AddrMap) Identity() bool {
	for _, mv := range m.moves {
		if mv.Old.Start != mv.New {
			return false
		}
	}
	return true
}

// Translate maps a source-space address into the target space. The
// second result is false when addr lies in no relocated puddle (the
// pointer crosses out of the migrated set and must be left alone).
func (m *AddrMap) Translate(addr pmem.Addr) (pmem.Addr, bool) {
	i := sort.Search(len(m.moves), func(i int) bool { return m.moves[i].Old.Start > addr })
	if i == 0 {
		return 0, false
	}
	mv := m.moves[i-1]
	if !mv.Old.Contains(addr) {
		return 0, false
	}
	return mv.New + (addr - mv.Old.Start), true
}
