package structures

import (
	"fmt"
	"slices"

	"puddles/internal/core"
	"puddles/internal/pmem"
)

// ShadowMap is a persistent uint64→uint64 hash-trie (fanout 4, two
// key bits per level, low bits first) committed with the shadow
// discipline. A Put builds only its new leaf (or, when it splits a
// leaf, the internal chain that keeps the old leaf shared) in free
// slots and commits it with one fence and then one atomic store to the
// single trie word that reaches key's slot: the root word of an empty
// map or a child word of the deepest internal node on key's path. A
// Delete zeroes one such word. Internal nodes never move, so an update
// writes one slot and retires one.
//
// Node layout (64-byte slots):
//
//	internal: [0] kind  [1..4] child slot addrs
//	leaf:     [0] kind  [1] key  [2] value
type ShadowMap struct {
	s *shadowCore
}

// NewShadowMap allocates an empty map descriptor in pool.
func NewShadowMap(c *core.Client, pool *core.Pool) (*ShadowMap, error) {
	s, err := newShadowCore(c, pool, descMagicMap)
	if err != nil {
		return nil, err
	}
	return &ShadowMap{s: s}, nil
}

// OpenShadowMap rebinds a descriptor after a crash or reopen,
// recomputing the free list from root reachability.
func OpenShadowMap(c *core.Client, pool *core.Pool, desc pmem.Addr) (*ShadowMap, error) {
	s, err := openShadowCore(c, pool, desc, descMagicMap)
	if err != nil {
		return nil, err
	}
	m := &ShadowMap{s: s}
	reach, count, err := m.reachable()
	if err != nil {
		return nil, err
	}
	s.recoverFree(reach)
	s.count = count
	return m, nil
}

// Desc returns the persistent descriptor address (store it in a pool
// root to find the map again).
func (m *ShadowMap) Desc() pmem.Addr { return m.s.desc }

// Len returns the number of committed keys.
func (m *ShadowMap) Len() int {
	m.s.mu.RLock()
	defer m.s.mu.RUnlock()
	return m.s.count
}

// Sync fences the latest trie-word swing down and recycles limbo slots.
func (m *ShadowMap) Sync() { m.s.sync() }

func nodeKind(dev *pmem.Device, a pmem.Addr) (int, error) {
	w := dev.LoadU64(a)
	if w&^uint64(nodeKindMask) != nodeBrand {
		return 0, fmt.Errorf("%w: slot %#x is not a shadow node", ErrShadowCorrupt, uint64(a))
	}
	return int(w & nodeKindMask), nil
}

// reachable walks the committed trie, returning every slot it reaches
// and the number of leaves. Each child word must name a slot of the
// map's own extent chain, reached once: anything else is corruption.
func (m *ShadowMap) reachable() (map[pmem.Addr]bool, int, error) {
	exts := slices.Clone(m.s.extents)
	slices.Sort(exts)
	reach := make(map[pmem.Addr]bool)
	count := 0
	var mark func(a pmem.Addr, shift uint) error
	mark = func(a pmem.Addr, shift uint) error {
		if a == 0 {
			return nil
		}
		if !slotOf(exts, a) {
			return fmt.Errorf("%w: %#x is not a slot of the map's extents", ErrShadowCorrupt, uint64(a))
		}
		if reach[a] {
			return fmt.Errorf("%w: slot %#x reached twice", ErrShadowCorrupt, uint64(a))
		}
		if shift > 62 {
			return fmt.Errorf("%w: trie deeper than the key width", ErrShadowCorrupt)
		}
		k, err := nodeKind(m.s.dev, a)
		if err != nil {
			return err
		}
		reach[a] = true
		switch k {
		case snLeaf:
			count++
			return nil
		case snInternal:
			for i := 0; i < 4; i++ {
				if err := mark(pmem.Addr(m.s.dev.LoadU64(a+8+pmem.Addr(8*i))), shift+2); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("%w: kind %d in map trie", ErrShadowCorrupt, k)
		}
	}
	err := mark(pmem.Addr(m.s.dev.LoadU64(m.s.desc+8)), 0)
	return reach, count, err
}

// Get returns the committed value for key.
func (m *ShadowMap) Get(key uint64) (uint64, bool) {
	m.s.mu.RLock()
	defer m.s.mu.RUnlock()
	_, a, _ := m.slot(key)
	if a == 0 || m.s.dev.LoadU64(a+8) != key {
		return 0, false
	}
	return m.s.dev.LoadU64(a + 16), true
}

// Walk visits every committed pair; fn returning false stops early.
func (m *ShadowMap) Walk(fn func(key, val uint64) bool) {
	m.s.mu.RLock()
	defer m.s.mu.RUnlock()
	m.walk(pmem.Addr(m.s.dev.LoadU64(m.s.desc+8)), fn)
}

func (m *ShadowMap) walk(a pmem.Addr, fn func(key, val uint64) bool) bool {
	if a == 0 {
		return true
	}
	dev := m.s.dev
	if dev.LoadU64(a)&nodeKindMask == snLeaf {
		return fn(dev.LoadU64(a+8), dev.LoadU64(a+16))
	}
	for i := 0; i < 4; i++ {
		if !m.walk(pmem.Addr(dev.LoadU64(a+8+pmem.Addr(8*i))), fn) {
			return false
		}
	}
	return true
}

// Put inserts or replaces key. One shadow commit: the new leaf (and,
// when key splits a leaf, the internal chain that keeps the old leaf
// shared) in free slots, one fence, then one swing of the trie word
// that reaches key's slot. An update retires exactly the old leaf.
func (m *ShadowMap) Put(key, val uint64) error {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	word, old, shift := m.slot(key)
	update := old != 0 && s.dev.LoadU64(old+8) == key
	var p pend
	err := s.c.RunShadow(s.pool, func(st *core.ShadowTx) error {
		s.reset(&p)
		n, err := s.take(st, &p)
		if err != nil {
			return err
		}
		writeLeaf(st, n, key, val)
		switch {
		case update:
			p.retired = append(p.retired, old)
		case old != 0:
			if n, err = m.split(st, &p, old, n, key, shift); err != nil {
				return err
			}
		}
		return st.Publish(word, uint64(n))
	})
	if err != nil {
		return err
	}
	delta := 1
	if update {
		delta = 0
	}
	s.settle(&p, delta)
	return nil
}

// slot descends from the root word to the word that reaches key's
// slot: an empty child word, or the word holding the leaf that sits
// where key would go. It returns that word, the leaf (0 if none) and
// the key shift of the leaf's level.
func (m *ShadowMap) slot(key uint64) (word, leaf pmem.Addr, shift uint) {
	dev := m.s.dev
	word = m.s.desc + 8
	for {
		a := pmem.Addr(dev.LoadU64(word))
		if a == 0 || dev.LoadU64(a)&nodeKindMask == snLeaf {
			return word, a, shift
		}
		word = a + 8 + pmem.Addr(8*((key>>shift)&3))
		shift += 2
	}
}

// split builds, in free slots, the internal chain from level shift
// down to the first 2-bit slot where key and the resident leaf's key
// diverge, with the old leaf (shared, not copied) and the new leaf
// nl under its last node. It returns the chain's top.
func (m *ShadowMap) split(st *core.ShadowTx, p *pend, old, nl pmem.Addr, key uint64, shift uint) (pmem.Addr, error) {
	oldKey := m.s.dev.LoadU64(old + 8)
	d := shift
	for (oldKey>>d)&3 == (key>>d)&3 {
		d += 2
	}
	var kids [4]pmem.Addr
	kids[(oldKey>>d)&3] = old
	kids[(key>>d)&3] = nl
	for {
		cur, err := m.s.take(st, p)
		if err != nil {
			return 0, err
		}
		writeInternal(st, cur, kids)
		if d == shift {
			return cur, nil
		}
		d -= 2
		kids = [4]pmem.Addr{}
		kids[(key>>d)&3] = cur
	}
}

// Delete removes key, reporting whether it was present. It zeroes one
// word: the one reaching the highest internal node the removal leaves
// empty, or else the one reaching the leaf, and retires everything
// below it. A Delete of an absent key opens no transaction.
func (m *ShadowMap) Delete(key uint64) (bool, error) {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	dev := s.dev
	cut, cutShift := s.desc+8, uint(0)
	word, shift := cut, uint(0)
	for {
		a := pmem.Addr(dev.LoadU64(word))
		if a == 0 {
			return false, nil
		}
		if dev.LoadU64(a)&nodeKindMask == snLeaf {
			if dev.LoadU64(a+8) != key {
				return false, nil
			}
			break
		}
		idx := (key >> shift) & 3
		word = a + 8 + pmem.Addr(8*idx)
		shift += 2
		for i := uint64(0); i < 4; i++ {
			if i != idx && dev.LoadU64(a+8+pmem.Addr(8*i)) != 0 {
				cut, cutShift = word, shift // a keeps another child
				break
			}
		}
	}
	var p pend
	err := s.c.RunShadow(s.pool, func(st *core.ShadowTx) error {
		s.reset(&p)
		a, sh := pmem.Addr(dev.LoadU64(cut)), cutShift
		for {
			p.retired = append(p.retired, a)
			if dev.LoadU64(a)&nodeKindMask == snLeaf {
				break
			}
			a = pmem.Addr(dev.LoadU64(a + 8 + pmem.Addr(8*((key>>sh)&3))))
			sh += 2
		}
		return st.Publish(cut, 0)
	})
	if err != nil {
		return false, err
	}
	s.settle(&p, -1)
	return true, nil
}

// Validate checks the slot census: reachable + free + limbo must
// account for every slot in the extent chain exactly once.
func (m *ShadowMap) Validate() error {
	m.s.mu.RLock()
	defer m.s.mu.RUnlock()
	reach, count, err := m.reachable()
	if err != nil {
		return err
	}
	if count != m.s.count {
		return fmt.Errorf("%w: volatile count %d, trie holds %d", ErrShadowCorrupt, m.s.count, count)
	}
	return m.s.census(reach)
}

func writeLeaf(st *core.ShadowTx, a pmem.Addr, key, val uint64) {
	st.StoreU64(a, nodeBrand|snLeaf)
	st.StoreU64(a+8, key)
	st.StoreU64(a+16, val)
}

func writeInternal(st *core.ShadowTx, a pmem.Addr, kids [4]pmem.Addr) {
	st.StoreU64(a, nodeBrand|snInternal)
	for i, k := range kids {
		st.StoreU64(a+8+pmem.Addr(8*i), uint64(k))
	}
}
