package reloc

import (
	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
)

// RewritePointers is the one pointer walker every relocation uses —
// the import cascade and live migration's adopt (paper §4.2, §4.5). The allocator metadata of the data puddle at
// base finds the live objects, and their types' pointer maps find the
// slots. A slot is visited only if it is non-zero and lies wholly inside
// its object: an object allocated smaller than its type does not hold
// the fields past its end, and those bytes belong to its neighbour.
// translate returns a slot's new value; ok=false leaves the slot alone,
// and so does an unchanged value. Objects of unregistered types hold no
// discoverable pointers.
//
// RewritePointers persists nothing; it returns how many slots it
// rewrote, and the caller makes them durable.
func RewritePointers(dev *pmem.Device, base pmem.Addr, types *ptypes.Registry, translate func(old pmem.Addr) (pmem.Addr, bool)) (int, error) {
	p, err := puddle.Open(dev, base)
	if err != nil {
		return 0, err
	}
	n := 0
	alloc.NewHeap(p).Objects(func(o alloc.Object) bool {
		ti, ok := types.Lookup(o.TypeID)
		if !ok {
			return true
		}
		for _, pf := range ti.Ptrs {
			if uint64(pf.Offset)+8 > uint64(o.Size) {
				continue
			}
			slot := o.Addr + pmem.Addr(pf.Offset)
			old := pmem.Addr(dev.LoadU64(slot))
			if old == 0 {
				continue
			}
			if nw, ok := translate(old); ok && nw != old {
				dev.StoreU64(slot, uint64(nw))
				n++
			}
		}
		return true
	})
	return n, nil
}
