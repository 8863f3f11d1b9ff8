package alloc

import (
	"math/rand"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

func newHeap(t *testing.T, size uint64) *Heap {
	t.Helper()
	dev := pmem.New()
	p, err := puddle.Format(dev, 0x100000, size, uid.New(), puddle.KindData, uid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	Format(p, Direct{Dev: dev})
	return NewHeap(p)
}

const tNode = ptypes.TypeID(0x1001)

func TestFormatValidates(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	if err := h.Validate(); err != nil {
		t.Fatalf("fresh heap invalid: %v", err)
	}
	if h.LiveObjects() != 0 {
		t.Fatalf("fresh heap has %d live objects", h.LiveObjects())
	}
	if h.FreeBytes() != h.P.HeapSize()/puddle.BlockSize*puddle.BlockSize {
		t.Fatalf("FreeBytes = %d, heap = %d", h.FreeBytes(), h.P.HeapSize())
	}
}

func TestSmallAllocFree(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	a, err := h.Alloc(m, tNode, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(m, tNode, 24)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two allocations at same address")
	}
	// Same slab: 24 B rounds to the 32 B class.
	if s, _ := h.SizeOf(a); s != 32 {
		t.Fatalf("SizeOf = %d, want 32 (class)", s)
	}
	if tid, _ := h.TypeOf(a); tid != tNode {
		t.Fatalf("TypeOf = %#x", tid)
	}
	if h.LiveObjects() != 2 {
		t.Fatalf("LiveObjects = %d", h.LiveObjects())
	}
	if err := h.Free(m, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(m, b); err != nil {
		t.Fatal(err)
	}
	if h.LiveObjects() != 0 {
		t.Fatalf("LiveObjects after frees = %d", h.LiveObjects())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeAllocFree(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	a, err := h.Alloc(m, tNode, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := h.SizeOf(a); s != 4096 {
		t.Fatalf("SizeOf = %d", s)
	}
	if err := h.Free(m, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.FreeBytes() != h.P.HeapSize()/puddle.BlockSize*puddle.BlockSize {
		t.Fatal("free did not coalesce back to full heap")
	}
}

func TestRootAtFixedOffset(t *testing.T) {
	// AllocLarge on a fresh heap must land at the fixed root offset:
	// heap base + object header.
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	a, err := h.AllocLarge(m, tNode, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != h.P.HeapBase()+ObjHdrSize {
		t.Fatalf("root at %#x, want %#x", uint64(a), uint64(h.P.HeapBase()+ObjHdrSize))
	}
}

func TestAllocZeroAndHuge(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	if _, err := h.Alloc(m, tNode, 0); err != ErrBadSize {
		t.Fatalf("zero alloc = %v", err)
	}
	if _, err := h.Alloc(m, tNode, uint32(h.P.HeapSize())); err != ErrTooLarge {
		t.Fatalf("huge alloc = %v", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := newHeap(t, puddle.MinSize) // 4 KiB heap
	m := Direct{Dev: h.P.Dev}
	var got []pmem.Addr
	for {
		a, err := h.Alloc(m, tNode, 1000)
		if err != nil {
			if err != ErrNoSpace {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("no allocations fit in a minimal heap")
	}
	for _, a := range got {
		if err := h.Free(m, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBadFree(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	if err := h.Free(m, h.P.HeapBase()+64); err != ErrBadFree {
		t.Fatalf("free of unallocated = %v", err)
	}
	a, _ := h.Alloc(m, tNode, 512)
	if err := h.Free(m, a+8); err != ErrBadFree {
		t.Fatalf("free of interior pointer = %v", err)
	}
	if err := h.Free(m, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(m, a); err != ErrBadFree {
		t.Fatalf("double free = %v", err)
	}
	if err := h.Free(m, 0x20); err != ErrBadFree {
		t.Fatalf("free outside heap = %v", err)
	}
}

func TestObjectsIteration(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	want := make(map[pmem.Addr]ptypes.TypeID)
	for i := 0; i < 40; i++ {
		tid := ptypes.TypeID(0x2000 + i%3)
		size := uint32(16 + (i%5)*100) // mixes slab and buddy sizes
		a, err := h.Alloc(m, tid, size)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = tid
	}
	got := make(map[pmem.Addr]ptypes.TypeID)
	var last pmem.Addr
	h.Objects(func(o Object) bool {
		if o.Addr <= last {
			t.Fatalf("Objects not in address order: %#x after %#x", uint64(o.Addr), uint64(last))
		}
		last = o.Addr
		got[o.Addr] = o.TypeID
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Objects yielded %d, want %d", len(got), len(want))
	}
	for a, tid := range want {
		if got[a] != tid {
			t.Fatalf("object %#x type %#x, want %#x", uint64(a), got[a], tid)
		}
	}
	// Early stop.
	n := 0
	h.Objects(func(Object) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRescanRebuildsState(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	var addrs []pmem.Addr
	for i := 0; i < 30; i++ {
		a, err := h.Alloc(m, tNode, uint32(20+i*37%400))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 0; i < len(addrs); i += 2 {
		if err := h.Free(m, addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: volatile state must match.
	p2, err := puddle.Open(h.P.Dev, h.P.Base)
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHeap(p2)
	if h2.LiveObjects() != h.LiveObjects() {
		t.Fatalf("reopened LiveObjects = %d, want %d", h2.LiveObjects(), h.LiveObjects())
	}
	if h2.FreeBytes() != h.FreeBytes() {
		t.Fatalf("reopened FreeBytes = %d, want %d", h2.FreeBytes(), h.FreeBytes())
	}
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
	// And the reopened heap can keep allocating and freeing.
	for i := 1; i < len(addrs); i += 2 {
		if err := h2.Free(m, addrs[i]); err != nil {
			t.Fatalf("free via reopened heap: %v", err)
		}
	}
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSlabRecycling(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	// Fill more than one slab of a class, then free everything: all
	// pages must coalesce back.
	per := (slabSize - slabHdrSize) / 64
	var addrs []pmem.Addr
	for i := 0; i < int(per)+5; i++ {
		a, err := h.Alloc(m, tNode, 64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(m, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.FreeBytes() != h.P.HeapSize()/puddle.BlockSize*puddle.BlockSize {
		t.Fatal("slab pages not returned to buddy allocator")
	}
}

func TestDistinctTypesDistinctSlabs(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	a, _ := h.Alloc(m, ptypes.TypeID(1), 16)
	b, _ := h.Alloc(m, ptypes.TypeID(2), 16)
	ta, _ := h.TypeOf(a)
	tb, _ := h.TypeOf(b)
	if ta == tb {
		t.Fatal("types collapsed")
	}
	// Same class, different types must not share a slab page.
	if a&^(slabSize-1) == b&^(slabSize-1) {
		t.Fatal("different types share a slab")
	}
}

// TestRandomAllocFreeStress drives random alloc/free traffic and
// checks invariants throughout — the allocator's core property test.
func TestRandomAllocFreeStress(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	rng := rand.New(rand.NewSource(99))
	type obj struct {
		addr pmem.Addr
		size uint32
	}
	var live []obj
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 500) {
			k := rng.Intn(len(live))
			if err := h.Free(m, live[k].addr); err != nil {
				t.Fatalf("step %d: free: %v", i, err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			size := uint32(1 + rng.Intn(3000))
			a, err := h.Alloc(m, ptypes.TypeID(rng.Intn(4)+1), size)
			if err == ErrNoSpace {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: alloc(%d): %v", i, size, err)
			}
			// Write the payload to catch overlap corruption via the
			// validator below.
			h.P.Dev.StoreU64(a, uint64(a))
			live = append(live, obj{a, size})
		}
		if i%500 == 0 {
			if err := h.Validate(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	// No two live payloads may have been corrupted (overlap check).
	for _, o := range live {
		if v := h.P.Dev.LoadU64(o.addr); v != uint64(o.addr) {
			t.Fatalf("payload at %#x corrupted (reads %#x)", uint64(o.addr), v)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if uint64(len(live)) != h.LiveObjects() {
		t.Fatalf("LiveObjects = %d, tracked %d", h.LiveObjects(), len(live))
	}
}

func TestLargestOrderAt(t *testing.T) {
	cases := []struct {
		i, rem uint64
		want   uint
	}{
		{0, 1, 0}, {0, 2, 1}, {0, 3, 1}, {0, 4, 2},
		{0, 2044, 10}, {1024, 1020, 9}, {2, 2, 1}, {1, 100, 0},
	}
	for _, c := range cases {
		if got := largestOrderAt(c.i, c.rem); got != c.want {
			t.Errorf("largestOrderAt(%d,%d) = %d, want %d", c.i, c.rem, got, c.want)
		}
	}
}

func TestOrderForBytes(t *testing.T) {
	if orderForBytes(1) != 0 || orderForBytes(1024) != 0 || orderForBytes(1025) != 1 || orderForBytes(5000) != 3 {
		t.Fatal("orderForBytes wrong")
	}
}
