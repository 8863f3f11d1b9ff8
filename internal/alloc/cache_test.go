package alloc

import (
	"sync"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// refill carves a parked slab by any means: the direct one-fence path
// when an exact slab-order block is free, else a transactional carve
// under a plain heap lease. Fails the test when the heap is truly full.
func refill(t *testing.T, h *Heap, ts, owner uint64, class uint32) *CacheEntry {
	t.Helper()
	if e := h.RefillDirect(ts, owner, tNode, class); e != nil {
		return e
	}
	h.Lease()
	e, err := h.RefillTx(Direct{Dev: h.P.Dev}, ts, owner, tNode, class)
	h.Unlease()
	if err != nil {
		t.Fatalf("refill: %v", err)
	}
	return e
}

func TestWordMaskBounds(t *testing.T) {
	cases := []struct {
		w, count uint32
		want     uint64
	}{
		{0, 64, ^uint64(0)},
		{0, 3, 0x7},
		{1, 64, 0},  // word entirely past the end
		{4, 252, 0}, // regression: used to underflow to all-ones
		{3, 252, (uint64(1) << 60) - 1},
		{2, 130, 0x3},
	}
	for _, c := range cases {
		if got := wordMask(c.w, c.count); got != c.want {
			t.Errorf("wordMask(%d, %d) = %#x, want %#x", c.w, c.count, got, c.want)
		}
	}
}

func TestRefillDirectOneFence(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	before := h.P.Dev.Stats().Fences
	e := h.RefillDirect(1, 7, tNode, 16)
	if e == nil {
		t.Fatal("RefillDirect found no exact slab-order block on a fresh heap")
	}
	if got := h.P.Dev.Stats().Fences - before; got != 1 {
		t.Fatalf("refill issued %d fences, want exactly 1", got)
	}
	if e.Owner() != 7 || !e.Live() || e.Class() != 16 {
		t.Fatalf("entry owner=%d live=%v class=%d", e.Owner(), e.Live(), e.Class())
	}
	if h.ParkedSlabs() != 1 {
		t.Fatalf("ParkedSlabs = %d, want 1", h.ParkedSlabs())
	}
	// A parked slab is invisible to the shared alloc path but still
	// census-true and Validate-clean.
	if err := h.Validate(); err != nil {
		t.Fatalf("heap with parked slab invalid: %v", err)
	}
	if h.LiveObjects() != 0 {
		t.Fatalf("LiveObjects = %d, want 0", h.LiveObjects())
	}
	e.Unlease()
}

func TestParkedSlabAllocFree(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	e := refill(t, h, 1, 7, 16)
	var addrs []pmem.Addr
	for i := 0; i < 5; i++ {
		a, ok := e.Alloc(m)
		if !ok {
			t.Fatal("fresh entry full")
		}
		addrs = append(addrs, a)
	}
	if h.LiveObjects() != 5 {
		t.Fatalf("LiveObjects = %d, want 5", h.LiveObjects())
	}
	// The shared free path must refuse a parked object and point the
	// caller at the entry — including for objects deep inside the
	// slab's interior blocks.
	for _, a := range addrs {
		if err := h.Free(m, a); err != ErrParked {
			t.Fatalf("Heap.Free(parked) = %v, want ErrParked", err)
		}
		if h.ParkedAt(a) != e {
			t.Fatalf("ParkedAt(%#x) did not find the entry", uint64(a))
		}
	}
	if err := e.Free(m, addrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Free(m, addrs[0]); err != ErrBadFree {
		t.Fatalf("double free via entry = %v, want ErrBadFree", err)
	}
	if h.LiveObjects() != 4 {
		t.Fatalf("LiveObjects = %d, want 4", h.LiveObjects())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	e.Unlease()
}

func TestDonateBulkReturnsSlabs(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	e := refill(t, h, 1, 7, 16)
	a, _ := e.Alloc(m)
	if err := e.Free(m, a); err != nil {
		t.Fatal(err)
	}
	free := h.FreeBytes()
	if n := h.DonateBulk([]*CacheEntry{e}, false); n != 1 {
		t.Fatalf("DonateBulk = %d, want 1", n)
	}
	if e.Live() {
		t.Fatal("donated entry still live")
	}
	if h.ParkedSlabs() != 0 {
		t.Fatalf("ParkedSlabs = %d after donation", h.ParkedSlabs())
	}
	if got := h.FreeBytes(); got != free+slabSize {
		t.Fatalf("FreeBytes = %d, want %d (slab returned)", got, free+slabSize)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// The donated block is immediately re-carvable.
	e2 := h.RefillDirect(2, 8, tNode, 64)
	if e2 == nil {
		t.Fatal("donated slab not re-carvable")
	}
	e2.Unlease()
}

func TestUnparkFullDemotesToSlab(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	e := refill(t, h, 1, 7, 64)
	var last pmem.Addr
	n := 0
	for {
		a, ok := e.Alloc(m)
		if !ok {
			break
		}
		last, n = a, n+1
	}
	want := int((slabSize - slabHdrSize) / 64)
	if n != want {
		t.Fatalf("entry yielded %d objects, want %d", n, want)
	}
	if !e.Full() {
		t.Fatal("exhausted entry not Full")
	}
	if !h.UnparkFull(e) {
		t.Fatal("UnparkFull refused a full entry")
	}
	if e.Live() || h.ParkedSlabs() != 0 {
		t.Fatal("unparked entry still parked")
	}
	if got := h.LiveObjects(); got != uint64(n) {
		t.Fatalf("LiveObjects = %d, want %d after unpark", got, n)
	}
	// The demoted slab is an ordinary slab again: shared frees work.
	if err := h.Free(m, last); err != nil {
		t.Fatalf("Free on unparked slab: %v", err)
	}
	if got := h.LiveObjects(); got != uint64(n-1) {
		t.Fatalf("LiveObjects = %d, want %d", got, n-1)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	e.Unlease()
}

func TestAdoptParkedRestamps(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	e := refill(t, h, 1, 7, 16)
	e.Unlease() // the owning "worker" goes idle
	got := h.AdoptParked(2, 9, tNode, 16)
	if got != e {
		t.Fatal("AdoptParked did not steal the idle entry")
	}
	if got.Owner() != 9 {
		t.Fatalf("adopted owner = %d, want 9", got.Owner())
	}
	// Class or type mismatch must not adopt.
	if h.AdoptParked(3, 10, tNode, 32) != nil {
		t.Fatal("adopted an entry of the wrong class")
	}
	got.Unlease()
}

// TestRescanReclaimsOrphans is the crash shape: parked slabs whose
// process died. A rescan with no live entries queues them; reclaim
// demotes the populated one (census intact) and frees the empty one.
func TestRescanReclaimsOrphans(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	populated := refill(t, h, 1, 7, 16)
	for i := 0; i < 5; i++ {
		if _, ok := populated.Alloc(m); !ok {
			t.Fatal("entry full")
		}
	}
	empty := refill(t, h, 1, 7, 32)

	// "Crash": a fresh Heap over the same media has no entries.
	h2 := NewHeap(h.P)
	if h2.ParkedSlabs() != 2 {
		t.Fatalf("rescan found %d parked slabs, want 2", h2.ParkedSlabs())
	}
	if err := h2.Validate(); err != nil {
		t.Fatalf("heap with pending slabs invalid: %v", err)
	}
	if got := h2.LiveObjects(); got != 5 {
		t.Fatalf("pre-reclaim census = %d, want 5", got)
	}
	if n := h2.ReclaimParked(Direct{Dev: h.P.Dev}); n != 2 {
		t.Fatalf("ReclaimParked = %d, want 2", n)
	}
	if h2.ParkedSlabs() != 0 {
		t.Fatalf("ParkedSlabs = %d after reclaim", h2.ParkedSlabs())
	}
	if got := h2.LiveObjects(); got != 5 {
		t.Fatalf("post-reclaim census = %d, want 5", got)
	}
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The demoted slab serves shared allocations again.
	a, err := h2.Alloc(Direct{Dev: h.P.Dev}, tNode, 16)
	if err != nil {
		t.Fatal(err)
	}
	if h2.LiveObjects() != 6 {
		t.Fatalf("census = %d after alloc", h2.LiveObjects())
	}
	if err := h2.Free(Direct{Dev: h.P.Dev}, a); err != nil {
		t.Fatal(err)
	}
	_ = empty
}

// TestValidateFlagsLeakedParkedBlock: a cached block-map byte with
// neither a live entry nor a pending record is a leak and must fail
// validation (satellite: no false negatives either way).
func TestValidateFlagsLeakedParkedBlock(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	e := refill(t, h, 1, 7, 16)
	if err := h.Validate(); err != nil {
		t.Fatalf("live parked slab flagged: %v", err)
	}
	// Kill the entry without fixing the media byte.
	e.alive.Store(false)
	if err := h.Validate(); err == nil {
		t.Fatal("Validate missed an unowned parked block")
	}
	e.alive.Store(true)
	e.Unlease()
}

// TestParkedCensusConcurrent hammers one heap with per-worker
// park/alloc/free/donate cycles and checks the census is exact at
// every quiescent point. Run with -race.
func TestParkedCensusConcurrent(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	const workers = 4
	const rounds = 8
	var live [workers]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := Direct{Dev: h.P.Dev}
			ts := uint64(w + 1)
			for r := 0; r < rounds; r++ {
				var e *CacheEntry
				if e = h.RefillDirect(ts, ts, tNode, 16); e == nil {
					h.Lease()
					var err error
					e, err = h.RefillTx(m, ts, ts, tNode, 16)
					h.Unlease()
					if err != nil {
						return // heap exhausted: keep what we have
					}
				}
				var addrs []pmem.Addr
				for i := 0; i < 10; i++ {
					a, ok := e.Alloc(m)
					if !ok {
						break
					}
					addrs = append(addrs, a)
				}
				if r%2 == 0 {
					// Drain and donate the slab back.
					for _, a := range addrs {
						if err := e.Free(m, a); err != nil {
							panic(err)
						}
					}
					h.DonateBulk([]*CacheEntry{e}, false)
					if e.Live() {
						e.Unlease()
						// Contended donation: unpark path still counts.
						continue
					}
				} else {
					live[w] += uint64(len(addrs))
					e.Unlease()
				}
			}
		}(w)
	}
	wg.Wait()
	var want uint64
	for _, n := range live {
		want += n
	}
	if got := h.LiveObjects(); got != want {
		t.Fatalf("census = %d, want exactly %d", got, want)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// findFreeSlotLinear is the pre-wordscan implementation, kept for the
// before/after microbenchmark.
func (h *Heap) findFreeSlotLinear(slab pmem.Addr, count uint32) int32 {
	var buf [40]byte
	bm := h.loadBitmap(slab, count, &buf)
	for i, b := range bm {
		if b == 0xff {
			continue
		}
		for j := uint32(0); j < 8; j++ {
			e := uint32(i)*8 + j
			if e >= count {
				return -1
			}
			if b&(1<<j) == 0 {
				return int32(e)
			}
		}
	}
	return -1
}

func TestFindFreeSlotMatchesLinear(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	m := Direct{Dev: h.P.Dev}
	// Drive a slab through fill/free patterns and compare both
	// scanners at every step.
	a, err := h.Alloc(m, tNode, 16)
	if err != nil {
		t.Fatal(err)
	}
	slab := a - slabHdrSize // slot-0 payload sits right after the header
	count := uint32((slabSize - slabHdrSize) / 16)
	check := func() {
		t.Helper()
		if g, w := h.findFreeSlot(slab, count), h.findFreeSlotLinear(slab, count); g != w {
			t.Fatalf("findFreeSlot = %d, linear = %d", g, w)
		}
	}
	var objs []pmem.Addr
	objs = append(objs, a)
	for i := 0; i < 200; i++ {
		check()
		b, err := h.Alloc(m, tNode, 16)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, b)
	}
	for i := 0; i < len(objs); i += 3 {
		if err := h.Free(m, objs[i]); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

func BenchmarkFindFreeSlot(b *testing.B) {
	for _, impl := range []string{"wordscan", "linear"} {
		b.Run(impl, func(b *testing.B) {
			dev := pmem.New()
			p, err := puddle.Format(dev, 0x100000, puddle.DefaultSize, uid.New(), puddle.KindData, uid.Nil)
			if err != nil {
				b.Fatal(err)
			}
			m := Direct{Dev: dev}
			Format(p, m)
			h := NewHeap(p)
			// A nearly full slab is the worst case: the scan walks the
			// whole bitmap to find the one free slot near the end.
			a, err := h.Alloc(m, tNode, 16)
			if err != nil {
				b.Fatal(err)
			}
			slab := a - slabHdrSize
			count := uint32((slabSize - slabHdrSize) / 16)
			for i := uint32(1); i < count-1; i++ {
				if _, err := h.Alloc(m, tNode, 16); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if impl == "wordscan" {
					h.findFreeSlot(slab, count)
				} else {
					h.findFreeSlotLinear(slab, count)
				}
			}
		})
	}
}
