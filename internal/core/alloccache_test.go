package core

import "testing"

// TestAffinityHintRevalidates is the regression test for stale worker
// hints: a hint noted under one range-index generation must revalidate
// by address when the index republishes, surviving unrelated changes
// and dropping when its own heap was detached.
func TestAffinityHintRevalidates(t *testing.T) {
	_, c := newSystem(t)
	poolA, err := c.CreatePool("hint-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	poolB, err := c.CreatePool("hint-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	heapA := poolA.snapshotHeaps()[0]
	aff := c.getAffinity()
	aff.note(c, poolA, heapA)
	if aff.heapFor(c, poolA) != heapA {
		t.Fatal("hint not served while the index is unchanged")
	}
	// Republication that does not touch A: the hint revalidates by
	// address and survives.
	if err := poolB.Delete(); err != nil {
		t.Fatal(err)
	}
	if aff.heapFor(c, poolA) != heapA {
		t.Fatal("hint dropped although its heap is still indexed")
	}
	// A's heaps detach: the stale hint must be dropped, not dereferenced.
	if err := poolA.Delete(); err != nil {
		t.Fatal(err)
	}
	if aff.heapFor(c, poolA) != nil {
		t.Fatal("stale hint survived the owning pool's delete")
	}
}

// TestCacheAllocFastPath: the first small allocation refills a worker
// cache; subsequent ones in later transactions hit it without touching
// a heap lease, and the batched counters surface on the device.
func TestCacheAllocFastPath(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("cachefast", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin(pool)
	// Worker records live in a sync.Pool, which may drop one at any GC
	// (and drops a share of Puts under the race detector): "suboptimal,
	// never wrong". Hold the record across both transactions so the
	// test asserts the fast path, not the pool's retention. Nothing else
	// runs on this client, so the record's second Put is harmless.
	aff := tx.affinity()
	a1, err := tx.Alloc(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.device().Stats().CacheRefills; got == 0 {
		t.Fatal("first small alloc did not refill a worker cache")
	}
	hits := c.device().Stats().CacheHits
	tx = c.Begin(pool)
	tx.aff = aff
	a2, err := tx.Alloc(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.device().Stats().CacheHits; got != hits+1 {
		t.Fatalf("CacheHits = %d, want %d (second alloc should hit)", got, hits+1)
	}
	// Both objects came from the same parked slab.
	_, h1, _ := c.heapAt(a1)
	_, h2, _ := c.heapAt(a2)
	if h1 != h2 || h1.ParkedAt(a1) == nil || h1.ParkedAt(a1) != h2.ParkedAt(a2) {
		t.Fatal("cached allocations did not share one parked slab")
	}
	if got := pool.LiveObjects(); got != 2 {
		t.Fatalf("LiveObjects = %d, want 2", got)
	}
}

// TestCacheAbortRollsBack: an aborted transaction's cached allocations
// roll back (undo log covers the slab bitmap) and the entry resyncs —
// census exact, heap valid, cache still usable afterwards.
func TestCacheAbortRollsBack(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("cacheabort", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin(pool)
	if _, err := tx.Alloc(ti.ID, nodeSz); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	before := pool.LiveObjects()
	tx = c.Begin(pool)
	for i := 0; i < 10; i++ {
		if _, err := tx.Alloc(ti.ID, nodeSz); err != nil {
			t.Fatal(err)
		}
	}
	tx.Abort()
	if got := pool.LiveObjects(); got != before {
		t.Fatalf("aborted cached allocs leaked: %d -> %d", before, got)
	}
	for i, h := range pool.snapshotHeaps() {
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid after cache abort: %v", i, err)
		}
	}
	// The resynced entry still serves allocations.
	tx = c.Begin(pool)
	if _, err := tx.Alloc(ti.ID, nodeSz); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := pool.LiveObjects(); got != before+1 {
		t.Fatalf("LiveObjects = %d, want %d", got, before+1)
	}
}

// TestForeignFreeIntoParkedSlab: a different worker frees an object
// living in someone else's parked slab; the free routes through the
// entry lease, not the heap lease, and the census stays exact.
func TestForeignFreeIntoParkedSlab(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("foreignfree", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin(pool)
	a, err := tx.Alloc(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, h, _ := c.heapAt(a)
	if h.ParkedAt(a) == nil {
		t.Fatal("small object not served from a parked slab")
	}
	before := pool.LiveObjects()
	errCh := make(chan error, 1)
	go func() {
		// A separate goroutine may hold a different affinity record;
		// either way the free must route through the entry lease.
		tx := c.Begin(pool)
		if err := tx.Free(a); err != nil {
			tx.Abort()
			errCh <- err
			return
		}
		errCh <- tx.Commit()
	}()
	if err := <-errCh; err != nil {
		t.Fatalf("foreign free: %v", err)
	}
	if got := pool.LiveObjects(); got != before-1 {
		t.Fatalf("LiveObjects = %d, want %d", got, before-1)
	}
	for i, h := range pool.snapshotHeaps() {
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid after foreign free: %v", i, err)
		}
	}
}

// TestEmptyCacheDonation: a slab that sits empty across two
// consecutive commits is bulk-donated back to the shared heap.
func TestEmptyCacheDonation(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("donate", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each round allocates and frees inside one transaction, so the
	// entry is empty at every commit and ages toward donation.
	for i := 0; i < 4; i++ {
		tx := c.Begin(pool)
		a, err := tx.Alloc(ti.ID, nodeSz)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Free(a); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.device().Stats().SlabDonations; got == 0 {
		t.Fatal("empty cached slab was never donated")
	}
	parked := 0
	for _, h := range pool.snapshotHeaps() {
		parked += h.ParkedSlabs()
	}
	if parked != 0 {
		t.Fatalf("%d slabs still parked after donation rounds", parked)
	}
	if got := pool.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
	for i, h := range pool.snapshotHeaps() {
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid after donation: %v", i, err)
		}
	}
}
