package core

import (
	"errors"
	"testing"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// twoHeapPool builds a pool with (at least) two member heaps and
// returns them. The second heap is forced the same way
// TestConcurrentAllocatorsSpread does: an in-flight transaction owns
// the first heap's lease, so a second transaction's allocation grows
// the pool.
func twoHeapPool(t *testing.T, c *Client, name string) (*Pool, [2]*alloc.Heap) {
	t.Helper()
	// These tests pin down the shared-heap lease protocol; the worker
	// allocation cache would satisfy both transactions from one slab
	// without ever contending a heap lease, so the objects are too
	// large for it.
	ti, err := c.RegisterLayout("dl.node", bigNode{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx1 := c.Begin(pool)
	if _, err := tx1.Alloc(ti.ID, bigNodeSz); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin(pool)
	if _, err := tx2.Alloc(ti.ID, bigNodeSz); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	heaps := pool.snapshotHeaps()
	if len(heaps) < 2 {
		t.Fatalf("pool has %d heaps, want >= 2", len(heaps))
	}
	return pool, [2]*alloc.Heap{heaps[0], heaps[1]}
}

// fillHeaps Mallocs n objects into each of the two heaps, returning
// the per-heap object lists. Allocation is steered deterministically:
// every other member heap's lease is held while a heap is filled, so
// the probe (which skips leased heaps and, with worker affinity,
// would otherwise keep converging on one heap) must land there.
func fillHeaps(t *testing.T, c *Client, pool *Pool, heaps [2]*alloc.Heap, n int) [2][]pmem.Addr {
	t.Helper()
	ti, ok := c.types.Lookup(ptypes.IDOf("dl.node"))
	if !ok {
		t.Fatal("dl.node type not registered")
	}
	members := pool.snapshotHeaps()
	var objs [2][]pmem.Addr
	for i := 0; i < 2; i++ {
		for _, h := range members {
			if h != heaps[i] {
				h.Lease()
			}
		}
		for len(objs[i]) < n {
			a, err := pool.Malloc(ti.ID, bigNodeSz)
			if err != nil {
				t.Fatal(err)
			}
			_, h, ok := c.heapAt(a)
			if !ok {
				t.Fatalf("Malloc returned unindexed address %#x", uint64(a))
			}
			if h != heaps[i] {
				t.Fatalf("Malloc landed on an unexpected heap (object %#x)", uint64(a))
			}
			objs[i] = append(objs[i], a)
		}
		for _, h := range members {
			if h != heaps[i] {
				h.Unlease()
			}
		}
	}
	return objs
}

// TestOppositeOrderMultiHeapFrees is the regression test for the
// multi-heap lease-ordering deadlock: before wait-die arbitration, two
// transactions freeing across the same two heaps in opposite orders
// each blocked in Heap.Lease holding the lease the other needed, and
// the test hung forever. Run it with -race and -timeout 60s.
func TestOppositeOrderMultiHeapFrees(t *testing.T) {
	_, c := newSystem(t)
	pool, heaps := twoHeapPool(t, c, "deadlock")

	const iters = 30
	objs := fillHeaps(t, c, pool, heaps, 2*iters)
	// Worker w frees one object from each heap per transaction, worker
	// 0 in heap order 0->1 and worker 1 in order 1->0. The workers
	// rendezvous before each round and dwell between their two frees,
	// so both transactions reliably hold their first lease while
	// demanding the second — the exact deadlock interleaving.
	mine := [2][2][]pmem.Addr{
		{objs[0][:iters], objs[1][:iters]}, // worker 0: h0 then h1
		{objs[1][iters:], objs[0][iters:]}, // worker 1: h1 then h0
	}
	ready := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				ready[w] <- struct{}{}
				<-ready[1-w]
				first, second := mine[w][0][i], mine[w][1][i]
				err := c.Run(pool, func(tx *Tx) error {
					if err := tx.Free(first); err != nil {
						return err
					}
					time.Sleep(time.Millisecond)
					return tx.Free(second)
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 2; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker failed: %v", err)
			}
		case <-time.After(45 * time.Second):
			t.Fatal("deadlock: opposite-order multi-heap frees did not complete")
		}
	}
	// Ground truth: every freed object is gone, heaps still validate.
	// Survivors: the two setup allocations from twoHeapPool plus any
	// filler objects beyond the 4*iters the workers freed.
	want := uint64(2 + len(objs[0]) + len(objs[1]) - 4*iters)
	if got := pool.LiveObjects(); got != want {
		t.Fatalf("LiveObjects = %d, want %d", got, want)
	}
	for i, h := range pool.snapshotHeaps() {
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid: %v", i, err)
		}
	}
}

// TestWaitDieVictimSurfacesToManualTx: a manual Begin/Free that loses
// wait-die arbitration must see ErrTxConflict rather than block
// forever, and an abort must clear its leases so the winner proceeds.
func TestWaitDieVictimSurfacesToManualTx(t *testing.T) {
	_, c := newSystem(t)
	pool, heaps := twoHeapPool(t, c, "victim")
	objs := fillHeaps(t, c, pool, heaps, 2)

	// Older transaction holds heap 0.
	older := c.Begin(pool)
	if err := older.Free(objs[0][0]); err != nil {
		t.Fatal(err)
	}
	// Younger transaction holds heap 1, then demands heap 0: it must
	// die, not wait.
	younger := c.Begin(pool)
	if err := younger.Free(objs[1][0]); err != nil {
		t.Fatal(err)
	}
	if err := younger.Free(objs[0][1]); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("younger Free = %v, want ErrTxConflict", err)
	}
	younger.Abort()
	// The older transaction can now take heap 1 (the victim's rollback
	// released it) and commit.
	if err := older.Free(objs[1][1]); err != nil {
		t.Fatal(err)
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(pool, func(tx *Tx) error { return tx.Free(objs[1][0]) }); err != nil {
		t.Fatalf("victim's object should still be allocated after rollback: %v", err)
	}
}
