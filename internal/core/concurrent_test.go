package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
)

// TestConcurrentTransactions hammers one pool with parallel
// transactions doing alloc/write/free (plus deliberate aborts) and
// then checks the allocator ground truth: LiveObjects is exact and
// every member heap validates. Run under -race this is the
// concurrency proof for the sharded client/pool/heap lock hierarchy.
func TestConcurrentTransactions(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("mt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.CreateRoot(ti.ID, nodeSz); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 120
	errAbort := errors.New("deliberate abort")
	live := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 77)))
			var mine []pmem.Addr
			for i := 0; i < iters; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(4) == 0:
					// Transactional free of an object this worker owns.
					j := rng.Intn(len(mine))
					addr := mine[j]
					if err := c.Run(pool, func(tx *Tx) error {
						return tx.Free(addr)
					}); err != nil {
						t.Errorf("worker %d: free: %v", w, err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
				case rng.Intn(8) == 0:
					// Abort mid-flight: the allocation must roll back.
					err := c.Run(pool, func(tx *Tx) error {
						a, err := tx.Alloc(ti.ID, nodeSz)
						if err != nil {
							return err
						}
						if err := tx.SetU64(a+offData, ^uint64(0)); err != nil {
							return err
						}
						return errAbort
					})
					if !errors.Is(err, ErrTxFailed) {
						t.Errorf("worker %d: abort run = %v", w, err)
						return
					}
				default:
					var addr pmem.Addr
					if err := c.Run(pool, func(tx *Tx) error {
						a, err := tx.Alloc(ti.ID, nodeSz)
						if err != nil {
							return err
						}
						addr = a
						return tx.SetU64(a+offData, uint64(w)<<32|uint64(i))
					}); err != nil {
						t.Errorf("worker %d: alloc: %v", w, err)
						return
					}
					mine = append(mine, addr)
				}
			}
			live[w] = uint64(len(mine))
			// Committed writes must be visible.
			for _, a := range mine {
				if v := c.Device().LoadU64(a + offData); v>>32 != uint64(w) {
					t.Errorf("worker %d: object %#x holds %#x", w, uint64(a), v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var want uint64 = 1 // the root object
	for _, n := range live {
		want += n
	}
	if got := pool.LiveObjects(); got != want {
		t.Fatalf("LiveObjects = %d, want exactly %d", got, want)
	}
	for i, h := range pool.snapshotHeaps() {
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid after concurrent transactions: %v", i, err)
		}
	}
	if c.ReleaseErrors() != 0 {
		t.Fatalf("ReleaseErrors = %d", c.ReleaseErrors())
	}
}

// TestConcurrentAllocatorsSpread checks the rotating start heap: two
// transactions allocating at the same time must land on different
// member puddles (each in-flight transaction owns its heap lease, so
// the pool grows a sibling puddle rather than convoying).
func TestConcurrentAllocatorsSpread(t *testing.T) {
	_, c := newSystem(t)
	// The worker cache would serve both transactions from one parked
	// slab (no heap lease at all); objects too large for it pin the
	// spread path.
	ti, err := c.RegisterLayout("node", bigNode{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("spread", 0)
	if err != nil {
		t.Fatal(err)
	}

	tx1 := c.Begin(pool)
	a1, err := tx1.Alloc(ti.ID, bigNodeSz)
	if err != nil {
		t.Fatal(err)
	}
	// tx1 is still in flight and owns its heap; a second transaction
	// must not block — it gets a sibling heap.
	tx2 := c.Begin(pool)
	a2, err := tx2.Alloc(ti.ID, bigNodeSz)
	if err != nil {
		t.Fatal(err)
	}
	_, h1, _ := c.heapAt(a1)
	_, h2, _ := c.heapAt(a2)
	if h1 == nil || h2 == nil || h1 == h2 {
		t.Fatalf("concurrent transactions share heap %p", h1)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// After both committed, a fresh transaction can reuse either heap.
	if err := c.Run(pool, func(tx *Tx) error {
		_, err := tx.Alloc(ti.ID, bigNodeSz)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocTooLargeTerminates: an allocation above the buddy
// allocator's hard cap must surface ErrTooLarge from both allocation
// paths instead of growing the pool forever.
func TestAllocTooLargeTerminates(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("huge", 0)
	if err != nil {
		t.Fatal(err)
	}
	const huge = 64 << 20 // orderForBytes > maxOrder on any heap
	if _, err := pool.Malloc(ti.ID, huge); !errors.Is(err, alloc.ErrTooLarge) {
		t.Fatalf("Malloc(huge) = %v, want ErrTooLarge", err)
	}
	err = c.Run(pool, func(tx *Tx) error {
		_, err := tx.Alloc(ti.ID, huge)
		return err
	})
	if !errors.Is(err, alloc.ErrTooLarge) {
		t.Fatalf("Tx.Alloc(huge) = %v, want ErrTooLarge", err)
	}
}

// TestReleaseLogErrorSurfaced covers the formerly-silent OpFreePuddle
// failure in the cache-ablated release path: the commit is durable,
// but the caller sees ErrLogRelease and the counter ticks.
func TestReleaseLogErrorSurfaced(t *testing.T) {
	d, c := newSystem(t)
	c.SetLogCache(false)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("rel", 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin(pool)
	if err := tx.SetU64(root+offData, 42); err != nil {
		t.Fatal(err)
	}
	d.Shutdown() // the release round trip will now fail
	err = tx.Commit()
	if !errors.Is(err, ErrLogRelease) {
		t.Fatalf("Commit = %v, want ErrLogRelease", err)
	}
	if got := c.ReleaseErrors(); got != 1 {
		t.Fatalf("ReleaseErrors = %d, want 1", got)
	}
	// The transaction itself committed durably.
	if v := c.Device().LoadU64(root + offData); v != 42 {
		t.Fatalf("committed value = %d, want 42", v)
	}
}

// TestVolatileAllocConcurrent exercises the atomic bump cursor.
func TestVolatileAllocConcurrent(t *testing.T) {
	_, c := newSystem(t)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	got := make([]map[pmem.Addr]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make(map[pmem.Addr]bool, per)
			for i := 0; i < per; i++ {
				got[w][c.VolatileAlloc(8+i%9)] = true
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[pmem.Addr]bool)
	for w := range got {
		for a := range got[w] {
			if seen[a] {
				t.Fatalf("address %#x handed out twice", uint64(a))
			}
			seen[a] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d distinct addresses, want %d", len(seen), workers*per)
	}
}
