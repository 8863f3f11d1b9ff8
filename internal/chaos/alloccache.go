package chaos

import (
	"errors"
	"fmt"

	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// errIntentionalAbort drives the scenario's abort leg through
// Client.Run's rollback path (entry Resync) under crash injection.
var errIntentionalAbort = errors.New("chaos: intentional abort")

// AllocCacheChurn sweeps power failures across every phase of the
// worker allocation cache's life cycle: direct one-fence refills,
// transactional carves, cached allocs and frees (undo-logged slab
// bits), an intentional abort (entry resync), a slab filled to
// unparking, drain-to-empty commits that trigger bulk donation, and
// the reclaim of orphaned parked slabs when the pool reopens after the
// crash. The invariant is exact object census: recovery must land on
// the committed-transaction count (or the interrupted transaction's
// count, if its commit point made it to media), with every heap
// structurally valid, no slab leaked or double-owned, and nothing left
// parked after reclaim.
func AllocCacheChurn() Scenario {
	const objSize = 48 // class 64: 63 objects per slab
	node := ptypes.IDOf("chaos.cachenode")
	var (
		baseline  int64 // census after Setup
		committed int64 // live objects from committed transactions
		pending   int64 // in-flight delta of the interrupted transaction
		liveAddrs []pmem.Addr
	)
	// run executes one transaction, tracking its alloc/free delta so a
	// crash mid-transaction leaves `pending` describing exactly the
	// in-flight work (reset on every wait-die retry).
	run := func(e *Env, fn func(tx *core.Tx) (int64, error)) error {
		err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
			pending = 0
			d, err := fn(tx)
			pending = d
			return err
		})
		if err == nil {
			committed += pending
		}
		pending = 0
		return err
	}
	return Scenario{
		Name: "alloc-cache-churn",
		Setup: func(e *Env) error {
			if _, err := e.Client.RegisterType("chaos.cachenode", objSize, nil); err != nil {
				return err
			}
			if _, err := e.Pool.CreateRoot(node, 16); err != nil {
				return err
			}
			baseline = int64(e.Pool.LiveObjects())
			committed, pending = 0, 0
			liveAddrs = liveAddrs[:0]
			return nil
		},
		Mutate: func(e *Env) error {
			alloc := func(tx *core.Tx) (pmem.Addr, error) {
				a, err := tx.Alloc(node, objSize)
				if err != nil {
					return 0, err
				}
				return a, tx.SetU64(a, uint64(a))
			}
			// allocs commits n cached allocations in one transaction.
			allocs := func(n int) error {
				var batch []pmem.Addr
				err := run(e, func(tx *core.Tx) (int64, error) {
					batch = batch[:0]
					for i := 0; i < n; i++ {
						a, err := alloc(tx)
						if err != nil {
							return int64(len(batch)), err
						}
						batch = append(batch, a)
					}
					return int64(len(batch)), nil
				})
				if err == nil {
					liveAddrs = append(liveAddrs, batch...)
				}
				return err
			}
			// Phase 1: cached allocations across several commits (first
			// one refills — direct carve or transactional split).
			for round := 0; round < 4; round++ {
				if err := allocs(5); err != nil {
					return err
				}
			}
			// Phase 2: free every other object (undo-logged bits flip
			// back off inside the parked slab).
			var kept []pmem.Addr
			if err := run(e, func(tx *core.Tx) (int64, error) {
				kept = kept[:0]
				freed := int64(0)
				for i, a := range liveAddrs {
					if i%2 == 0 {
						if err := tx.Free(a); err != nil {
							return -freed, err
						}
						freed++
					} else {
						kept = append(kept, a)
					}
				}
				return -freed, nil
			}); err != nil {
				return err
			}
			liveAddrs = append(liveAddrs[:0], kept...)
			// Phase 3: an intentional abort — allocations roll back and
			// the entry resyncs from media.
			if err := run(e, func(tx *core.Tx) (int64, error) {
				for i := 0; i < 3; i++ {
					if _, err := alloc(tx); err != nil {
						return 0, err
					}
				}
				return 0, errIntentionalAbort
			}); err != nil && !errors.Is(err, errIntentionalAbort) {
				return err
			}
			// Phase 4: overfill one slab in a single transaction so the
			// commit unparks it full and refills a successor.
			if err := allocs(70); err != nil {
				return err
			}
			// Phase 5: drain everything in two commits, then churn two
			// empty commits — the cache ages out and donates its slabs.
			for len(liveAddrs) > 0 {
				half := len(liveAddrs) / 2
				if half == 0 {
					half = len(liveAddrs)
				}
				victims := liveAddrs[:half]
				if err := run(e, func(tx *core.Tx) (int64, error) {
					freed := int64(0)
					for _, a := range victims {
						if err := tx.Free(a); err != nil {
							return -freed, err
						}
						freed++
					}
					return -freed, nil
				}); err != nil {
					return err
				}
				liveAddrs = liveAddrs[half:]
			}
			for i := 0; i < 2; i++ {
				if err := run(e, func(tx *core.Tx) (int64, error) {
					a, err := alloc(tx)
					if err != nil {
						return 0, err
					}
					return 0, tx.Free(a)
				}); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			got := int64(e.Pool.LiveObjects())
			want := baseline + committed
			if got != want && got != want+pending {
				return fmt.Errorf("census = %d, want %d (or %d with the in-flight tx)",
					got, want, want+pending)
			}
			for i, h := range e.Pool.Heaps() {
				if err := h.Validate(); err != nil {
					return fmt.Errorf("heap %d after recovery: %w", i, err)
				}
				if n := h.ParkedSlabs(); n != 0 {
					return fmt.Errorf("heap %d: %d slabs still parked after reclaim", i, n)
				}
			}
			// Usability probe: the recovered heaps must serve cached
			// allocations again, and the census must return exactly.
			if err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
				a, err := tx.Alloc(node, objSize)
				if err != nil {
					return err
				}
				return tx.Free(a)
			}); err != nil {
				return fmt.Errorf("post-recovery transaction: %w", err)
			}
			if after := int64(e.Pool.LiveObjects()); after != got {
				return fmt.Errorf("census drifted %d -> %d across a balanced tx", got, after)
			}
			return nil
		},
	}
}
