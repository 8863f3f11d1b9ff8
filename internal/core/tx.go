package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
)

// Libtx: PMDK-style failure-atomic transactions over the Puddles log
// format (paper §3.6, §4.1). Transactions are thread-local — callers
// run one Tx per goroutine and synchronize shared data themselves —
// but unlike PMDK they may write any PM data in the global space, not
// just a single pool.

// Tx errors.
var (
	ErrTxDone   = errors.New("core: transaction already committed or aborted")
	ErrTxFailed = errors.New("core: transaction aborted")
	// ErrTxConflict is the wait-die "die": this transaction requested a
	// heap lease held by an older transaction while holding leases of
	// its own, so it must abort (rolling its work back) and retry
	// rather than risk a deadlock cycle. Client.Run retries it
	// automatically, keeping the transaction's original timestamp so it
	// ages into the winner; manual Begin/Commit users should Abort and
	// retry themselves.
	ErrTxConflict = errors.New("core: transaction lease conflict (wait-die victim, retry)")
	// ErrPoolMoved means the transaction's pool has been migrated to
	// another daemon (its root puddle carries FreezeMoved). Client.Run
	// recovers automatically: it refreshes the pool — the rt gateway has
	// already followed the redirect to the new owner — and re-executes
	// fn against the migrated copy. Manual Begin/Commit users should
	// call Pool.Refresh and retry themselves.
	ErrPoolMoved = errors.New("core: pool migrated to another daemon")
)

// txClock issues the wait-die timestamps: strictly increasing, so
// every transaction has a unique age and "older" is well defined
// across all clients in the process.
var txClock atomic.Uint64

type redoRec struct {
	addr pmem.Addr
	data []byte
}

// Tx is one failure-atomic transaction.
type Tx struct {
	c    *Client
	pool *Pool
	log  *txLog

	// undo is the set of undo-logged ranges, kept sorted and
	// non-overlapping: it is both the dedup index consulted by Add
	// (re-logging a covered range is a no-op, PMDK-style) and the exact
	// byte set stage 1 of commit must flush.
	undo    []pmem.Range
	undoBuf [2]pmem.Range // backs undo until a third disjoint range
	redo    []redoRec
	fresh   []pmem.Range // freshly allocated payloads: flush at commit
	touched map[*alloc.Heap]*Pool
	// leases are the heaps this transaction exclusively owns until
	// commit or abort. Allocator metadata is undo-logged, so two
	// in-flight transactions must never interleave on one heap: an
	// abort (or post-crash replay of several logs) would roll shared
	// metadata bytes back underneath the survivor.
	leases map[*alloc.Heap]*Pool
	// entries are the worker-cache slabs this transaction owns (its
	// own cache plus any foreign parked slab it freed into), held to
	// commit/abort for exactly the same undo-log-disjointness reason
	// as heap leases — at slab rather than heap granularity.
	entries map[*alloc.CacheEntry]struct{}
	// Batched allocation-cache counters, flushed to the device at
	// commit/abort so the fast path writes no shared cachelines.
	cacheHits      uint64
	cacheMisses    uint64
	cacheRefills   uint64
	cacheDonations uint64
	// ts is the wait-die age: smaller is older. Assigned at Begin and
	// retained across Run's conflict retries, so a repeatedly-victimized
	// transaction eventually becomes the oldest contender and wins.
	ts   uint64
	done bool
	err  error
	// entered is the pool root puddle whose on-media active-transaction
	// count this transaction bumped (nil when the quiesce gate was not
	// armed at first write). The puddle handle — not the pool — is
	// retained so the matching decrement lands on exactly the counter
	// that was incremented even if a concurrent Refresh swaps the
	// pool's membership underneath us.
	entered *puddle.Puddle
	// aff is the worker-affinity hint held for the transaction's
	// lifetime: it selects the log shard and remembers the last leased
	// heap. Fetched lazily so a TX NOP touches no pool.
	aff *affinity
}

// affinity lazily fetches the worker hint for this transaction.
func (t *Tx) affinity() *affinity {
	if t.aff == nil {
		t.aff = t.c.getAffinity()
	}
	return t.aff
}

// releaseAffinity hands the worker hint back at commit/abort.
func (t *Tx) releaseAffinity() {
	if t.aff != nil {
		t.c.putAffinity(t.aff)
		t.aff = nil
	}
}

// Begin starts a transaction whose allocations come from pool.
// Starting and committing an empty transaction touches no log at all —
// the lightweight TX NOP of paper Table 3.
func (c *Client) Begin(pool *Pool) *Tx {
	return c.beginTS(pool, txClock.Add(1))
}

func (c *Client) beginTS(pool *Pool, ts uint64) *Tx {
	t := &Tx{c: c, pool: pool, ts: ts}
	t.undo = t.undoBuf[:0]
	return t
}

// Run executes fn inside a transaction: commit on nil return, abort on
// error or panic (the TX_BEGIN ... TX_END block of Fig. 4). A wait-die
// lease conflict (ErrTxConflict from Tx.Free) aborts, rolls back and
// transparently re-executes fn with the transaction's original
// timestamp; wait-die guarantees the retried transaction cannot be
// victimized forever.
//
// The victim backs off before retrying — slightly longer each attempt
// — so the older transaction it collided with has a whole window in
// which the contested lease is free. Without the backoff a fast retry
// loop can phase-lock against the waiter's bounded camp (the waiter's
// timeout and the victim's cycle aliasing so every release lands in
// the waiter's blind spot) and livelock; with it, the victim sleeps
// past the waiter's poll period and the waiter always gets through.
func (c *Client) Run(pool *Pool, fn func(tx *Tx) error) (err error) {
	ts := txClock.Add(1)
	moves := 0
	for attempt := 0; ; attempt++ {
		err := c.runOnce(pool, fn, ts)
		if errors.Is(err, ErrPoolMoved) && pool != nil && moves < 3 {
			// The pool migrated out from under the transaction. The rt
			// gateway inside Refresh follows the typed redirect to the
			// new owner; the rebuilt handles point at the migrated copy
			// and fn re-executes there from scratch.
			moves++
			if rerr := pool.Refresh(); rerr != nil {
				return fmt.Errorf("%w (pool refresh after move failed: %v)", err, rerr)
			}
			continue
		}
		if errors.Is(err, ErrTxConflict) {
			c.leaseRetries.Add(1)
			c.device().NoteLeaseRetry()
			backoff := time.Duration(attempt+1) * 250 * time.Microsecond
			if backoff > 2*time.Millisecond {
				backoff = 2 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		return err
	}
}

func (c *Client) runOnce(pool *Pool, fn func(tx *Tx) error, ts uint64) (err error) {
	tx := c.beginTS(pool, ts)
	defer func() {
		if r := recover(); r != nil {
			tx.Abort()
			panic(r)
		}
	}()
	if err := fn(tx); err != nil {
		tx.Abort()
		if errors.Is(err, ErrTxConflict) {
			return err // Run retries with the same timestamp
		}
		return fmt.Errorf("%w: %w", ErrTxFailed, err)
	}
	if err := tx.Commit(); err != nil {
		if errors.Is(err, ErrLogRelease) {
			return err // durably committed; only log cleanup failed
		}
		return fmt.Errorf("%w: %w", ErrTxFailed, err)
	}
	return nil
}

// ensureLog lazily acquires the per-thread cached log on first use. A
// log rests with the undo window open (sequence range (0,2), no valid
// entry), so beginning a transaction persists nothing: the first Append
// is what a crash from here rolls back.
func (t *Tx) ensureLog() error {
	if t.log != nil {
		return nil
	}
	if t.pool != nil {
		if err := t.pool.writableCheck(); err != nil {
			return err
		}
		// Migration quiesce gate. Checked only when some migration or
		// replication epoch is armed on this device, so the common case
		// costs one atomic load and no pool traffic.
		if t.entered == nil && t.c.device().QuiesceArmed() {
			if err := t.enterPool(); err != nil {
				return err
			}
		}
	}
	l, err := t.c.acquireLog(t.affinity().shard)
	if err != nil {
		return err
	}
	t.log = l
	// Only a log formatted or last reset by an older build rests anywhere
	// else (range (0,0)); it is brought to rest once, here.
	if lo, hi := l.log.Range(); lo != plog.RangeUndoOnly[0] || hi != plog.RangeUndoOnly[1] {
		l.log.SetRange(plog.RangeUndoOnly[0], plog.RangeUndoOnly[1])
	}
	return nil
}

// enterPool registers this transaction in the pool's on-media
// active-transaction count so the migration engine's final-delta
// quiesce can drain in-flight writers. The increment-then-recheck
// dance closes the race with a concurrently landing freeze: if the
// freeze word flipped between our read and our bump, the bump is
// undone and we wait (quiesce) or bail (moved) instead of writing
// into a pool that is being — or has been — handed off.
func (t *Tx) enterPool() error {
	root := t.pool.rootPuddle()
	if root == nil {
		return ErrPoolMoved // membership mid-rebuild: refresh and retry
	}
	for {
		switch root.Freeze() {
		case puddle.FreezeMoved:
			return ErrPoolMoved
		case puddle.FreezeQuiesce:
			time.Sleep(50 * time.Microsecond)
			continue
		}
		root.Dev.AddU64(root.ActiveTxAddr(), 1)
		if f := root.Freeze(); f != puddle.FreezeNone {
			root.Dev.AddU64(root.ActiveTxAddr(), ^uint64(0))
			if f == puddle.FreezeMoved {
				return ErrPoolMoved
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		t.entered = root
		return nil
	}
}

// exitPool undoes enterPool at commit or abort.
func (t *Tx) exitPool() {
	if t.entered != nil {
		t.entered.Dev.AddU64(t.entered.ActiveTxAddr(), ^uint64(0))
		t.entered = nil
	}
}

func (t *Tx) grow() plog.GrowFunc {
	return func() (pmem.Range, error) {
		st, err := t.c.ensureLogSpace() // already set up; atomic fast path
		if err != nil {
			return pmem.Range{}, err
		}
		r, _, err := t.c.newLogRegion(st, LogPuddleSize)
		return r, err
	}
}

// Add undo-logs [addr, addr+size): the current contents are captured
// in the log before the caller overwrites them (TX_ADD, Fig. 8).
//
// Ranges already undo-logged by this transaction are skipped: logging
// them again would capture the transaction's own uncommitted stores,
// and the duplicate entry plus its flush/fence are pure overhead. Only
// the uncovered gaps of a partially overlapping range are appended.
func (t *Tx) Add(addr pmem.Addr, size int) error {
	if t.done {
		return ErrTxDone
	}
	if size <= 0 {
		return nil
	}
	r := pmem.Range{Start: addr, End: addr + pmem.Addr(size)}
	var gapBuf [4]pmem.Range
	for _, g := range rangeGaps(gapBuf[:0], t.undo, r) {
		if err := t.ensureLog(); err != nil {
			return err
		}
		old := t.log.beforeImage(int(g.Size()))
		t.c.device().Load(g.Start, old)
		if err := t.log.log.Append(plog.Entry{
			Addr: g.Start, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: old,
		}, t.grow()); err != nil {
			return err
		}
		t.undo = rangeInsert(t.undo, g)
	}
	return nil
}

// rangeGaps appends to gaps the subranges of r not covered by set. set
// must be sorted by start and non-overlapping.
func rangeGaps(gaps, set []pmem.Range, r pmem.Range) []pmem.Range {
	i := sort.Search(len(set), func(i int) bool { return set[i].End > r.Start })
	at := r.Start
	for ; i < len(set) && set[i].Start < r.End; i++ {
		if set[i].Start > at {
			gaps = append(gaps, pmem.Range{Start: at, End: set[i].Start})
		}
		if set[i].End > at {
			at = set[i].End
		}
	}
	if at < r.End {
		gaps = append(gaps, pmem.Range{Start: at, End: r.End})
	}
	return gaps
}

// rangeInsert merges r into set, keeping it sorted and non-overlapping
// (adjacent ranges coalesce — coverage of [a,b)+[b,c) is [a,c)).
func rangeInsert(set []pmem.Range, r pmem.Range) []pmem.Range {
	i := sort.Search(len(set), func(i int) bool { return set[i].End >= r.Start })
	j := i
	for j < len(set) && set[j].Start <= r.End {
		if set[j].Start < r.Start {
			r.Start = set[j].Start
		}
		if set[j].End > r.End {
			r.End = set[j].End
		}
		j++
	}
	out := append(set[:i], append([]pmem.Range{r}, set[j:]...)...)
	return out
}

// AddVolatile undo-logs a volatile location (FlagVolatile): restored
// on abort, ignored by daemon recovery (paper §4.1).
func (t *Tx) AddVolatile(addr pmem.Addr, size int) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.ensureLog(); err != nil {
		return err
	}
	old := t.log.beforeImage(size)
	t.c.device().Load(addr, old)
	return t.log.log.Append(plog.Entry{
		Addr: addr, Seq: plog.SeqUndo, Order: plog.OrderBackward,
		Flags: plog.FlagVolatile, Data: old,
	}, t.grow())
}

// RedoSet redo-logs a write (TX_REDO_SET): the new value lands in the
// log now and in memory only at commit. Reads before commit see the
// old value, exactly like the paper's interface.
func (t *Tx) RedoSet(addr pmem.Addr, data []byte) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.ensureLog(); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	if err := t.log.log.Append(plog.Entry{
		Addr: addr, Seq: plog.SeqRedo, Order: plog.OrderForward, Data: cp,
	}, t.grow()); err != nil {
		return err
	}
	t.redo = append(t.redo, redoRec{addr, cp})
	return nil
}

// RedoSetU64 redo-logs an 8-byte value.
func (t *Tx) RedoSetU64(addr pmem.Addr, v uint64) error {
	var b [8]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	return t.RedoSet(addr, b[:])
}

// Set undo-logs and writes data (the common TX_ADD-then-store idiom).
func (t *Tx) Set(addr pmem.Addr, data []byte) error {
	if err := t.Add(addr, len(data)); err != nil {
		return err
	}
	t.c.device().Store(addr, data)
	return nil
}

// SetU64 undo-logs and writes an 8-byte value.
func (t *Tx) SetU64(addr pmem.Addr, v uint64) error {
	if err := t.Add(addr, 8); err != nil {
		return err
	}
	t.c.device().StoreU64(addr, v)
	return nil
}

// --- alloc.Mutator: allocator metadata is undo-logged like app data ---

// Write implements alloc.Mutator.
func (t *Tx) Write(addr pmem.Addr, data []byte) {
	if err := t.Set(addr, data); err != nil {
		t.err = err
	}
}

// WriteU64 implements alloc.Mutator.
func (t *Tx) WriteU64(addr pmem.Addr, v uint64) {
	if err := t.SetU64(addr, v); err != nil {
		t.err = err
	}
}

// RegisterNew implements alloc.Mutator: fresh payloads are flushed at
// commit but need no undo (rolling back the allocation discards them).
func (t *Tx) RegisterNew(addr pmem.Addr, size int) {
	if size <= 0 {
		return
	}
	t.fresh = append(t.fresh, pmem.Range{Start: addr, End: addr + pmem.Addr(size)})
}

// holdsLease reports whether this transaction already owns h.
func (t *Tx) holdsLease(h *alloc.Heap) bool {
	_, ok := t.leases[h]
	return ok
}

// holdsEntry reports whether this transaction already owns e's lease.
func (t *Tx) holdsEntry(e *alloc.CacheEntry) bool {
	_, ok := t.entries[e]
	return ok
}

// recordEntry notes ownership of an acquired cache-entry lease.
func (t *Tx) recordEntry(e *alloc.CacheEntry) {
	if t.entries == nil {
		t.entries = make(map[*alloc.CacheEntry]struct{})
	}
	t.entries[e] = struct{}{}
}

// entangled reports whether this transaction holds any lease (heap or
// cache entry) — the wait-die "may not wait on an older owner" test.
func (t *Tx) entangled() bool {
	return len(t.leases) > 0 || len(t.entries) > 0
}

// recordLease notes ownership of an acquired heap lease.
func (t *Tx) recordLease(h *alloc.Heap, p *Pool) {
	if t.leases == nil {
		t.leases = make(map[*alloc.Heap]*Pool)
	}
	t.leases[h] = p
}

// releaseLeases returns every leased heap; called exactly once, at
// commit or abort, after all metadata writes (and any abort-side
// rescans) are done.
func (t *Tx) releaseLeases() {
	for h := range t.leases {
		h.Unlease()
	}
	t.leases = nil
}

// allocFromPool routes a transactional allocation to a member heap
// this transaction can own. Heaps already leased by this transaction
// are tried first, then the worker's remembered heap (NUMA-style
// affinity — with per-worker convergence it is usually free and
// skips the probe entirely); otherwise the pool's heaps are probed
// from a rotating start with TryLease, so concurrent transactions
// spread across member puddles instead of convoying on heap 0. When
// every member heap is full or owned by another in-flight
// transaction, the pool grows — concurrent allocators end up with a
// puddle each, the per-thread sub-heap shape PM allocators converge
// on.
func (t *Tx) allocFromPool(typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	p := t.pool
	for h, owner := range t.leases {
		if owner != p {
			continue
		}
		a, err := h.Alloc(t, typeID, size)
		if err == nil {
			t.markHeap(h, p)
			return a, nil
		}
		if err != alloc.ErrNoSpace && err != alloc.ErrTooLarge {
			return 0, err
		}
	}
	aff := t.affinity()
	if h := aff.heapFor(t.c, p); h != nil && !t.holdsLease(h) && h.TryLeaseAs(t.ts) {
		a, err := h.Alloc(t, typeID, size)
		if err == nil {
			t.recordLease(h, p)
			t.markHeap(h, p)
			return a, nil
		}
		h.Unlease() // nothing was mutated on a failed alloc
		if err != alloc.ErrNoSpace && err != alloc.ErrTooLarge {
			return 0, err
		}
		aff.forget(h)
	}
	for {
		heaps := p.snapshotHeaps()
		start := p.rotation()
		for i := range heaps {
			h := heaps[(start+i)%len(heaps)]
			if t.holdsLease(h) {
				continue // already tried above
			}
			if !h.TryLeaseAs(t.ts) {
				continue // owned by another in-flight transaction
			}
			a, err := h.Alloc(t, typeID, size)
			if err == nil {
				t.recordLease(h, p)
				t.markHeap(h, p)
				aff.note(t.c, p, h)
				return a, nil
			}
			h.Unlease() // nothing was mutated on a failed alloc
			if err != alloc.ErrNoSpace && err != alloc.ErrTooLarge {
				return 0, err
			}
		}
		grown, err := p.grow(len(heaps), size)
		if err != nil {
			return 0, err
		}
		if grown == nil || !grown.TryLeaseAs(t.ts) {
			continue // racing allocator grew (or stole the new heap)
		}
		// An allocation that fails on a puddle grown for it can never
		// succeed: return that error rather than growing forever.
		a, err := grown.Alloc(t, typeID, size)
		if err != nil {
			grown.Unlease()
			return 0, err
		}
		t.recordLease(grown, p)
		t.markHeap(grown, p)
		aff.note(t.c, p, grown)
		return a, nil
	}
}

// leaseForFree acquires the lease of the heap owning a freed object.
// Unlike allocation, a free cannot be routed to a different heap, so
// contention here is where multi-heap lease deadlock used to live: two
// transactions freeing across the same two heaps in opposite orders
// would block on each other forever. Sorting the acquisitions into
// ascending heap order is not an option — frees arrive in demand order
// and a lease already covering undo-logged metadata cannot be released
// mid-transaction — so conflicts are arbitrated wait-die on TryLease:
//
//   - An older transaction (smaller ts) waits politely: every wait
//     edge points old→young, so a cycle would need a young→old edge,
//     which "die" forbids — no deadlock.
//   - A younger transaction holding leases of its own dies: Tx.Free
//     returns ErrTxConflict, the transaction aborts (rolling back its
//     undo log and releasing its leases) and Client.Run retries it
//     with its original timestamp, so it ages into the winner.
//   - A transaction holding no leases yet is a leaf of the wait graph
//     and may always wait, whatever its age.
//   - A zero owner timestamp is a short-lived non-transactional owner
//     (Malloc, Pool.Free, CreateRoot) that never waits while holding
//     the lease; waiting on it is always safe.
//
// Legal waiters camp on the lease itself (LeaseAsTimeout) rather than
// polling: a camped waiter is handed the lease at release, ahead of
// the victim's fast retry loop, which is what makes the older
// transaction win instead of livelocking. The camp timeout bounds how
// stale the arbitration can get — the owner may have changed to an
// older transaction while we slept, so the die check re-runs every
// lap.
func (t *Tx) leaseForFree(h *alloc.Heap, pool *Pool) error {
	if t.holdsLease(h) {
		return nil
	}
	for {
		if h.TryLeaseAs(t.ts) {
			t.recordLease(h, pool)
			return nil
		}
		owner := h.LeaseOwnerTS()
		if owner != 0 && owner < t.ts && t.entangled() {
			// Younger and entangled: die. Counted on the client and the
			// device so workloads can observe free-order contention.
			t.c.leaseConflicts.Add(1)
			t.c.device().NoteLeaseConflict()
			return ErrTxConflict
		}
		if h.LeaseAsTimeout(t.ts, 200*time.Microsecond) {
			t.recordLease(h, pool)
			return nil
		}
		runtime.Gosched()
	}
}

// leaseEntry acquires a cache entry's lease with the same wait-die
// arbitration as leaseForFree — cache entries are just finer-grained
// lease domains (one parked slab instead of one heap), so the same
// deadlock argument applies unchanged.
func (t *Tx) leaseEntry(e *alloc.CacheEntry) error {
	if t.holdsEntry(e) {
		return nil
	}
	for {
		if e.TryLeaseAs(t.ts) {
			t.recordEntry(e)
			return nil
		}
		owner := e.LeaseOwnerTS()
		if owner != 0 && owner < t.ts && t.entangled() {
			t.c.leaseConflicts.Add(1)
			t.c.device().NoteLeaseConflict()
			return ErrTxConflict
		}
		if e.LeaseAsTimeout(t.ts, 200*time.Microsecond) {
			t.recordEntry(e)
			return nil
		}
		runtime.Gosched()
	}
}

// Alloc allocates size bytes of the given type from the transaction's
// pool. The allocation is automatically undone if the transaction
// aborts (Fig. 8, line 4 commentary).
func (t *Tx) Alloc(typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	if t.done {
		return 0, ErrTxDone
	}
	if t.pool == nil {
		return 0, errors.New("core: transaction has no pool for allocation")
	}
	if err := t.ensureLog(); err != nil {
		return 0, err
	}
	if class, ok := alloc.ClassFor(size); ok && !t.c.allocCacheOff.Load() {
		a, handled, err := t.cacheAlloc(typeID, class)
		if err != nil {
			return 0, err
		}
		if handled {
			return a, nil
		}
	}
	a, err := t.allocFromPool(typeID, size)
	if err == nil && t.err != nil {
		err = t.err
	}
	if err != nil {
		return 0, err
	}
	return a, nil
}

// cacheAlloc serves a small allocation from the worker's allocation
// cache. The fast path costs one CAS (the entry lease, uncontended
// except against a foreign free into the same slab) and one bitmap
// word write — no heap lease, no probe. On a cold or exhausted cache
// the slab is refilled from the shared heap under a single lease
// acquisition; handled=false falls through to the legacy shared-heap
// path (which can also grow the pool) and is counted as a miss.
func (t *Tx) cacheAlloc(tid ptypes.TypeID, class uint32) (pmem.Addr, bool, error) {
	aff := t.affinity()
	key := cacheKey{pool: t.pool, tid: tid, class: class}
	if e := aff.cache[key]; e != nil {
		held := t.holdsEntry(e)
		// The ownsHeap check invalidates entries that survived a
		// Pool.Refresh: after a migration the cached slab belongs to a
		// heap the pool no longer owns, and allocating from it would
		// write into the abandoned copy.
		usable := e.Live() && e.Owner() == aff.id && t.pool.ownsHeap(e.Heap())
		if usable && !held {
			if e.TryLeaseAs(t.ts) {
				// Re-validate under the lease: the entry may have been
				// donated or adopted between the check and the acquire.
				if e.Live() && e.Owner() == aff.id {
					t.recordEntry(e)
				} else {
					e.Unlease()
					usable = false
				}
			} else {
				// A foreign free holds the entry right now; refilling a
				// fresh slab beats waiting on it.
				usable = false
			}
		}
		if usable {
			if a, allocated := e.Alloc(t); allocated {
				t.cacheHits++
				return a, true, t.err
			}
			// Full: keep it leased so commit unparks it, refill below.
		} else if !e.Live() || e.Owner() != aff.id || !t.pool.ownsHeap(e.Heap()) {
			delete(aff.cache, key)
		}
	}
	if e := t.refillCache(tid, class); e != nil {
		t.recordEntry(e)
		if aff.cache == nil {
			aff.cache = make(map[cacheKey]*alloc.CacheEntry)
		}
		aff.cache[key] = e
		t.cacheRefills++
		if a, allocated := e.Alloc(t); allocated {
			return a, true, t.err
		}
	}
	t.cacheMisses++
	return 0, false, nil
}

// refillCache leases the shared heap once and carves a whole slab into
// the worker's cache. Refill prefers the crash-atomic direct carve of
// an exact free slab-order block (one fence, no undo log); when
// fragmentation leaves none, it adopts an orphaned parked slab, and
// only then falls back to a transactional carve that may split larger
// blocks under an ordinary heap lease.
func (t *Tx) refillCache(tid ptypes.TypeID, class uint32) *alloc.CacheEntry {
	p := t.pool
	aff := t.affinity()
	hint := aff.heapFor(t.c, p)
	if hint != nil {
		if e := hint.RefillDirect(t.ts, aff.id, tid, class); e != nil {
			return e
		}
	}
	heaps := p.snapshotHeaps()
	start := p.rotation()
	for i := range heaps {
		h := heaps[(start+i)%len(heaps)]
		if h == hint {
			continue
		}
		if e := h.RefillDirect(t.ts, aff.id, tid, class); e != nil {
			aff.note(t.c, p, h)
			return e
		}
	}
	for i := range heaps {
		h := heaps[(start+i)%len(heaps)]
		if e := h.AdoptParked(t.ts, aff.id, tid, class); e != nil {
			return e
		}
	}
	for h, owner := range t.leases {
		if owner != p {
			continue
		}
		if e, err := h.RefillTx(t, t.ts, aff.id, tid, class); err == nil {
			t.markHeap(h, p)
			return e
		}
	}
	for i := range heaps {
		h := heaps[(start+i)%len(heaps)]
		if t.holdsLease(h) || !h.TryLeaseAs(t.ts) {
			continue
		}
		e, err := h.RefillTx(t, t.ts, aff.id, tid, class)
		if err != nil {
			h.Unlease() // a failed carve mutates nothing
			continue
		}
		t.recordLease(h, p)
		t.markHeap(h, p)
		aff.note(t.c, p, h)
		return e
	}
	return nil
}

// Free releases an object; the release is undone on abort. The owning
// heap is leased until commit/abort (frees mutate shared metadata —
// slab bitmaps, buddy merges — that no other in-flight transaction
// may touch). Lease conflicts across heaps are arbitrated wait-die
// (see leaseForFree), so transactions freeing across the same heaps in
// opposite orders can no longer deadlock: one of them may receive
// ErrTxConflict and must abort and retry (Client.Run does this
// automatically).
func (t *Tx) Free(addr pmem.Addr) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.ensureLog(); err != nil {
		return err
	}
	pool, h, ok := t.c.heapAt(addr)
	if !ok {
		return alloc.ErrBadFree
	}
	// An object inside a parked (cache-owned) slab is freed under that
	// slab's entry lease, not the heap lease: the owner may be filling
	// the rest of the slab concurrently, and its bitmap bytes live in
	// whichever in-flight undo log holds the entry. The loop is bounded
	// because park/unpark transitions only happen at other transactions'
	// commit points.
	for attempt := 0; attempt < 4; attempt++ {
		if e := h.ParkedAt(addr); e != nil {
			if err := t.leaseEntry(e); err != nil {
				return err
			}
			if !e.Live() {
				continue // unparked or donated before we got the lease
			}
			err := e.Free(t, addr)
			if err == nil && t.err != nil {
				err = t.err
			}
			if err == nil {
				t.cacheHits++
			}
			return err
		}
		if err := t.leaseForFree(h, pool); err != nil {
			return err
		}
		err := h.Free(t, addr)
		if err == nil && t.err != nil {
			err = t.err
		}
		if err == alloc.ErrParked {
			continue // parked between the lookup and the lease; use the entry
		}
		if err != nil {
			return err
		}
		t.markHeap(h, pool)
		return nil
	}
	return alloc.ErrParked
}

func (t *Tx) markHeap(h *alloc.Heap, pool *Pool) {
	if t.touched == nil {
		t.touched = make(map[*alloc.Heap]*Pool)
	}
	t.touched[h] = pool
}

// Commit runs the commit of paper Figure 7 with no ordering point the
// data does not need, releases the transaction's heap leases and
// returns its log. With k undo-logged ranges (each Append fenced once)
// it costs k + 2 fences when nothing was redo-logged — stage 1, then the
// log reset, which is the commit point — and k + r + 4 with r redo
// entries, whose commit point is the range switch to (2,4). It is a
// no-op for transactions that logged nothing. An error wrapping
// ErrLogRelease means the transaction committed durably and only the
// log-puddle release failed (cache-ablated mode).
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	if t.err != nil {
		t.rollback()
		return t.err
	}
	if t.log == nil {
		t.exitPool()
		t.releaseLeases()
		t.releaseAffinity()
		return nil // TX NOP: nothing logged, nothing to do
	}
	dev := t.c.device()
	// Stage 1: make every undo-logged location (and fresh payload)
	// durable. All ranges funnel through one write-combining FlushSet,
	// so a transaction that touched many fields of one cacheline — or
	// undo-logged and then allocated adjacent objects — issues one flush
	// per distinct cacheline run, not one per logged range.
	var fs pmem.FlushSet
	for _, u := range t.undo {
		fs.Add(u.Start, int(u.Size()))
	}
	for _, f := range t.fresh {
		fs.Add(f.Start, int(f.Size()))
	}
	fs.Flush(dev)
	dev.Fence()
	if len(t.redo) > 0 {
		// Commit point of a hybrid transaction: one store disables the
		// undo entries and enables the redo entries.
		t.log.log.SetRange(plog.RangeRedoOnly[0], plog.RangeRedoOnly[1])
		// Stage 2: apply the redo log, again with coalesced flushes.
		for _, r := range t.redo {
			dev.Store(r.addr, r.data)
			fs.Add(r.addr, len(r.data))
		}
		fs.Flush(dev)
		dev.Fence()
	}
	// Stage 3: invalidate the log and return it to rest. With no redo
	// entry there was nothing for a range switch to enable, and this
	// fence is the commit point.
	t.log.log.Reset()
	err := t.c.releaseLog(t.log)
	t.log = nil
	// Cache housekeeping (unpark/donate) runs after the log reset so
	// the slab bytes it rewrites are no longer covered by any in-flight
	// undo log, and before the leases drop so no rival can interleave.
	t.finishCaches(true)
	// The quiesce exit comes after the commit is fully applied so the
	// migration engine's drain implies "all acked work is on media".
	t.exitPool()
	t.releaseLeases()
	t.releaseAffinity()
	return err
}

// finishCaches settles the transaction's cache entries at commit or
// abort. On commit, slabs this transaction filled are unparked back to
// ordinary slab bookkeeping, and slabs that have sat empty across two
// consecutive commits are donated back to the shared heap in one bulk
// release (a single lease acquisition covers the whole group). On
// abort, each entry resynchronises its volatile view from the rolled-
// back media. Either way the entry leases drop here, stale cache
// mappings are pruned, and the batched counters flush to the device.
func (t *Tx) finishCaches(committed bool) {
	if t.entries == nil && t.cacheHits == 0 && t.cacheMisses == 0 && t.cacheRefills == 0 {
		return
	}
	aff := t.affinity()
	if committed {
		var donate map[*alloc.Heap][]*alloc.CacheEntry
		for e := range t.entries {
			if !e.Live() {
				continue
			}
			if e.Full() {
				e.Heap().UnparkFull(e)
				continue
			}
			if !e.Empty() {
				e.ResetEmptyAge()
			} else if e.Owner() == aff.id && e.BumpEmptyAge() >= 2 {
				if donate == nil {
					donate = make(map[*alloc.Heap][]*alloc.CacheEntry)
				}
				donate[e.Heap()] = append(donate[e.Heap()], e)
			}
		}
		for h, group := range donate {
			if n := h.DonateBulk(group, t.holdsLease(h)); n > 0 {
				t.cacheDonations += uint64(n)
			}
		}
	} else {
		for e := range t.entries {
			e.Resync()
		}
	}
	for e := range t.entries {
		e.Unlease()
	}
	t.entries = nil
	for k, e := range aff.cache {
		if !e.Live() || e.Owner() != aff.id {
			delete(aff.cache, k)
		}
	}
	dev := t.c.device()
	if t.cacheHits > 0 {
		dev.NoteCacheHits(t.cacheHits)
	}
	if t.cacheMisses > 0 {
		dev.NoteCacheMisses(t.cacheMisses)
	}
	if t.cacheRefills > 0 {
		dev.NoteCacheRefills(t.cacheRefills)
	}
	if t.cacheDonations > 0 {
		dev.NoteSlabDonations(t.cacheDonations)
	}
}

// Abort rolls the transaction back: undo entries replay in reverse
// (including volatile ones), redo entries are dropped, allocator state
// is rescanned and heap leases are released.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.rollback()
}

func (t *Tx) rollback() {
	if t.log == nil {
		t.exitPool()
		t.releaseLeases()
		t.releaseAffinity()
		return
	}
	// The range is still (0,2): replay applies only undo entries.
	t.log.log.Replay(false, nil)
	// A release failure is counted in Client.ReleaseErrors; the abort
	// itself succeeded, so there is nowhere to return it.
	_ = t.c.releaseLog(t.log)
	t.log = nil
	// Rolled-back block maps invalidate the volatile heap indexes. The
	// leases (still held here) guarantee no other in-flight transaction
	// has uncommitted state on these heaps while we rescan.
	for h := range t.touched {
		h.Rescan()
	}
	t.finishCaches(false)
	t.exitPool()
	t.releaseLeases()
	t.releaseAffinity()
}

// Pending reports whether the transaction has logged anything yet.
func (t *Tx) Pending() bool { return t.log != nil }
