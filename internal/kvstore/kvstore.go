// Package kvstore implements the persistent hash-map key-value store
// of the paper's Figure 11 evaluation (PMDK's simplekv example,
// rebuilt over the pmlib interface so every library runs the same
// store).
//
// Layout: the root object holds the bucket count and a reference to a
// bucket table (an array of entry references). Entries are chained:
// key u64 | next Ref | value bytes (fixed width).
package kvstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"puddles/internal/pmem"
	"puddles/internal/pmlib"
)

// Store is one persistent KV store instance.
//
// By default a Store is single-threaded, like PMDK's simplekv. With
// Options.LatchStripes > 0 it carries a striped table of volatile
// stripes over the buckets, each holding a writer latch and a
// sequence counter. Mutations own their stripe's latch and bump the
// sequence to odd before the first chain edit and back to even after
// the last, so the lock order with heap leases is unchanged from the
// purely latched design. Reads are optimistic: walk the chain with no
// latch, then validate that the stripe sequence is still the even
// value observed before the walk; on conflict retry, and after
// optimisticAttempts failures fall back to the stripe's read latch.
// Stripes are volatile by design — a crash discards them, and recovery
// needs only the transaction logs; readers therefore need no
// recovery-time coordination at all.
type Store struct {
	lib       pmlib.Lib
	dev       *pmem.Device
	valueSize uint32
	nbuckets  uint64
	table     pmem.Addr // address of the bucket-ref array
	entrySize uint32
	offNext   uint32 // = 8
	offValue  uint32 // = 8 + RefSize

	stripes []stripe // striped per-bucket latches+seqs; nil = unlatched
}

// stripe is the volatile concurrency state covering a group of
// buckets: the writer latch, the seqlock generation, and the stripe's
// share of the read-path counters (kept per-stripe so the hot read
// path never writes a cacheline shared across stripes). Padded so
// adjacent stripes do not false-share.
type stripe struct {
	mu  sync.RWMutex
	seq atomic.Uint64

	attempts  atomic.Uint64 // optimistic walks started
	retries   atomic.Uint64 // validation failures + writer-wait breakouts
	fallbacks atomic.Uint64 // reads that took the latch
	pend      atomic.Uint64 // attempts not yet pushed to device stats

	_ [64]byte
}

const (
	// optimisticAttempts bounds how many validated walks a read tries
	// before taking the stripe latch.
	optimisticAttempts = 4
	// seqSpinYields bounds how long a reader waits (yielding) for an
	// in-progress writer to finish before burning an attempt.
	seqSpinYields = 256
	// maxChainHops bounds a speculative walk: a mid-edit chain can
	// transiently contain reused refs, even cycles, and validation
	// will discard the walk anyway.
	maxChainHops = 1 << 16
	// readStatsBatch is how many attempts a stripe accumulates before
	// pushing them to the device counters.
	readStatsBatch = 64
)

// Errors.
var (
	ErrNotFound = errors.New("kvstore: key not found")
)

// Options configure a store.
type Options struct {
	// Buckets is the hash-table width (default 1<<16).
	Buckets uint64
	// ValueSize is the fixed value width in bytes (default 100,
	// one YCSB field).
	ValueSize uint32
	// LatchStripes enables concurrent use: when > 0, the store stripes
	// buckets across this many latch+seqlock stripes. 0 keeps the
	// store unlatched (single-threaded).
	LatchStripes int
}

// New opens (or creates) a store in lib's root object.
func New(lib pmlib.Lib, opt Options) (*Store, error) {
	if opt.Buckets == 0 {
		opt.Buckets = 1 << 16
	}
	if opt.ValueSize == 0 {
		opt.ValueSize = 100
	}
	rs := lib.RefSize()
	root, err := lib.Root(16 + rs) // nbuckets, valueSize, table ref
	if err != nil {
		return nil, err
	}
	rootAddr := lib.Deref(root)
	dev := lib.Device()
	s := &Store{
		lib:       lib,
		dev:       dev,
		offNext:   8,
		offValue:  8 + rs,
		entrySize: 8 + rs + opt.ValueSize,
	}
	if opt.LatchStripes > 0 {
		s.stripes = make([]stripe, opt.LatchStripes)
	}
	if n := dev.LoadU64(rootAddr); n != 0 {
		// Existing store.
		s.nbuckets = n
		s.valueSize = uint32(dev.LoadU64(rootAddr + 8))
		s.entrySize = 8 + rs + s.valueSize
		s.table = lib.Deref(lib.LoadRef(rootAddr + 16))
		return s, nil
	}
	s.nbuckets = opt.Buckets
	s.valueSize = opt.ValueSize
	s.entrySize = 8 + rs + s.valueSize
	err = lib.Run(func(tx pmlib.Tx) error {
		tbl, err := tx.Alloc(uint32(opt.Buckets) * rs)
		if err != nil {
			return err
		}
		if err := tx.SetU64(rootAddr, opt.Buckets); err != nil {
			return err
		}
		if err := tx.SetU64(rootAddr+8, uint64(opt.ValueSize)); err != nil {
			return err
		}
		return tx.SetRef(rootAddr+16, tbl)
	})
	if err != nil {
		return nil, err
	}
	s.table = lib.Deref(lib.LoadRef(rootAddr + 16))
	return s, nil
}

// ValueSize returns the fixed value width.
func (s *Store) ValueSize() uint32 { return s.valueSize }

// ReadStats aggregate the read-path counters across stripes.
type ReadStats struct {
	Attempts  uint64 // optimistic walks started
	Retries   uint64 // walks discarded by sequence validation
	Fallbacks uint64 // reads that took the stripe latch
}

// ReadStats returns exact read-path counters (the device's copies lag
// by the per-stripe batching).
func (s *Store) ReadStats() ReadStats {
	var r ReadStats
	for i := range s.stripes {
		st := &s.stripes[i]
		r.Attempts += st.attempts.Load()
		r.Retries += st.retries.Load()
		r.Fallbacks += st.fallbacks.Load()
	}
	return r
}

func hash64(k uint64) uint64 {
	// SplitMix64 finalizer: cheap, well distributed.
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// bucket returns k's bucket index.
func (s *Store) bucket(k uint64) uint64 { return hash64(k) % s.nbuckets }

// slotOf returns the table slot address of a bucket.
func (s *Store) slotOf(b uint64) pmem.Addr {
	return s.table + pmem.Addr(uint32(b)*s.lib.RefSize())
}

// stripe returns the stripe covering bucket b, or nil when the store
// is unlatched.
func (s *Store) stripe(b uint64) *stripe {
	if len(s.stripes) == 0 {
		return nil
	}
	return &s.stripes[b%uint64(len(s.stripes))]
}

// note records one completed read on st and batches the attempt count
// into the device stats. Retries and fallbacks are rare, so those
// push through immediately.
func (s *Store) note(st *stripe, attempts, retries uint64, fellBack bool) {
	st.attempts.Add(attempts)
	if retries != 0 {
		st.retries.Add(retries)
		s.dev.NoteOptimisticRetries(retries)
	}
	if fellBack {
		st.fallbacks.Add(1)
		s.dev.NoteLatchFallbacks(1)
	}
	if st.pend.Add(attempts) >= readStatsBatch {
		s.dev.NoteOptimisticReads(st.pend.Swap(0))
	}
}

// readBucket executes walk over bucket b under the read protocol — the
// one place the protocol lives; Get, Contains, Scan and Len all come
// through here.
//
// Optimistic mode first: snapshot the stripe sequence (waiting out an
// in-progress writer by yielding rather than burning attempts), run
// walk with no latch, and accept the result only if the sequence is
// unchanged — any overlapping mutation bumped it. walk therefore runs
// speculatively (speculative=true): it may observe torn, mid-edit
// chains and must bound its walk; its results are discarded on
// validation failure, and it may run several times. After
// optimisticAttempts discarded walks, walk runs exactly once under the
// stripe's read latch with speculative=false.
func (s *Store) readBucket(b uint64, walk func(speculative bool)) {
	st := s.stripe(b)
	if st == nil {
		walk(false)
		return
	}
	var attempts, retries uint64
	for a := 0; a < optimisticAttempts; a++ {
		s0 := st.seq.Load()
		for spin := 0; s0&1 == 1 && spin < seqSpinYields; spin++ {
			runtime.Gosched()
			s0 = st.seq.Load()
		}
		if s0&1 == 1 {
			// Writer stream outlasted the wait; take the latch.
			retries++
			break
		}
		attempts++
		walk(true)
		if st.seq.Load() == s0 {
			s.note(st, attempts, retries, false)
			return
		}
		retries++
	}
	defer s.note(st, attempts, retries, true)
	st.mu.RLock()
	walk(false)
	st.mu.RUnlock()
}

// writeBucket runs mutate owning bucket b's stripe, with the stripe
// sequence odd for the duration so optimistic readers discard any
// overlapping walk. The latch is taken before mutate opens its
// transaction, which keeps the latch → heap-lease lock order acyclic
// (each mutation touches exactly one bucket).
func (s *Store) writeBucket(b uint64, mutate func() error) error {
	st := s.stripe(b)
	if st == nil {
		return mutate()
	}
	st.mu.Lock()
	st.seq.Add(1) // odd: edit in progress
	err := mutate()
	st.seq.Add(1) // even again: edit complete
	st.mu.Unlock()
	return err
}

// walkChain visits bucket b's entries in chain order until visit
// returns false. A speculative walk can encounter anything a mid-edit
// chain transiently holds — refs into freed (reused) memory, refs
// past the device, cycles — so it refuses out-of-device addresses and
// bounds its hop count; sequence validation discards whatever such a
// walk produced.
func (s *Store) walkChain(b uint64, speculative bool, visit func(e pmem.Addr) bool) {
	lib := s.lib
	limit := pmem.MaxAddr - pmem.Addr(s.entrySize)
	hops := 0
	for e := lib.Deref(lib.LoadRef(s.slotOf(b))); e != 0; e = lib.Deref(lib.LoadRef(e + pmem.Addr(s.offNext))) {
		if speculative {
			if e >= limit || hops >= maxChainHops {
				return
			}
			hops++
		}
		if !visit(e) {
			return
		}
	}
}

// findEntry walks bucket b's chain for k. Callers either hold b's
// latch or pass speculative=true and validate afterwards.
func (s *Store) findEntry(b, k uint64, speculative bool) pmem.Addr {
	dev := s.dev
	var found pmem.Addr
	s.walkChain(b, speculative, func(e pmem.Addr) bool {
		if dev.LoadU64(e) == k {
			found = e
			return false
		}
		return true
	})
	return found
}

// Get copies the value for k into dst (len must be ValueSize). On
// ErrNotFound dst's contents are undefined (a discarded speculative
// walk may have scribbled on it).
func (s *Store) Get(k uint64, dst []byte) error {
	b := s.bucket(k)
	found := false
	s.readBucket(b, func(speculative bool) {
		found = false
		if e := s.findEntry(b, k, speculative); e != 0 {
			s.dev.Load(e+pmem.Addr(s.offValue), dst[:s.valueSize])
			found = true
		}
	})
	if !found {
		return ErrNotFound
	}
	return nil
}

// Contains reports whether k is present.
func (s *Store) Contains(k uint64) bool {
	b := s.bucket(k)
	found := false
	s.readBucket(b, func(speculative bool) {
		found = s.findEntry(b, k, speculative) != 0
	})
	return found
}

// Put inserts or updates k with value v (transactional). The whole
// find-then-write runs under writeBucket, so concurrent Puts on one
// chain serialize and concurrent optimistic reads are invalidated.
func (s *Store) Put(k uint64, v []byte) error {
	if uint32(len(v)) != s.valueSize {
		return fmt.Errorf("kvstore: value size %d, store configured for %d", len(v), s.valueSize)
	}
	b := s.bucket(k)
	return s.writeBucket(b, func() error {
		if e := s.findEntry(b, k, false); e != 0 {
			return s.lib.Run(func(tx pmlib.Tx) error {
				return tx.Set(e+pmem.Addr(s.offValue), v)
			})
		}
		return s.lib.Run(func(tx pmlib.Tx) error {
			ref, err := tx.Alloc(s.entrySize)
			if err != nil {
				return err
			}
			ea := s.lib.Deref(ref)
			if err := tx.SetU64(ea, k); err != nil {
				return err
			}
			if err := tx.Set(ea+pmem.Addr(s.offValue), v); err != nil {
				return err
			}
			slot := s.slotOf(b)
			head := s.lib.LoadRef(slot)
			if err := tx.SetRef(ea+pmem.Addr(s.offNext), head); err != nil {
				return err
			}
			return tx.SetRef(slot, ref)
		})
	})
}

// Delete removes k.
func (s *Store) Delete(k uint64) error {
	lib := s.lib
	b := s.bucket(k)
	return s.writeBucket(b, func() error {
		slot := s.slotOf(b)
		prev := pmem.Addr(0)
		for ref := lib.LoadRef(slot); !ref.IsNull(); {
			e := lib.Deref(ref)
			next := lib.LoadRef(e + pmem.Addr(s.offNext))
			if lib.Device().LoadU64(e) == k {
				return lib.Run(func(tx pmlib.Tx) error {
					at := slot
					if prev != 0 {
						at = prev + pmem.Addr(s.offNext)
					}
					if err := tx.SetRef(at, next); err != nil {
						return err
					}
					return tx.Free(ref)
				})
			}
			prev = e
			ref = next
		}
		return ErrNotFound
	})
}

// Scan visits up to n entries starting at k's bucket, in bucket order
// (hash maps have no key order; this matches what a chained-hash
// simplekv can offer YCSB workload E). Each bucket is read under the
// optimistic protocol into scratch buffers and fn is invoked only
// after the bucket's read validated and any latch was released, so —
// unlike the earlier latched Scan — fn may freely call back into the
// store.
func (s *Store) Scan(k uint64, n int, fn func(key uint64, val []byte)) int {
	dev := s.dev
	vs := int(s.valueSize)
	visited := 0
	start := s.bucket(k)
	var keys []uint64
	var vals []byte
	for b := uint64(0); b < s.nbuckets && visited < n; b++ {
		bi := (start + b) % s.nbuckets
		s.readBucket(bi, func(speculative bool) {
			keys, vals = keys[:0], vals[:0]
			s.walkChain(bi, speculative, func(e pmem.Addr) bool {
				if visited+len(keys) >= n {
					return false
				}
				keys = append(keys, dev.LoadU64(e))
				off := len(vals)
				vals = append(vals, make([]byte, vs)...)
				dev.Load(e+pmem.Addr(s.offValue), vals[off:])
				return true
			})
		})
		for i := range keys {
			fn(keys[i], vals[i*vs:(i+1)*vs])
			visited++
		}
	}
	return visited
}

// Len counts entries (tests; O(n)).
func (s *Store) Len() int {
	n := 0
	for b := uint64(0); b < s.nbuckets; b++ {
		cnt := 0
		s.readBucket(b, func(speculative bool) {
			cnt = 0
			s.walkChain(b, speculative, func(pmem.Addr) bool {
				cnt++
				return true
			})
		})
		n += cnt
	}
	return n
}
