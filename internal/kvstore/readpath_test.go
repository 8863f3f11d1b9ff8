package kvstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"puddles/internal/baselines/puddleslib"
)

// tornValue builds the test value layout: key (8 bytes LE) followed by
// a uniform generation byte. The key prefix is written identically by
// every update of one entry, so any torn read shows up as either a
// mismatched key prefix or a non-uniform tail.
func tornValue(k uint64, gen byte, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, k)
	for i := 8; i < size; i++ {
		v[i] = gen
	}
	return v
}

// checkTornValue asserts v is a value some writer actually wrote for
// k: correct key prefix, uniform tail.
func checkTornValue(t *testing.T, k uint64, v []byte) {
	t.Helper()
	if got := binary.LittleEndian.Uint64(v); got != k {
		t.Fatalf("read for key %d returned value with key prefix %d (mixed entries)", k, got)
	}
	for i := 9; i < len(v); i++ {
		if v[i] != v[8] {
			t.Fatalf("key %d: torn value: tail byte %d is %#x, byte 8 is %#x", k, i, v[i], v[8])
		}
	}
}

// TestTornReadStress hammers optimistic Get/Scan against concurrent
// Put/Delete traffic on the same few stripes and asserts every
// validated read returns a value that was actually written whole —
// the seqlock protocol's core guarantee. Run with -race: the
// word-atomic device makes every speculative access a legal atomic
// op, so the detector checks the protocol rather than the simulator.
func TestTornReadStress(t *testing.T) {
	lib, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	const (
		valueSize = 64
		nkeys     = 16
		readers   = 4
		writers   = 2
		writerOps = 400
	)
	s, err := New(lib, Options{Buckets: 8, ValueSize: valueSize, LatchStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < nkeys; k++ {
		if err := s.Put(k, tornValue(k, 1, valueSize)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Value
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Store(true)
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for i := 0; i < writerOps; i++ {
				k := uint64(rng.Intn(nkeys))
				gen := byte(2 + rng.Intn(200))
				var err error
				if rng.Intn(8) == 0 {
					// Delete + reinsert exercises unlink, Free and
					// allocator reuse under concurrent readers.
					if err = s.Delete(k); err == ErrNotFound {
						err = nil
					}
					if err == nil {
						err = s.Put(k, tornValue(k, gen, valueSize))
					}
				} else {
					err = s.Put(k, tornValue(k, gen, valueSize))
				}
				if err != nil {
					fail.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 101))
			buf := make([]byte, valueSize)
			for !stop.Load() {
				if rng.Intn(4) == 0 {
					s.Scan(uint64(rng.Intn(nkeys)), 10, func(key uint64, val []byte) {
						checkTornValue(t, key, val)
					})
					continue
				}
				k := uint64(rng.Intn(nkeys))
				if err := s.Get(k, buf); err == nil {
					checkTornValue(t, k, buf)
				}
			}
		}(r)
	}
	wg.Wait()
	if err, ok := fail.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	rs := s.ReadStats()
	if rs.Attempts == 0 {
		t.Fatal("stress run recorded no optimistic attempts")
	}
	t.Logf("read stats: %+v", rs)
}

// TestOptimisticQuiescent checks the steady-state contract: with no
// concurrent writers every read validates on its first attempt, no
// read ever touches a latch, and the batched device counters track
// the per-stripe totals.
func TestOptimisticQuiescent(t *testing.T) {
	lib, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	s, err := New(lib, Options{Buckets: 16, ValueSize: 32, LatchStripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, tornValue(k, 9, 32)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 32)
	const reads = 200
	for i := 0; i < reads; i++ {
		if err := s.Get(uint64(i%8), buf); err != nil {
			t.Fatal(err)
		}
	}
	rs := s.ReadStats()
	if rs.Attempts != reads {
		t.Fatalf("Attempts = %d, want %d", rs.Attempts, reads)
	}
	if rs.Retries != 0 || rs.Fallbacks != 0 {
		t.Fatalf("quiescent reads retried/fell back: %+v", rs)
	}
	// Device stats lag by at most one unflushed batch per stripe.
	ds := lib.Device().Stats()
	if ds.OptimisticReads < reads-readStatsBatch+1 || ds.OptimisticReads > reads {
		t.Fatalf("device OptimisticReads = %d, want within one batch of %d", ds.OptimisticReads, reads)
	}
	if ds.OptimisticRetries != 0 || ds.LatchFallbacks != 0 {
		t.Fatalf("device retry/fallback counters nonzero: %+v", ds)
	}
}

// TestFallbackAfterWriterStream pins a stripe's sequence odd — a
// writer that never finishes, from the reader's point of view — and
// checks the reader gives up optimism, takes the read latch, and
// still returns the right value.
func TestFallbackAfterWriterStream(t *testing.T) {
	lib, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	s, err := New(lib, Options{Buckets: 4, ValueSize: 32, LatchStripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tornValue(7, 3, 32)
	if err := s.Put(7, want); err != nil {
		t.Fatal(err)
	}
	st := &s.stripes[0]
	st.seq.Store(1) // simulate a writer that never completes
	buf := make([]byte, 32)
	if err := s.Get(7, buf); err != nil {
		t.Fatal(err)
	}
	st.seq.Store(2)
	if !bytes.Equal(buf, want) {
		t.Fatalf("latched fallback read = %x, want %x", buf, want)
	}
	rs := s.ReadStats()
	if rs.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", rs.Fallbacks)
	}
	if lib.Device().Stats().LatchFallbacks != 1 {
		t.Fatalf("device LatchFallbacks = %d, want 1", lib.Device().Stats().LatchFallbacks)
	}
}

// TestScanReentrant checks the new Scan contract: fn runs with no
// stripe held, so it may call back into the store (the latched Scan
// self-deadlocked here).
func TestScanReentrant(t *testing.T) {
	lib, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	s, err := New(lib, Options{Buckets: 4, ValueSize: 32, LatchStripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 6; k++ {
		if err := s.Put(k, tornValue(k, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 32)
	n := s.Scan(0, 6, func(key uint64, val []byte) {
		if err := s.Get(key, buf); err != nil {
			t.Fatalf("reentrant Get(%d) inside Scan: %v", key, err)
		}
		if !bytes.Equal(buf, val) {
			t.Fatalf("reentrant Get(%d) = %x, Scan saw %x", key, buf, val)
		}
	})
	if n != 6 {
		t.Fatalf("Scan visited %d entries, want 6", n)
	}
}
