package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"puddles/internal/plog"
	"puddles/internal/pmem"
)

// Tests for the commit engine: PMDK-style undo-range dedup in Tx.Add,
// write-combined commit flushes, and uniform Run error wrapping.

// scanned returns the entries of tx's log.
func scanned(tx *Tx) []plog.Entry {
	out, _ := tx.log.log.Scan()
	return out
}

// setupValueRoot builds a pool whose root is a size-byte byte array
// initialised with a recognisable pattern.
func setupValueRoot(t *testing.T, c *Client, size uint32) (*Pool, pmem.Addr, []byte) {
	t.Helper()
	ti, err := c.RegisterType("txt.blob", size, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, size)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, size)
	for i := range orig {
		orig[i] = byte(i*7 + 1)
	}
	c.Device().Store(root, orig)
	c.Device().Persist(root, int(size))
	return pool, root, orig
}

func TestAddOverlapIsNoOp(t *testing.T) {
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 64)

	tx := c.Begin(pool)
	if err := tx.Add(root, 16); err != nil {
		t.Fatal(err)
	}
	entriesAfterFirst := len(scanned(tx))
	// Fully covered: must append nothing and track nothing new.
	if err := tx.Add(root+4, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(scanned(tx)); got != entriesAfterFirst {
		t.Fatalf("covered Add appended %d entries", got-entriesAfterFirst)
	}
	if len(tx.undo) != 1 {
		t.Fatalf("undo set = %v, want one merged range", tx.undo)
	}
	// Partial overlap: only the uncovered gap [root+16, root+24) is
	// logged, and the set merges to one contiguous range.
	if err := tx.Add(root+8, 16); err != nil {
		t.Fatal(err)
	}
	entries := scanned(tx)
	if got := len(entries); got != entriesAfterFirst+1 {
		t.Fatalf("partial-overlap Add appended %d entries, want 1", got-entriesAfterFirst)
	}
	last := entries[len(entries)-1]
	if last.Addr != root+16 || len(last.Data) != 8 {
		t.Fatalf("gap entry = addr %#x len %d, want addr %#x len 8",
			uint64(last.Addr), len(last.Data), uint64(root+16))
	}
	if len(tx.undo) != 1 || tx.undo[0].Start != root || tx.undo[0].End != root+24 {
		t.Fatalf("undo set = %v, want [%#x,%#x)", tx.undo, uint64(root), uint64(root+24))
	}
	tx.Abort()
}

func TestAbortRestoresOverlappingAdds(t *testing.T) {
	// The dedup must not change abort semantics: a range Add'd twice —
	// with the transaction's own stores in between — still rolls back to
	// the pre-transaction bytes, because the covered portion is never
	// re-captured with dirty contents.
	_, c := newSystem(t)
	pool, root, orig := setupValueRoot(t, c, 64)
	dev := c.Device()

	tx := c.Begin(pool)
	if err := tx.Add(root, 16); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xEE}, 16)
	dev.Store(root, junk)
	// Overlapping Add after the store: [root+8, root+16) is covered and
	// holds uncommitted junk; it must not be logged again.
	if err := tx.Add(root+8, 24); err != nil {
		t.Fatal(err)
	}
	dev.Store(root+16, junk)
	tx.Abort()

	got := make([]byte, 64)
	dev.Load(root, got)
	if !bytes.Equal(got, orig) {
		t.Fatalf("abort did not restore original bytes:\n got %x\nwant %x", got, orig)
	}
}

func TestCommitAppliesOverlappingAdds(t *testing.T) {
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 64)
	dev := c.Device()

	if err := c.Run(pool, func(tx *Tx) error {
		if err := tx.SetU64(root, 111); err != nil {
			return err
		}
		if err := tx.SetU64(root, 222); err != nil { // same range twice
			return err
		}
		return tx.SetU64(root+8, 333)
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := dev.LoadU64(root), dev.LoadU64(root+8); a != 222 || b != 333 {
		t.Fatalf("committed values = %d, %d; want 222, 333", a, b)
	}
}

func TestCommitFlushCoalescing(t *testing.T) {
	// Regression lock on the coalescer win: four scattered undo ranges —
	// three sharing one cacheline, one alone — must commit with exactly
	// two stage-1 data flushes, visible in the device counters.
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 256)
	dev := c.Device()

	tx := c.Begin(pool)
	for _, off := range []pmem.Addr{0, 16, 32, 128} {
		if err := tx.SetU64(root+off, uint64(off)+1); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Stats()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := dev.Stats()

	// root is heap-allocated at ObjHdrSize into a page-aligned puddle
	// heap, so offsets 0/16/32 share a line and 128 sits on another.
	if reqs := after.FlushRequests - before.FlushRequests; reqs != 4 {
		t.Fatalf("FlushRequests delta = %d, want 4", reqs)
	}
	if co := after.CoalescedFlushes - before.CoalescedFlushes; co != 2 {
		t.Fatalf("CoalescedFlushes delta = %d, want 2 (4 ranges -> 2 line runs)", co)
	}
	// Total commit-path flushes: 2 coalesced data flushes + the one
	// flush of the log header line in Reset, which is the commit point.
	// An undo-only commit publishes no range, and Reset persists epoch
	// and used counter together. Without the coalescer this is 5.
	if fl := after.Flushes - before.Flushes; fl != 3 {
		t.Fatalf("commit issued %d flushes, want 3", fl)
	}
	if fe := after.Fences - before.Fences; fe != 2 {
		t.Fatalf("commit issued %d fences, want 2 (stage 1, reset)", fe)
	}
}

func TestRunWrapsCommitError(t *testing.T) {
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 64)

	// fn commits the transaction itself; Run's own Commit then fails
	// with ErrTxDone, which must come back wrapped in ErrTxFailed just
	// like an fn error would.
	err := c.Run(pool, func(tx *Tx) error {
		if err := tx.SetU64(root, 9); err != nil {
			return err
		}
		return tx.Commit()
	})
	if !errors.Is(err, ErrTxFailed) {
		t.Fatalf("Run commit failure = %v, want ErrTxFailed wrap", err)
	}
	if !errors.Is(err, ErrTxDone) {
		t.Fatalf("Run commit failure = %v, want underlying ErrTxDone preserved", err)
	}

	// fn errors keep both the sentinel and the original error.
	sentinel := errors.New("boom")
	err = c.Run(pool, func(tx *Tx) error { return sentinel })
	if !errors.Is(err, ErrTxFailed) || !errors.Is(err, sentinel) {
		t.Fatalf("Run fn failure = %v, want ErrTxFailed and original error", err)
	}
}

func TestRangeGapsAndInsert(t *testing.T) {
	set := []pmem.Range{}
	set = rangeInsert(set, pmem.Range{Start: 100, End: 200})
	set = rangeInsert(set, pmem.Range{Start: 300, End: 400})

	gaps := rangeGaps(nil, set, pmem.Range{Start: 50, End: 350})
	want := []pmem.Range{{Start: 50, End: 100}, {Start: 200, End: 300}}
	if len(gaps) != len(want) || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	if gaps := rangeGaps(nil, set, pmem.Range{Start: 120, End: 180}); gaps != nil {
		t.Fatalf("covered range produced gaps %v", gaps)
	}

	// Adjacent insert coalesces.
	set = rangeInsert(set, pmem.Range{Start: 200, End: 300})
	if len(set) != 1 || set[0].Start != 100 || set[0].End != 400 {
		t.Fatalf("set after bridging insert = %v, want one [100,400)", set)
	}
}

// TestRangeInsertMatchesReference checks rangeInsert against a naive
// merge — a byte map over a small universe, read back as its maximal
// covered runs — over random ranges inserted in random, ascending and
// descending order.
func TestRangeInsertMatchesReference(t *testing.T) {
	const universe = 512
	rng := rand.New(rand.NewSource(1))
	orders := map[string]func([]pmem.Range){
		"random": func(rs []pmem.Range) { rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] }) },
		"ascending": func(rs []pmem.Range) {
			slices.SortFunc(rs, func(a, b pmem.Range) int { return int(a.Start) - int(b.Start) })
		},
		"descending": func(rs []pmem.Range) {
			slices.SortFunc(rs, func(a, b pmem.Range) int { return int(b.Start) - int(a.Start) })
		},
	}
	for name, order := range orders {
		for trial := 0; trial < 200; trial++ {
			rs := make([]pmem.Range, 1+rng.Intn(40))
			for i := range rs {
				start := rng.Intn(universe - 1)
				rs[i] = pmem.Range{Start: pmem.Addr(start), End: pmem.Addr(start + 1 + rng.Intn(min(24, universe-start)))}
			}
			order(rs)
			var covered [universe]bool
			var set []pmem.Range
			for _, r := range rs {
				set = rangeInsert(set, r)
				for a := r.Start; a < r.End; a++ {
					covered[a] = true
				}
			}
			var want []pmem.Range
			for a := 0; a < universe; a++ {
				if !covered[a] {
					continue
				}
				if n := len(want); n > 0 && want[n-1].End == pmem.Addr(a) {
					want[n-1].End++
				} else {
					want = append(want, pmem.Range{Start: pmem.Addr(a), End: pmem.Addr(a + 1)})
				}
			}
			if !slices.Equal(set, want) {
				t.Fatalf("%s trial %d: inserting %v gave %v, want %v", name, trial, rs, set, want)
			}
		}
	}
}

// TestRangeInsertAllocs: an insert that fits the set's capacity — a new
// range in the middle, or one bridging two — allocates nothing.
func TestRangeInsertAllocs(t *testing.T) {
	base := []pmem.Range{{Start: 0, End: 8}, {Start: 64, End: 72}, {Start: 128, End: 136}}
	buf := make([]pmem.Range, 0, 8)
	for _, r := range []pmem.Range{{Start: 32, End: 40}, {Start: 8, End: 64}, {Start: 4, End: 132}} {
		if n := testing.AllocsPerRun(100, func() {
			buf = rangeInsert(append(buf[:0], base...), r)
		}); n != 0 {
			t.Errorf("inserting %v: %v allocs, want 0", r, n)
		}
	}
}
