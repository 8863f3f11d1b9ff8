package core

import (
	"errors"
	"testing"

	"puddles/internal/pmem"
)

// restParkedLogsAt persists range (lo,hi) on every parked log of c, the
// way a build with a different at-rest range would have left them.
func restParkedLogsAt(c *Client, lo, hi uint32) {
	for _, sh := range c.logSt.Load().shards {
		for _, l := range sh.free {
			l.log.SetRange(lo, hi)
		}
	}
}

// txCost runs fn as one transaction (after the caller warmed the log
// cache) and returns the fences and flushes it cost on the device.
func txCost(t *testing.T, c *Client, pool *Pool, fn func(tx *Tx) error) (fences, flushes uint64) {
	t.Helper()
	dev := c.Device()
	s0 := dev.Stats()
	if err := c.Run(pool, fn); err != nil && !errors.Is(err, errBudgetAbort) {
		t.Fatal(err)
	}
	s1 := dev.Stats()
	return s1.Fences - s0.Fences, s1.Flushes - s0.Flushes
}

var errBudgetAbort = errors.New("abort on purpose")

// TestUndoCommitFenceBudget pins the ordering points of the commit
// protocol, exactly: every fence below is one the data needs (an undo
// or redo entry durable before the store it covers, the logged stores
// durable before the log is retired, the commit point), and there is no
// other. The counts are deterministic on the simulator.
func TestUndoCommitFenceBudget(t *testing.T) {
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 4096)
	buf := make([]byte, 100)
	// Warm up: the first transaction formats and registers its log.
	if err := c.Run(pool, func(tx *Tx) error { return tx.Set(root, buf) }); err != nil {
		t.Fatal(err)
	}

	// One range: append, stage 1, reset (the commit point).
	fe, fl := txCost(t, c, pool, func(tx *Tx) error { return tx.Set(root, buf) })
	if fe != 3 || fl != 4 {
		t.Fatalf("1-range tx: %d fences, %d flushes; want 3, 4", fe, fl)
	}

	// k ranges on distinct, non-adjacent lines: k + 2.
	for _, k := range []int{2, 3, 7} {
		fe, fl = txCost(t, c, pool, func(tx *Tx) error {
			for i := 0; i < k; i++ {
				if err := tx.SetU64(root+pmem.Addr(i*256), uint64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if want := uint64(k + 2); fe != want || fl != uint64(3*k+1) {
			t.Fatalf("%d-range tx: %d fences, %d flushes; want %d, %d", k, fe, fl, want, 3*k+1)
		}
	}

	// Hybrid, k undo ranges and r redo entries: the appends, stage 1,
	// the range switch (the commit point), stage 2, reset.
	for _, kr := range [][2]int{{1, 1}, {2, 3}, {0, 2}} {
		k, r := kr[0], kr[1]
		fe, _ = txCost(t, c, pool, func(tx *Tx) error {
			for i := 0; i < k; i++ {
				if err := tx.SetU64(root+pmem.Addr(i*256), 1); err != nil {
					return err
				}
			}
			for i := 0; i < r; i++ {
				if err := tx.RedoSetU64(root+2048+pmem.Addr(i*256), 2); err != nil {
					return err
				}
			}
			return nil
		})
		if want := uint64(k + r + 4); fe != want {
			t.Fatalf("hybrid tx (%d undo, %d redo): %d fences, want %d", k, r, fe, want)
		}
	}

	// The undo-only transaction after a hybrid one pays nothing for it.
	if fe, fl = txCost(t, c, pool, func(tx *Tx) error { return tx.Set(root, buf) }); fe != 3 || fl != 4 {
		t.Fatalf("1-range tx after a hybrid one: %d fences, %d flushes; want 3, 4", fe, fl)
	}

	// Empty: the TX NOP touches no log.
	if fe, fl = txCost(t, c, pool, func(*Tx) error { return nil }); fe != 0 || fl != 0 {
		t.Fatalf("empty tx: %d fences, %d flushes; want none", fe, fl)
	}

	// Abort of a one-range transaction: append, replay, reset.
	fe, _ = txCost(t, c, pool, func(tx *Tx) error {
		if err := tx.Set(root, buf); err != nil {
			return err
		}
		return errBudgetAbort
	})
	if fe != 3 {
		t.Fatalf("aborted 1-range tx: %d fences, want 3", fe)
	}

	// A log an older build left resting at range (0,0) is brought to
	// rest once, by the first transaction that picks it up.
	restParkedLogsAt(c, 0, 0)
	if fe, _ = txCost(t, c, pool, func(tx *Tx) error { return tx.Set(root, buf) }); fe != 4 {
		t.Fatalf("first tx on a log resting at (0,0): %d fences, want 4", fe)
	}
	if fe, _ = txCost(t, c, pool, func(tx *Tx) error { return tx.Set(root, buf) }); fe != 3 {
		t.Fatalf("second tx on that log: %d fences, want 3", fe)
	}
}

// TestUndoCommitFenceBudgetAllocs pins the Go heap side of the same
// path: a one-range transaction allocates its Tx (measured: exactly
// that). The before-image lives in the exclusively-owned log handle;
// the undo set, the gap list and the flush batch live in the Tx or on
// the stack. The bound leaves one allocation of slack for a compiler
// whose escape analysis decides differently.
func TestUndoCommitFenceBudgetAllocs(t *testing.T) {
	_, c := newSystem(t)
	pool, root, _ := setupValueRoot(t, c, 256)
	buf := make([]byte, 100)
	run := func() {
		if err := c.Run(pool, func(tx *Tx) error { return tx.Set(root, buf) }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Fatalf("one-range tx: %.1f allocs, want ≤ 2", n)
	}
}
