package core

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"testing"

	"puddles/internal/daemon"
	"puddles/internal/plog"
	"puddles/internal/pmem"
)

// These tests exercise the paper's headline property end to end:
// a transaction crashes mid-commit, the application never restarts,
// and the next daemon boot restores consistency before serving anyone.

// crashingSetup builds a pool with value 42 at root, then runs a
// transaction that crashes at the given chaos event offset. It returns
// the device and root address.
func crashingSetup(t *testing.T, crashOffset int64, useRedo bool) (*pmem.Device, pmem.Addr, bool) {
	t.Helper()
	dev := pmem.NewChaos(crashOffset)
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := ConnectLocal(d)
	defer c.Close()
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("app", 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	dev.StoreU64(root+offData, 42)
	dev.StoreU64(root+offNext, 43)
	dev.Persist(root+offData, 16)

	crashesBefore := dev.Stats().Crashes
	dev.CrashAtEvent(dev.Events() + crashOffset)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !pmem.IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		c.Run(pool, func(tx *Tx) error {
			if err := tx.SetU64(root+offData, 1000); err != nil {
				return err
			}
			if useRedo {
				if err := tx.RedoSetU64(root+offNext, 2000); err != nil {
					return err
				}
			} else if err := tx.SetU64(root+offNext, 2000); err != nil {
				return err
			}
			return nil
		})
	}()
	// A crash point can also fire inside a daemon goroutine (e.g. while
	// serving GetNewPuddle); the client then sees a dead connection.
	crashed = crashed || dev.Stats().Crashes > crashesBefore
	return dev, root, crashed
}

// checkConsistent verifies the root pair is atomic: either both old
// values or both new values, never a mixture.
func checkConsistent(t *testing.T, dev *pmem.Device, root pmem.Addr, useRedo bool) {
	t.Helper()
	a := dev.LoadU64(root + offData)
	b := dev.LoadU64(root + offNext)
	oldOK := a == 42 && b == 43
	newOK := a == 1000 && b == 2000
	if !oldOK && !newOK {
		t.Fatalf("inconsistent state after recovery: data=%d next=%d (redo=%v)", a, b, useRedo)
	}
}

func TestCrashRecoveryUndoSweep(t *testing.T) {
	// Sweep crash points through the whole undo-logged transaction.
	// This is the paper's §5.1 "Correctness Check" — crash injection
	// with system-supported recovery, repeated across offsets.
	recovered := 0
	for off := int64(1); off < 400; off += 7 {
		dev, root, crashed := crashingSetup(t, off, false)
		if !crashed {
			break
		}
		// Application never restarts. A fresh daemon boot must recover.
		if _, err := daemon.New(dev); err != nil {
			t.Fatalf("offset %d: daemon boot: %v", off, err)
		}
		checkConsistent(t, dev, root, false)
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no crash points probed")
	}
}

func TestCrashRecoveryHybridSweep(t *testing.T) {
	recovered := 0
	for off := int64(1); off < 400; off += 7 {
		dev, root, crashed := crashingSetup(t, off, true)
		if !crashed {
			break
		}
		if _, err := daemon.New(dev); err != nil {
			t.Fatalf("offset %d: daemon boot: %v", off, err)
		}
		checkConsistent(t, dev, root, true)
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no crash points probed")
	}
}

func TestRecoveredDataReadableByDifferentClient(t *testing.T) {
	// After recovery, a completely different "application" (fresh
	// client, no knowledge of the crashed one) reads consistent data —
	// the PDF-editor analogy from paper §2.1.
	dev, root, crashed := crashingSetup(t, 120, false)
	if !crashed {
		t.Skip("transaction completed before the probe point")
	}
	d2, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	other := ConnectLocal(d2)
	defer other.Close()
	pool, err := other.OpenPool("app")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Root()
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatalf("root moved: %#x vs %#x", uint64(got), uint64(root))
	}
	checkConsistent(t, dev, root, false)
}

func TestCommittedTxSurvivesCrash(t *testing.T) {
	// Crash AFTER commit returns: the new values must be durable.
	dev := pmem.NewChaos(9)
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := ConnectLocal(d)
	defer c.Close()
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("app", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	if err := c.Run(pool, func(tx *Tx) error {
		if err := tx.SetU64(root+offData, 77); err != nil {
			return err
		}
		return tx.RedoSetU64(root+offNext, 88)
	}); err != nil {
		t.Fatal(err)
	}
	dev.CrashNow()
	if _, err := daemon.New(dev); err != nil {
		t.Fatal(err)
	}
	if dev.LoadU64(root+offData) != 77 || dev.LoadU64(root+offNext) != 88 {
		t.Fatalf("committed values lost: %d %d", dev.LoadU64(root+offData), dev.LoadU64(root+offNext))
	}
}

func TestAllocationCrashConsistency(t *testing.T) {
	// Crash mid-transaction that allocates: after recovery the
	// allocation is rolled back and the heap validates.
	for off := int64(5); off < 300; off += 23 {
		dev := pmem.NewChaos(off)
		d, err := daemon.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c := ConnectLocal(d)
		ti, _ := c.RegisterLayout("node", node{})
		pool, _ := c.CreatePool("app", 0)
		root, _ := pool.CreateRoot(ti.ID, nodeSz)
		before := pool.LiveObjects()

		crashesBefore := dev.Stats().Crashes
		dev.CrashAtEvent(dev.Events() + off)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !pmem.IsCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			c.Run(pool, func(tx *Tx) error {
				n, err := tx.Alloc(ti.ID, nodeSz)
				if err != nil {
					return err
				}
				dev.StoreU64(n+offData, 5)
				return tx.SetU64(root+offNext, uint64(n))
			})
		}()
		c.Close()
		crashed = crashed || dev.Stats().Crashes > crashesBefore
		if !crashed {
			break
		}
		if _, err := daemon.New(dev); err != nil {
			t.Fatalf("offset %d: boot: %v", off, err)
		}
		// Reopen as a fresh client; the heap must validate and live
		// object count must match the pre-crash state (rollback) or
		// pre+1 (committed before crash point — only if commit made it).
		c2 := ConnectLocal(mustDaemon(t, dev))
		pool2, err := c2.OpenPool("app")
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		live := pool2.LiveObjects()
		next := dev.LoadU64(root + offNext)
		switch {
		case live == before && next == 0: // rolled back (0 = initial)
		case live == before+1 && next != 0: // committed
		default:
			t.Fatalf("offset %d: live=%d (before=%d) next=%#x — allocation and link disagree", off, live, before, next)
		}
		c2.Close()
	}
}

func mustDaemon(t *testing.T, dev *pmem.Device) *daemon.Daemon {
	t.Helper()
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildPendingSpaces boots a daemon on dev and leaves n independent
// applications each with its own pool, a root initialised to (42, 43),
// and an abandoned in-flight transaction whose undo log is still live —
// n separate registered log spaces all pending recovery. The daemon is
// never shut down, so the dirty flag stays set.
func buildPendingSpaces(t *testing.T, dev *pmem.Device, n int) []pmem.Addr {
	t.Helper()
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]pmem.Addr, n)
	for i := 0; i < n; i++ {
		c := ConnectLocal(d)
		ti, err := c.RegisterType(fmt.Sprintf("prec.node%d", i), nodeSz, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := c.CreatePool(fmt.Sprintf("prec-pool%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		root, err := pool.CreateRoot(ti.ID, nodeSz)
		if err != nil {
			t.Fatal(err)
		}
		dev.StoreU64(root+offData, 42)
		dev.StoreU64(root+offNext, 43)
		dev.Persist(root+offData, 16)
		// In-flight transaction: undo-logged, new values stored, never
		// committed. Crash-recovery must roll both words back.
		tx := c.Begin(pool)
		if err := tx.SetU64(root+offData, 1000+uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetU64(root+offNext, 2000+uint64(i)); err != nil {
			t.Fatal(err)
		}
		roots[i] = root
	}
	return roots
}

func TestParallelRecoveryMatchesSerial(t *testing.T) {
	// N >= 8 pending log spaces, recovered once serially (1 worker) and
	// once through the concurrent pool (8 workers) from identical device
	// images: replay results and daemon counters must be identical.
	const spaces = 10
	seedDev := pmem.New()
	roots := buildPendingSpaces(t, seedDev, spaces)
	var img bytes.Buffer
	if err := seedDev.Save(&img); err != nil {
		t.Fatal(err)
	}
	restore := func() *pmem.Device {
		d := pmem.New()
		if err := d.Restore(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		return d
	}

	devSerial, devPar := restore(), restore()
	dSerial, err := daemon.New(devSerial, daemon.WithRecoveryWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	dPar, err := daemon.New(devPar, daemon.WithRecoveryWorkers(8))
	if err != nil {
		t.Fatal(err)
	}

	ss, sp := dSerial.Stats(), dPar.Stats()
	if ss.Recoveries != 1 || sp.Recoveries != 1 {
		t.Fatalf("recoveries: serial=%d parallel=%d, want 1 each", ss.Recoveries, sp.Recoveries)
	}
	if ss.LogsReplayed != sp.LogsReplayed || ss.EntriesApplied != sp.EntriesApplied {
		t.Fatalf("replay counters diverge: serial logs=%d entries=%d, parallel logs=%d entries=%d",
			ss.LogsReplayed, ss.EntriesApplied, sp.LogsReplayed, sp.EntriesApplied)
	}
	if ss.LogsReplayed != spaces {
		t.Fatalf("LogsReplayed = %d, want %d (one pending log per space)", ss.LogsReplayed, spaces)
	}
	for i, root := range roots {
		for _, dev := range []*pmem.Device{devSerial, devPar} {
			a, b := dev.LoadU64(root+offData), dev.LoadU64(root+offNext)
			if a != 42 || b != 43 {
				t.Fatalf("space %d: root = (%d, %d) after recovery, want (42, 43)", i, a, b)
			}
		}
	}
}

func TestSharedPoolRecoveryIsDeterministic(t *testing.T) {
	// Two applications share one writable pool and both crash with
	// in-flight transactions on the SAME root object. Their log spaces
	// target a common pool, so parallel recovery must place them in one
	// conflict group and replay them serially in the same order serial
	// recovery uses — byte-identical results, no write races.
	build := func() (*pmem.Device, pmem.Addr) {
		dev := pmem.New()
		d, err := daemon.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := ConnectLocal(d), ConnectLocal(d)
		ti, err := c1.RegisterType("shr.node", nodeSz, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool1, err := c1.CreatePool("shared", 0o666)
		if err != nil {
			t.Fatal(err)
		}
		root, err := pool1.CreateRoot(ti.ID, nodeSz)
		if err != nil {
			t.Fatal(err)
		}
		dev.StoreU64(root+offData, 42)
		dev.Persist(root+offData, 8)
		pool2, err := c2.OpenPool("shared")
		if err != nil {
			t.Fatal(err)
		}
		tx1 := c1.Begin(pool1)
		if err := tx1.SetU64(root+offData, 1111); err != nil {
			t.Fatal(err)
		}
		tx2 := c2.Begin(pool2)
		if err := tx2.SetU64(root+offData, 2222); err != nil {
			t.Fatal(err)
		}
		// Both abandoned: two pending log spaces whose undo entries
		// overlap on root+offData.
		return dev, root
	}

	dev1, root := build()
	var img bytes.Buffer
	if err := dev1.Save(&img); err != nil {
		t.Fatal(err)
	}
	recoverWith := func(workers int) uint64 {
		dev := pmem.New()
		if err := dev.Restore(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		if _, err := daemon.New(dev, daemon.WithRecoveryWorkers(workers)); err != nil {
			t.Fatal(err)
		}
		return dev.LoadU64(root + offData)
	}
	serial := recoverWith(1)
	if serial != 42 && serial != 1111 {
		t.Fatalf("serial recovery produced %d, want a logged pre-image (42 or 1111)", serial)
	}
	for i := 0; i < 4; i++ {
		if par := recoverWith(8); par != serial {
			t.Fatalf("parallel recovery produced %d, serial produced %d — conflict group not serialized", par, serial)
		}
	}
}

func TestCrashDuringParallelRecovery(t *testing.T) {
	// The daemon itself is killed mid-replay with several pending log
	// spaces; the next boot must still recover everything. Offsets sweep
	// the crash point through the concurrent recovery pass.
	const spaces = 6
	for _, off := range []int64{3, 17, 41, 97, 181, 307, 503} {
		dev := pmem.NewChaos(off)
		roots := buildPendingSpaces(t, dev, spaces)
		dev.CrashNow() // power failure with all spaces pending

		// Reboot #1: recovery runs concurrently and is killed at the
		// off-th persistence event.
		dev.CrashAtEvent(dev.Events() + off)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !pmem.IsCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if _, err := daemon.New(dev, daemon.WithRecoveryWorkers(4)); err != nil {
				t.Fatalf("offset %d: first reboot: %v", off, err)
			}
		}()
		if !crashed {
			dev.CrashAtEvent(0) // recovery finished before the probe point
			dev.CrashNow()
		}

		// Reboot #2: clean boot must finish the job.
		if _, err := daemon.New(dev, daemon.WithRecoveryWorkers(4)); err != nil {
			t.Fatalf("offset %d: second reboot: %v", off, err)
		}
		for i, root := range roots {
			a, b := dev.LoadU64(root+offData), dev.LoadU64(root+offNext)
			if a != 42 || b != 43 {
				t.Fatalf("offset %d, space %d: root = (%d, %d), want rollback to (42, 43) [crashed=%v]",
					off, i, a, b, crashed)
			}
		}
	}
}

func TestErrTxDoneAfterCommit(t *testing.T) {
	_, c := newSystem(t)
	pool, _ := c.CreatePool("p", 0)
	tx := c.Begin(pool)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(0x1000, 8); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Add after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double Commit = %v", err)
	}
}

func TestOlderBuildImageBootsAndRuns(t *testing.T) {
	// What a build before the fence-minimal commit leaves on media: idle
	// logs reset to range (0,0) (its Reset closed the range; ours rests
	// at (0,2)), and, for a process that died mid-transaction, a log at
	// range (0,2) holding live undo entries — the one state both builds
	// share. The words, offsets and checksums did not change, so such an
	// image must boot, recover and run transactions.
	dev := pmem.NewChaos(7)
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := ConnectLocal(d)
	pool, root, _ := setupValueRoot(t, c, 256)
	// Two transactions in flight at once put two logs in the cache.
	tx1, tx2 := c.Begin(pool), c.Begin(pool)
	if err := tx1.SetU64(root, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetU64(root+64, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	heads := c.CachedLogHeads()
	if len(heads) != 2 {
		t.Fatalf("%d parked logs, want 2", len(heads))
	}
	restParkedLogsAt(c, 0, 0) // as the older Reset persisted it
	// The same client goes on to use one of those logs (a live process
	// across an in-place upgrade does not exist, but the log cache does
	// not know that): the transaction reopens the undo window itself...
	if err := c.Run(pool, func(tx *Tx) error { return tx.SetU64(root+128, 3) }); err != nil {
		t.Fatal(err)
	}
	// ...and a transaction parks in flight: logged, stored, never committed.
	parked := c.Begin(pool)
	if err := parked.SetU64(root, 99); err != nil {
		t.Fatal(err)
	}
	dev.Persist(root, 8)
	dev.DropVolatile() // power failure; the client is gone with it

	var out bytes.Buffer
	d2, err := daemon.New(dev, daemon.WithLogger(log.New(&out, "", 0)))
	if err != nil {
		t.Fatalf("boot on the older image: %v", err)
	}
	if s := d2.Stats(); s.LogsReplayed != 1 || s.EntriesApplied != 1 {
		t.Fatalf("recovery replayed %d logs, %d entries; want the one parked transaction\n%s", s.LogsReplayed, s.EntriesApplied, out.String())
	}
	if a, b, e := dev.LoadU64(root), dev.LoadU64(root+64), dev.LoadU64(root+128); a != 1 || b != 2 || e != 3 {
		t.Fatalf("after recovery: %d %d %d, want 1 2 3", a, b, e)
	}
	// Recovery left every log it visited at rest, the (0,0) one included.
	for _, h := range heads {
		l, err := plog.OpenLog(dev, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !l.AtRest() {
			lo, hi := l.Range()
			t.Fatalf("log %#x not at rest after recovery: range (%d,%d)", uint64(h), lo, hi)
		}
	}
	c2 := ConnectLocal(d2)
	defer c2.Close()
	pool2, err := c2.OpenPool("txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Run(pool2, func(tx *Tx) error { return tx.SetU64(root, 5) }); err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(root); v != 5 {
		t.Fatalf("transaction on the recovered image wrote %d", v)
	}
}
