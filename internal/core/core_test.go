package core

import (
	"errors"
	"testing"

	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// node mirrors the paper's running linked-list example (Fig. 8).
type node struct {
	Data uint64
	Next ptypes.Ptr
}

const (
	offData = 0
	offNext = 8
	nodeSz  = 16
)

// bigNode is a node padded past the largest slab class (256 B), so
// its allocations skip the worker caches and always take the
// shared-heap lease path.
type bigNode struct {
	node
	Pad [36]uint64
}

const bigNodeSz = nodeSz + 36*8

func newSystem(t *testing.T) (*daemon.Daemon, *Client) {
	t.Helper()
	dev := pmem.New()
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := ConnectLocal(d)
	t.Cleanup(func() { c.Close() })
	return d, c
}

func TestCreatePoolAndRoot(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("list", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Root(); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("Root before CreateRoot = %v", err)
	}
	root, err := pool.CreateRoot(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Root()
	if err != nil || got != root {
		t.Fatalf("Root = %#x, %v; want %#x", uint64(got), err, uint64(root))
	}
	if _, err := pool.CreateRoot(ti.ID, nodeSz); !errors.Is(err, ErrHasRoot) {
		t.Fatalf("second CreateRoot = %v", err)
	}
	// Reopen sees the same root.
	pool2, err := c.OpenPool("list")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := pool2.Root()
	if err != nil || got2 != root {
		t.Fatalf("reopened Root = %#x, %v", uint64(got2), err)
	}
}

// TestMallocBeforeCreateRoot: an object Malloc'd before CreateRoot sits
// at the fixed root offset. CreateRoot must refuse, typed and without
// leaking its block, rather than hand out a root that Root resolves to
// the earlier object.
func TestMallocBeforeCreateRoot(t *testing.T) {
	_, c := newSystem(t)
	ti, err := c.RegisterLayout("big", bigNode{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("early", 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := pool.Malloc(ti.ID, bigNodeSz)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, bigNodeSz)
	if err == nil {
		got, _ := pool.Root()
		t.Fatalf("CreateRoot = %#x, but Root = %#x (the Malloc'd object is %#x)", uint64(root), uint64(got), uint64(obj))
	}
	if !errors.Is(err, ErrRootSlotTaken) {
		t.Fatalf("CreateRoot after Malloc = %v, want ErrRootSlotTaken", err)
	}
	if n := pool.LiveObjects(); n != 1 {
		t.Fatalf("LiveObjects = %d after the refused CreateRoot, want 1", n)
	}
}

func TestTxCommitLinkedListAppend(t *testing.T) {
	// The paper's Fig. 8 example: allocate a node, undo-log the tail
	// link, write it, redo-log the tail pointer.
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("list", 0)
	type listRoot struct {
		Head ptypes.Ptr
		Tail ptypes.Ptr
	}
	rti, _ := c.RegisterLayout("listRoot", listRoot{})
	root, err := pool.CreateRoot(rti.ID, 16)
	if err != nil {
		t.Fatal(err)
	}
	dev := c.Device()
	for i := uint64(1); i <= 10; i++ {
		err := c.Run(pool, func(tx *Tx) error {
			n, err := tx.Alloc(ti.ID, nodeSz)
			if err != nil {
				return err
			}
			dev.StoreU64(n+offData, i)
			dev.StoreU64(n+offNext, 0)
			tail := pmem.Addr(dev.LoadU64(root + 8))
			if tail == 0 {
				if err := tx.SetU64(root+0, uint64(n)); err != nil { // head
					return err
				}
			} else if err := tx.SetU64(tail+offNext, uint64(n)); err != nil {
				return err
			}
			return tx.RedoSetU64(root+8, uint64(n)) // tail via redo log
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Traverse with plain loads — native pointers.
	var got []uint64
	for p := pmem.Addr(dev.LoadU64(root + 0)); p != 0; p = pmem.Addr(dev.LoadU64(p + offNext)) {
		got = append(got, dev.LoadU64(p+offData))
	}
	if len(got) != 10 {
		t.Fatalf("traversed %d nodes", len(got))
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("node %d = %d", i, v)
		}
	}
}

func TestTxNopTouchesNoLog(t *testing.T) {
	_, c := newSystem(t)
	pool, _ := c.CreatePool("p", 0)
	tx := c.Begin(pool)
	if tx.Pending() {
		t.Fatal("fresh tx has a log")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stats()
	if st.LogSpaces != 0 {
		t.Fatal("TX NOP registered a log space")
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("p", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	dev := c.Device()
	dev.StoreU64(root+offData, 42)
	dev.Persist(root+offData, 8)
	before := pool.LiveObjects()

	err := c.Run(pool, func(tx *Tx) error {
		if err := tx.SetU64(root+offData, 999); err != nil {
			return err
		}
		if _, err := tx.Alloc(ti.ID, nodeSz); err != nil {
			return err
		}
		return errors.New("boom")
	})
	if !errors.Is(err, ErrTxFailed) {
		t.Fatalf("Run = %v", err)
	}
	if v := dev.LoadU64(root + offData); v != 42 {
		t.Fatalf("value after abort = %d, want 42", v)
	}
	if pool.LiveObjects() != before {
		t.Fatalf("allocation leaked across abort: %d -> %d", before, pool.LiveObjects())
	}
	// Pool still usable: allocation after abort succeeds.
	if err := c.Run(pool, func(tx *Tx) error {
		_, err := tx.Alloc(ti.ID, nodeSz)
		return err
	}); err != nil {
		t.Fatalf("tx after abort: %v", err)
	}
}

func TestTxPanicAborts(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("p", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	dev := c.Device()
	dev.StoreU64(root, 7)
	func() {
		defer func() { recover() }()
		c.Run(pool, func(tx *Tx) error {
			tx.SetU64(root, 100)
			panic("die")
		})
	}()
	if v := dev.LoadU64(root); v != 7 {
		t.Fatalf("value after panic = %d", v)
	}
}

func TestRedoSetVisibleOnlyAfterCommit(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("p", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	dev := c.Device()
	dev.StoreU64(root, 1)
	tx := c.Begin(pool)
	if err := tx.RedoSetU64(root, 2); err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(root); v != 1 {
		t.Fatalf("redo write visible before commit: %d", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(root); v != 2 {
		t.Fatalf("redo write missing after commit: %d", v)
	}
}

func TestPoolGrowsAcrossPuddles(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("big", 0)
	// Allocate far beyond one 2 MiB puddle.
	var last pmem.Addr
	for i := 0; i < 1500; i++ {
		a, err := pool.Malloc(ti.ID, 4096)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		last = a
	}
	if len(pool.Puddles()) < 2 {
		t.Fatalf("pool did not grow: %d puddles", len(pool.Puddles()))
	}
	// Objects in grown puddles are freeable.
	if err := pool.Free(last); err != nil {
		t.Fatal(err)
	}
}

func TestHugeObjectGetsBigPuddle(t *testing.T) {
	_, c := newSystem(t)
	pool, _ := c.CreatePool("huge", 0)
	a, err := pool.Malloc(ptypes.Untyped, 3<<20) // larger than a default puddle
	if err != nil {
		t.Fatal(err)
	}
	c.Device().StoreU64(a, 0x1234)
	if v := c.Device().LoadU64(a); v != 0x1234 {
		t.Fatal("huge object unusable")
	}
}

func TestReadOnlyPoolRejectsWrites(t *testing.T) {
	d, _ := newSystem(t)
	owner := ConnectLocal(d)
	defer owner.Close()
	if err := owner.Hello(100, 10); err != nil {
		t.Fatal(err)
	}
	ti, _ := owner.RegisterLayout("node", node{})
	if _, err := owner.CreatePool("shared", 0o644); err != nil {
		t.Fatal(err)
	}
	reader := ConnectLocal(d)
	defer reader.Close()
	if err := reader.Hello(200, 20); err != nil {
		t.Fatal(err)
	}
	pool, err := reader.OpenPool("shared")
	if err != nil {
		t.Fatal(err)
	}
	if pool.Writable {
		t.Fatal("reader got a writable grant on 0644")
	}
	if _, err := pool.Malloc(ti.ID, nodeSz); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Malloc on RO pool = %v", err)
	}
	if err := reader.Run(pool, func(tx *Tx) error {
		return tx.SetU64(pool.RootPuddle().HeapBase(), 1)
	}); err == nil {
		t.Fatal("tx on RO pool committed")
	}
}

func TestCrossPoolTransaction(t *testing.T) {
	// The paper's Fig. 3 scenario: one transaction updates a database
	// pool and an event-log pool atomically (impossible in PMDK).
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	db, _ := c.CreatePool("db", 0)
	events, _ := c.CreatePool("events", 0)
	dbRoot, _ := db.CreateRoot(ti.ID, nodeSz)
	evRoot, _ := events.CreateRoot(ti.ID, nodeSz)
	dev := c.Device()
	err := c.Run(db, func(tx *Tx) error {
		if err := tx.SetU64(dbRoot+offData, 111); err != nil {
			return err
		}
		return tx.SetU64(evRoot+offData, 222) // different pool, same tx
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.LoadU64(dbRoot+offData) != 111 || dev.LoadU64(evRoot+offData) != 222 {
		t.Fatal("cross-pool writes lost")
	}
	// And cross-pool abort rolls both back.
	c.Run(db, func(tx *Tx) error {
		tx.SetU64(dbRoot+offData, 1)
		tx.SetU64(evRoot+offData, 2)
		return errors.New("abort")
	})
	if dev.LoadU64(dbRoot+offData) != 111 || dev.LoadU64(evRoot+offData) != 222 {
		t.Fatal("cross-pool abort incomplete")
	}
}

func TestVolatileEntriesRestoredOnAbortOnly(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("p", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	dev := c.Device()
	vaddr := c.VolatileAlloc(8)
	dev.StoreU64(vaddr, 50)

	// Abort restores volatile state.
	c.Run(pool, func(tx *Tx) error {
		tx.AddVolatile(vaddr, 8)
		dev.StoreU64(vaddr, 60)
		tx.SetU64(root, 1)
		return errors.New("abort")
	})
	if v := dev.LoadU64(vaddr); v != 50 {
		t.Fatalf("volatile location not restored on abort: %d", v)
	}
	// Commit keeps the new volatile value.
	if err := c.Run(pool, func(tx *Tx) error {
		tx.AddVolatile(vaddr, 8)
		dev.StoreU64(vaddr, 70)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(vaddr); v != 70 {
		t.Fatalf("volatile location after commit: %d", v)
	}
}

func TestLogReuseAcrossTransactions(t *testing.T) {
	_, c := newSystem(t)
	ti, _ := c.RegisterLayout("node", node{})
	pool, _ := c.CreatePool("p", 0)
	root, _ := pool.CreateRoot(ti.ID, nodeSz)
	for i := 0; i < 100; i++ {
		if err := c.Run(pool, func(tx *Tx) error {
			return tx.SetU64(root, uint64(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One cached log serves all sequential transactions: the log pool
	// should hold exactly one log puddle + the log space + its root.
	st, _ := c.Stats()
	// pools: "p" + hidden log pool; puddles: p-root, logpool-root,
	// logspace, one log puddle.
	if st.Puddles > 4 {
		t.Fatalf("log puddles not reused: %d puddles", st.Puddles)
	}
}
