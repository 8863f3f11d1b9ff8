package core

import (
	"testing"

	"puddles/internal/daemon"
	"puddles/internal/pmem"
)

// shadowChaosSetup boots a stack on a chaos device with a root to
// publish into and a 2 KiB object of unreachable shadow memory, with
// every line of it durable.
func shadowChaosSetup(t *testing.T) (*pmem.Device, *Client, *Pool, pmem.Addr, pmem.Addr) {
	t.Helper()
	dev := pmem.NewChaos(1)
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := ConnectLocal(d)
	t.Cleanup(func() { c.Close() })
	ti, err := c.RegisterLayout("node", node{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("shadow", 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, nodeSz)
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.RegisterType("shadow.area", 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	area, err := pool.Malloc(big.ID, 2048)
	if err != nil {
		t.Fatal(err)
	}
	dev.StoreU64(root+offData, 1)
	dev.Persist(root+offData, 8)
	return dev, c, pool, root, area
}

// shadowStoreDescending stores to n lines of area, every other line,
// highest address first: no two stores merge on the fly, so the set
// spills past its inline ranges and must sort before it flushes.
func shadowStoreDescending(st *ShadowTx, area pmem.Addr, n int) {
	for i := n - 1; i >= 0; i-- {
		st.StoreU64(area+pmem.Addr(2*i)*pmem.LineSize, uint64(100+i))
	}
}

// checkShadowDurable checks that only the publish line is left
// volatile, then drops every unflushed line and checks the shadow
// stores and the flushed publish survived.
func checkShadowDurable(t *testing.T, dev *pmem.Device, root, area pmem.Addr, n int) {
	t.Helper()
	if v := dev.VolatileLines(); v != 1 {
		t.Fatalf("%d volatile lines after commit, want 1 (the flushed, unfenced publish)", v)
	}
	dev.DropVolatile()
	for i := 0; i < n; i++ {
		if got := dev.LoadU64(area + pmem.Addr(2*i)*pmem.LineSize); got != uint64(100+i) {
			t.Fatalf("shadow line %d = %d after drop, want %d", i, got, 100+i)
		}
	}
	if got := dev.LoadU64(root + offData); got != 2 {
		t.Fatalf("root = %d after drop, want 2: a flushed line survives under ADR", got)
	}
}

// TestShadowCommitBranches drives both ShadowTx.Commit branches on a
// chaos device. With nothing undo-logged the shadow lines are flushed
// once per line run and ordered by the discipline's one fence; with an
// allocation logged they are flushed ahead of the wrapped commit and
// ride its stage-1 fence, which costs no fence of their own.
func TestShadowCommitBranches(t *testing.T) {
	const lines = 8

	t.Run("no-alloc", func(t *testing.T) {
		dev, c, pool, root, area := shadowChaosSetup(t)
		if v := dev.VolatileLines(); v != 0 {
			t.Fatalf("%d volatile lines before the shadow op", v)
		}
		st0 := dev.Stats()
		st := c.BeginShadow(pool)
		shadowStoreDescending(st, area, lines)
		if err := st.Publish(root+offData, 2); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		s := dev.Stats()
		if f := s.Fences - st0.Fences; f != 1 {
			t.Fatalf("%d fences, want 1", f)
		}
		if f := s.Flushes - st0.Flushes; f != lines+1 {
			t.Fatalf("%d flushes, want %d line runs plus the publish", f, lines+1)
		}
		checkShadowDurable(t, dev, root, area, lines)
	})

	t.Run("carve", func(t *testing.T) {
		dev, c, pool, root, area := shadowChaosSetup(t)
		ti, err := c.RegisterLayout("node", node{})
		if err != nil {
			t.Fatal(err)
		}
		// The wrapped undo commit on its own, for the fence count.
		ref := c.Begin(pool)
		if _, err := ref.Alloc(ti.ID, nodeSz); err != nil {
			t.Fatal(err)
		}
		f0 := dev.Stats().Fences
		if err := ref.Commit(); err != nil {
			t.Fatal(err)
		}
		want := dev.Stats().Fences - f0
		dev.Fence()
		if v := dev.VolatileLines(); v != 0 {
			t.Fatalf("%d volatile lines before the shadow op", v)
		}

		st := c.BeginShadow(pool)
		if _, err := st.Alloc(ti.ID, nodeSz); err != nil {
			t.Fatal(err)
		}
		if !st.Tx().Pending() {
			t.Fatal("the allocation logged nothing: the carve branch is not under test")
		}
		shadowStoreDescending(st, area, lines)
		if err := st.Publish(root+offData, 2); err != nil {
			t.Fatal(err)
		}
		f1 := dev.Stats().Fences
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Fences - f1; got != want {
			t.Fatalf("shadow commit took %d fences, the wrapped undo commit alone takes %d", got, want)
		}
		checkShadowDurable(t, dev, root, area, lines)
	})
}
