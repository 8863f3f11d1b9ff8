package daemon_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
)

// startDaemon boots a daemon on its own device and serves it on a
// loopback TCP listener, returning the daemon, its URL and the listener.
func startDaemon(t *testing.T, dev *pmem.Device, opts ...daemon.Option) (*daemon.Daemon, string, net.Listener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	url := "tcp://" + l.Addr().String()
	d, err := daemon.New(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	return d, url, l
}

// migrate asks the daemon at url to move pool name to target.
func migrate(t *testing.T, url, name, target string) proto.MigReport {
	t.Helper()
	resp, err := superConn(t, url).RoundTrip(&proto.Request{Op: proto.OpMigratePool, Name: name, Target: target})
	if err != nil {
		t.Fatalf("migrate %q: %v", name, err)
	}
	return resp.Report
}

// occupy creates a pool on the daemon at url so that the identity
// address range of a pool migrating there is taken and the target must
// relocate it.
func occupy(t *testing.T, url string, dev *pmem.Device) {
	t.Helper()
	blocker, err := core.Dial(url, dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { blocker.Close() })
	if _, err := blocker.CreatePool("filler", 0o666); err != nil {
		t.Fatal(err)
	}
}

// buildList links n nodes of type ti ({next, val}) behind the root
// object, node i holding value i*step.
func buildList(t *testing.T, cl *core.Client, pool *core.Pool, ti ptypes.TypeInfo, root pmem.Addr, n int, step uint64) {
	t.Helper()
	if err := cl.Run(pool, func(tx *core.Tx) error {
		prev := root
		for i := 1; i <= n; i++ {
			node, err := tx.Alloc(ti.ID, 16)
			if err != nil {
				return err
			}
			if err := tx.SetU64(node+8, uint64(i)*step); err != nil {
				return err
			}
			if err := tx.SetU64(prev, uint64(node)); err != nil {
				return err
			}
			prev = node
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// checkList walks the list behind root on dev: exactly n nodes, node i
// holding value i*step.
func checkList(t *testing.T, dev *pmem.Device, root pmem.Addr, n int, step uint64) {
	t.Helper()
	addr := dev.LoadU64(root)
	for i := 1; i <= n; i++ {
		if addr == 0 {
			t.Fatalf("list truncated at node %d", i)
		}
		if got := dev.LoadU64(pmem.Addr(addr) + 8); got != uint64(i)*step {
			t.Fatalf("node %d: val %d, want %d (pointer not translated?)", i, got, uint64(i)*step)
		}
		addr = dev.LoadU64(pmem.Addr(addr))
	}
	if addr != 0 {
		t.Fatalf("list does not terminate: trailing pointer %#x", addr)
	}
}

// superConn opens a daemon-to-daemon style superuser connection (TCP
// asserts credentials; an empty Hello claims uid 0).
func superConn(t *testing.T, url string) *proto.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", url[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	c := proto.NewConnHello(nc, proto.Hello{})
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestLiveMigrationUnderWrites is the headline acceptance path: a pool
// migrates between two daemons while a client sustains transactional
// writes. Every acknowledged write must be durable at the target, and
// the client must follow the pool-moved redirect transparently.
func TestLiveMigrationUnderWrites(t *testing.T) {
	dev1, dev2 := pmem.New(), pmem.New()
	_, url1, _ := startDaemon(t, dev1)
	_, url2, _ := startDaemon(t, dev2)

	cl, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterPeerDevice(url2, dev2)

	ti, err := cl.RegisterType("mig.cell", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cl.CreatePool("live", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 512
	rootAddr, err := pool.CreateRoot(ti.ID, slots*8)
	if err != nil {
		t.Fatal(err)
	}

	// Sustained writer: slot seq%slots gets value seq; lastAcked records
	// what the daemon acknowledged per slot.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	lastAcked := make([]uint64, slots)
	var acked uint64
	var writerErr error
	go func() {
		defer close(writerDone)
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := seq % slots
			err := cl.Run(pool, func(tx *core.Tx) error {
				return tx.SetU64(rootAddr+pmem.Addr(slot*8), seq)
			})
			if err != nil {
				writerErr = fmt.Errorf("write %d: %w", seq, err)
				return
			}
			lastAcked[slot] = seq
			acked++
		}
	}()
	// Let the writer build up dirt before the migration starts.
	time.Sleep(20 * time.Millisecond)

	mc := superConn(t, url1)
	resp, err := mc.RoundTrip(&proto.Request{Op: proto.OpMigratePool, Name: "live", Target: url2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("migrate refused: %s", resp.Err)
	}
	if resp.Report.Rounds == 0 || resp.Report.SnapshotBytes == 0 {
		t.Fatalf("empty migration report: %+v", resp.Report)
	}
	// The quiesce pause is bounded by one round's dirt, not pool size;
	// anything beyond a second means the engine stop-the-world'ed the
	// whole transfer.
	if pause := time.Duration(resp.Report.PauseNs); pause > time.Second {
		t.Fatalf("final quiesce pause %v is not ms-scale", pause)
	}

	// The writer must keep going across the cutover (redirect + refresh
	// are transparent inside Run).
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-writerDone
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	if acked < slots {
		t.Fatalf("writer made no progress: %d acked", acked)
	}
	if cl.MovesFollowed() == 0 {
		t.Fatal("client never followed the pool-moved redirect")
	}

	// Every acknowledged write is durable at the TARGET device.
	for slot, want := range lastAcked {
		if want == 0 {
			continue
		}
		if got := dev2.LoadU64(rootAddr + pmem.Addr(slot*8)); got != want {
			t.Fatalf("slot %d: target has %d, last acked write was %d", slot, got, want)
		}
	}

	// The source answers the typed pool-moved refusal with the target's
	// URL for any late client.
	oc := superConn(t, url1)
	_, err = oc.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "live"})
	if target, moved := proto.PoolMovedTarget(err); !moved || target != url2 {
		t.Fatalf("source answered %v, want pool-moved to %s", err, url2)
	}

	// A fresh client dialing the target sees the data natively.
	cl2, err := core.Dial(url2, dev2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	p2, err := cl2.OpenPool("live")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Root()
	if err != nil {
		t.Fatal(err)
	}
	if r2 != rootAddr {
		t.Fatalf("identity placement expected on a fresh target: root %v -> %v", rootAddr, r2)
	}
}

// TestMigrationPointerRewrite forces non-identity placement (the
// target's identity range is occupied) and checks that every pointer
// field of every live object is translated into the target's address
// space — the reloc.AddrMap path.
func TestMigrationPointerRewrite(t *testing.T) {
	dev1, dev2 := pmem.New(), pmem.New()
	_, url1, _ := startDaemon(t, dev1)
	_, url2, _ := startDaemon(t, dev2)
	occupy(t, url2, dev2)

	cl, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// node: {next *node; val uint64}
	ti, err := cl.RegisterType("mig.node", 16, []ptypes.PtrField{{Offset: 0}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cl.CreatePool("plist", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	rootAddr, err := pool.CreateRoot(ti.ID, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	buildList(t, cl, pool, ti, rootAddr, n, 11)
	migrate(t, url1, "plist", url2)

	root2 := openRoot(t, url2, dev2, "plist")
	if root2 == rootAddr {
		t.Fatal("filler pool failed to force relocation; rewrite path not exercised")
	}
	checkList(t, dev2, root2, n, 11)
}

// openRoot opens pool name on the daemon at url with a fresh client and
// returns its root object's address.
func openRoot(t *testing.T, url string, dev *pmem.Device, name string) pmem.Addr {
	t.Helper()
	cl, err := core.Dial(url, dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	p, err := cl.OpenPool(name)
	if err != nil {
		t.Fatalf("open %q: %v", name, err)
	}
	root, err := p.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMigrationRewriteSkipsShortObjects: an object allocated smaller than
// its type does not hold the pointer fields past its end. Two 16-byte
// objects of a 32-byte type whose pointer sits at offset 24 share a
// 16-byte slab; the relocating walk must leave offset 8 of the second —
// plain data that happens to hold an in-pool address — untouched.
func TestMigrationRewriteSkipsShortObjects(t *testing.T) {
	dev1, dev2 := pmem.New(), pmem.New()
	_, url1, _ := startDaemon(t, dev1)
	_, url2, _ := startDaemon(t, dev2)
	occupy(t, url2, dev2)

	cl, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	node, err := cl.RegisterType("short.root", 16, []ptypes.PtrField{{Offset: 0}})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := cl.RegisterType("short.wide", 32, []ptypes.PtrField{{Offset: 24}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cl.CreatePool("short", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	rootAddr, err := pool.CreateRoot(node.ID, 16)
	if err != nil {
		t.Fatal(err)
	}
	var a, b pmem.Addr
	if err := cl.Run(pool, func(tx *core.Tx) error {
		if a, err = tx.Alloc(wide.ID, 16); err != nil {
			return err
		}
		if b, err = tx.Alloc(wide.ID, 16); err != nil {
			return err
		}
		if err := tx.SetU64(b+8, uint64(rootAddr)); err != nil {
			return err
		}
		return tx.SetU64(rootAddr, uint64(a))
	}); err != nil {
		t.Fatal(err)
	}
	if b != a+16 {
		t.Fatalf("the two short objects sit at %#x and %#x, not in neighbouring slab slots", a, b)
	}
	migrate(t, url1, "short", url2)

	root2 := openRoot(t, url2, dev2, "short")
	if root2 == rootAddr {
		t.Fatal("filler pool failed to force relocation; rewrite path not exercised")
	}
	a2 := pmem.Addr(dev2.LoadU64(root2))
	if got := dev2.LoadU64(a2 + 16 + 8); got != uint64(rootAddr) {
		t.Fatalf("the neighbour's data word changed in the move: %#x -> %#x", uint64(rootAddr), got)
	}
}

// TestMigrationConcurrentWritersConverge runs several writer
// goroutines across the cutover: all must finish without losing an
// acknowledged increment (torn-transaction check on the quiesce gate).
func TestMigrationConcurrentWritersConverge(t *testing.T) {
	dev1, dev2 := pmem.New(), pmem.New()
	_, url1, _ := startDaemon(t, dev1)
	_, url2, _ := startDaemon(t, dev2)

	cl, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterPeerDevice(url2, dev2)
	ti, err := cl.RegisterType("mig.ctr", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cl.CreatePool("counters", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	rootAddr, err := pool.CreateRoot(ti.ID, workers*8)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	counts := make([]uint64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := rootAddr + pmem.Addr(w*8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				next := counts[w] + 1
				if err := cl.Run(pool, func(tx *core.Tx) error {
					return tx.SetU64(slot, next)
				}); err != nil {
					errs[w] = err
					return
				}
				counts[w] = next
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	mc := superConn(t, url1)
	resp, err := mc.RoundTrip(&proto.Request{Op: proto.OpMigratePool, Name: "counters", Target: url2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("migrate refused: %s", resp.Err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 0; w < workers; w++ {
		got := dev2.LoadU64(rootAddr + pmem.Addr(w*8))
		if got != counts[w] {
			t.Fatalf("worker %d: target counter %d, acked %d", w, got, counts[w])
		}
	}
}

// TestStaleHandleDoesNotWriteRecycledRange: once a pool has migrated
// away, its old root range on the source is free, and the next pool
// created there takes it. A transaction through a handle opened before
// the move must follow the move, not write into the newcomer's root
// (whose freeze word says nothing about the departed pool). The source
// reboots between the move and the create, so its address manager
// hands out that range even where it would otherwise pick a fresh one.
func TestStaleHandleDoesNotWriteRecycledRange(t *testing.T) {
	dev1, dev2 := pmem.New(), pmem.New()
	d1, url1, l1 := startDaemon(t, dev1)
	_, url2, _ := startDaemon(t, dev2)

	cl, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterPeerDevice(url2, dev2)
	ti, err := cl.RegisterType("stale.cell", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := cl.CreatePool("live", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	liveRoot, err := live.CreateRoot(ti.ID, 64)
	if err != nil {
		t.Fatal(err)
	}
	setRoot := func(v uint64) error {
		return cl.Run(live, func(tx *core.Tx) error {
			root, err := live.Root()
			if err != nil {
				return err
			}
			return tx.SetU64(root, v)
		})
	}
	if err := setRoot(1); err != nil {
		t.Fatal(err)
	}
	migrate(t, url1, "live", url2)

	if err := d1.Detach(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d1b, err := daemon.New(dev1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d1b.Kill)
	go d1b.Serve(l1)

	other, err := core.Dial(url1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	oti, err := other.RegisterType("stale.cell", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := other.CreatePool("squatter", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	sqRoot, err := squatter.CreateRoot(oti.ID, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sqRoot != liveRoot {
		t.Fatalf("set-up: squatter's root at %#x, live's old root at %#x — the range was not reused", sqRoot, liveRoot)
	}

	if err := setRoot(2); err != nil {
		t.Fatalf("transaction through the stale handle: %v", err)
	}
	if got := dev1.LoadU64(sqRoot); got != 0 {
		t.Fatalf("the stale handle wrote %d into squatter's root", got)
	}
	if cl.MovesFollowed() == 0 {
		t.Fatal("the stale handle never followed the move")
	}
	cl2, err := core.Dial(url2, dev2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	moved, err := cl2.OpenPool("live")
	if err != nil {
		t.Fatal(err)
	}
	root, err := moved.Root()
	if err != nil {
		t.Fatal(err)
	}
	if got := dev2.LoadU64(root); got != 2 {
		t.Fatalf("live's root at the target holds %d, want 2", got)
	}
}

// TestMigrationTargetBadFrameCounted: a target that completes the
// handshake and then answers the migration's begin with a frame failing
// its CRC is a wire error seen by this daemon as a client. It counts in
// WireDecodeErrors exactly once, the migration aborts, and the pool
// stays here.
func TestMigrationTargetBadFrameCounted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		sc := proto.NewServerConn(nc)
		if _, err := sc.AcceptHello(); err != nil {
			served <- err
			return
		}
		req, err := sc.Recv()
		if err != nil {
			served <- err
			return
		}
		if req.Op != proto.OpMigrateBegin {
			served <- fmt.Errorf("first request %v, want OpMigrateBegin", req.Op)
			return
		}
		// len 2, CRC that the payload does not have.
		if _, err := nc.Write([]byte{2, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde, 0, 0}); err != nil {
			served <- err
			return
		}
		served <- nil
		io.Copy(io.Discard, nc) // until the source hangs up
	}()

	d, err := daemon.New(pmem.New())
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "stays"}); err != nil {
		t.Fatal(err)
	}
	_, err = c.RoundTrip(&proto.Request{Op: proto.OpMigratePool, Name: "stays", Target: "tcp://" + l.Addr().String()})
	if err == nil {
		t.Fatal("migration to a target answering with a bad frame succeeded")
	}
	if err := <-served; err != nil {
		t.Fatalf("fake target: %v", err)
	}
	st := d.Stats()
	if st.WireDecodeErrors != 1 || st.MigrationAborts != 1 {
		t.Fatalf("WireDecodeErrors = %d, MigrationAborts = %d; want 1 and 1 (migrate: %v)",
			st.WireDecodeErrors, st.MigrationAborts, err)
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "stays"}); err != nil {
		t.Fatalf("pool left after an aborted migration: %v", err)
	}
}
