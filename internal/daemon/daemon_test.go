package daemon

import (
	"bytes"
	"log"
	"strings"
	"testing"

	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
)

func newDaemon(t *testing.T) (*Daemon, *proto.Conn) {
	t.Helper()
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	t.Cleanup(func() { c.Close() })
	return d, c
}

func rt(t *testing.T, c *proto.Conn, req *proto.Request) *proto.Response {
	t.Helper()
	resp, err := c.RoundTrip(req)
	if err != nil {
		t.Fatalf("%v: %v", req.Op, err)
	}
	return resp
}

func TestNopRoundTrip(t *testing.T) {
	_, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpNop})
}

func TestCreateOpenPool(t *testing.T) {
	_, c := newDaemon(t)
	created := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "db"})
	if created.Addr == 0 || created.Size == 0 || created.Pool.IsNil() {
		t.Fatalf("CreatePool = %+v", created)
	}
	opened := rt(t, c, &proto.Request{Op: proto.OpOpenPool, Name: "db"})
	if opened.Addr != created.Addr || opened.Pool != created.Pool || !opened.Writable {
		t.Fatalf("OpenPool = %+v, created = %+v", opened, created)
	}
	if len(opened.Puddles) != 1 {
		t.Fatalf("pool has %d puddles", len(opened.Puddles))
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "db"}); err == nil {
		t.Fatal("duplicate CreatePool succeeded")
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "nope"}); err == nil {
		t.Fatal("OpenPool on missing pool succeeded")
	}
}

func TestRootPuddleIsFormatted(t *testing.T) {
	d, c := newDaemon(t)
	resp := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "p"})
	p, err := puddle.Open(d.Device(), pmem.Addr(resp.Addr))
	if err != nil {
		t.Fatalf("root puddle not formatted: %v", err)
	}
	if p.Kind() != puddle.KindData || p.UUID() != resp.UUID {
		t.Fatalf("root puddle kind=%v uuid=%v", p.Kind(), p.UUID())
	}
}

func TestGetNewPuddleAndFree(t *testing.T) {
	_, c := newDaemon(t)
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "p"})
	pu := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.DefaultSize, Kind: uint64(puddle.KindLog)})
	if pu.Addr == 0 {
		t.Fatal("no address")
	}
	got := rt(t, c, &proto.Request{Op: proto.OpGetExistPuddle, UUID: pu.UUID})
	if got.Addr != pu.Addr || !got.Writable {
		t.Fatalf("GetExistPuddle = %+v", got)
	}
	rt(t, c, &proto.Request{Op: proto.OpFreePuddle, UUID: pu.UUID})
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpGetExistPuddle, UUID: pu.UUID}); err == nil {
		t.Fatal("freed puddle still accessible")
	}
	// Root puddle cannot be freed.
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpFreePuddle, UUID: pool.UUID}); err == nil {
		t.Fatal("freed a root puddle")
	}
}

func TestPermissions(t *testing.T) {
	d, _ := newDaemon(t)
	alice := d.SelfConn()
	bob := d.SelfConn()
	mallory := d.SelfConn()
	defer alice.Close()
	defer bob.Close()
	defer mallory.Close()
	if _, err := alice.RoundTrip(&proto.Request{Op: proto.OpHello, UID: 100, GID: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.RoundTrip(&proto.Request{Op: proto.OpHello, UID: 101, GID: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.RoundTrip(&proto.Request{Op: proto.OpHello, UID: 999, GID: 99}); err != nil {
		t.Fatal(err)
	}
	// Owner rw, group r, other none.
	if _, err := alice.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "secret", Mode: 0o640}); err != nil {
		t.Fatal(err)
	}
	// Group member can read but not write.
	resp, err := bob.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "secret"})
	if err != nil {
		t.Fatalf("group read: %v", err)
	}
	if resp.Writable {
		t.Fatal("group member got write access with mode 0640")
	}
	if _, err := bob.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool}); err == nil {
		t.Fatal("group member allocated a puddle without write permission")
	}
	// Stranger sees nothing.
	if _, err := mallory.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "secret"}); err == nil {
		t.Fatal("other user opened 0640 pool")
	}
	lp, _ := mallory.RoundTrip(&proto.Request{Op: proto.OpListPools})
	for _, n := range lp.Names {
		if n == "secret" {
			t.Fatal("ListPools leaked an unreadable pool")
		}
	}
}

func TestRegisterAndGetType(t *testing.T) {
	_, c := newDaemon(t)
	ti := ptypes.TypeInfo{ID: ptypes.IDOf("node"), Name: "node", Size: 16, Ptrs: []ptypes.PtrField{{Offset: 8}}}
	rt(t, c, &proto.Request{Op: proto.OpRegisterType, Type: ti})
	got := rt(t, c, &proto.Request{Op: proto.OpGetType, TypeID: uint64(ti.ID)})
	if got.Type.Name != "node" || len(got.Type.Ptrs) != 1 {
		t.Fatalf("GetType = %+v", got.Type)
	}
	all := rt(t, c, &proto.Request{Op: proto.OpListTypes})
	if len(all.Types) != 1 {
		t.Fatalf("ListTypes = %d", len(all.Types))
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpGetType, TypeID: 0x999}); err == nil {
		t.Fatal("GetType on unknown id succeeded")
	}
}

func TestStateSurvivesRestart(t *testing.T) {
	dev := pmem.New()
	d1, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c1 := d1.SelfConn()
	created := rt(t, c1, &proto.Request{Op: proto.OpCreatePool, Name: "persist-me"})
	rt(t, c1, &proto.Request{Op: proto.OpGetNewPuddle, Pool: created.Pool})
	rt(t, c1, &proto.Request{Op: proto.OpShutdown})
	c1.Close()

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "persist-me"})
	if opened.Addr != created.Addr {
		t.Fatalf("root moved across restart: %#x -> %#x", created.Addr, opened.Addr)
	}
	if len(opened.Puddles) != 2 {
		t.Fatalf("puddle count after restart = %d", len(opened.Puddles))
	}
	st := d2.Stats()
	if st.Recoveries != 0 {
		t.Fatalf("clean restart triggered recovery: %+v", st)
	}
}

// setupCrashedTx builds a pool with a registered log space and a log
// holding a live undo entry (as if the writer crashed mid-transaction),
// then returns the device, the address whose value must roll back and
// the head of that log.
// A non-zero chmodAfter changes the pool mode once the crashed state is
// in place (modelling credentials that expired before recovery, §2.1).
func setupCrashedTx(t *testing.T, creds Creds, mode uint32, chmodAfter uint32) (*pmem.Device, pmem.Addr, pmem.Addr) {
	t.Helper()
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	if creds != Superuser {
		if _, err := c.RoundTrip(&proto.Request{Op: proto.OpHello, UID: creds.UID, GID: creds.GID}); err != nil {
			t.Fatal(err)
		}
	}
	target, head := parkCrashedTx(t, dev, c, "app", mode)
	if chmodAfter != 0 {
		rt(t, c, &proto.Request{Op: proto.OpChmodPool, Name: "app", Mode: chmodAfter})
	}
	// The daemon process "dies" here: no Shutdown, dirty flag stays set.
	return dev, target, head
}

// parkCrashedTx creates pool name with a log space and one log of its
// own, and leaves a transaction on that log in flight.
func parkCrashedTx(t *testing.T, dev *pmem.Device, c *proto.Conn, name string, mode uint32) (target, head pmem.Addr) {
	t.Helper()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: name, Mode: mode})
	lsp := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
	logp := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.DefaultSize, Kind: uint64(puddle.KindLog)})

	lspHandle, err := puddle.Open(dev, pmem.Addr(lsp.Addr))
	if err != nil {
		t.Fatal(err)
	}
	space, err := plog.FormatShardedLogSpace(lspHandle, 1)
	if err != nil {
		t.Fatal(err)
	}
	logHandle, err := puddle.Open(dev, pmem.Addr(logp.Addr))
	if err != nil {
		t.Fatal(err)
	}
	l, err := plog.FormatLog(dev, pmem.Range{Start: logHandle.HeapBase(), End: logHandle.HeapBase() + pmem.Addr(logHandle.HeapSize())})
	if err != nil {
		t.Fatal(err)
	}
	if err := space.AddLog(0, l.Head(), logHandle.UUID()); err != nil {
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpRegLogSpace, UUID: lsp.UUID})

	// Simulate a mid-transaction crash: target holds 42, the tx undo-
	// logged the old value, overwrote with 99, and died before commit.
	target = pmem.Addr(pool.Addr) + 8192
	dev.StoreU64(target, 42)
	dev.Persist(target, 8)
	var old [8]byte
	dev.Load(target, old[:])
	if err := l.Append(plog.Entry{Addr: target, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: old[:]}, nil); err != nil {
		t.Fatal(err)
	}
	l.SetRange(plog.RangeUndoOnly[0], plog.RangeUndoOnly[1])
	dev.StoreU64(target, 99)
	dev.Persist(target, 8)
	return target, l.Head()
}

func TestApplicationIndependentRecovery(t *testing.T) {
	dev, target, _ := setupCrashedTx(t, Superuser, 0o600, 0)
	// Reboot the daemon. The writing application never comes back —
	// recovery must happen anyway, before anything is served.
	d2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(target); v != 42 {
		t.Fatalf("target = %d after recovery, want rollback to 42", v)
	}
	st := d2.Stats()
	if st.Recoveries != 1 || st.LogsReplayed != 1 || st.EntriesApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A second reboot must not replay again (log was invalidated).
	d3, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(target); v != 42 {
		t.Fatalf("second boot changed data: %d", v)
	}
	if st := d3.Stats(); st.EntriesApplied != 1 {
		t.Fatalf("second boot replayed entries: %+v", st)
	}
}

func TestRecoveryHonoursWritePermission(t *testing.T) {
	// uid 500 registered the log space, crashed mid-transaction, and
	// then lost write access (pool chmod'ed to 0o400 — the expired-
	// credentials scenario of paper §2.1). Recovery must refuse to
	// apply its entries rather than write through a read-only mode.
	dev, target, _ := setupCrashedTx(t, Creds{UID: 500, GID: 50}, 0o600, 0o400)
	if _, err := New(dev); err != nil {
		t.Fatal(err)
	}
	if v := dev.LoadU64(target); v != 99 {
		t.Fatalf("recovery wrote through a read-only permission: target = %d", v)
	}
}

func TestRecoverySurvivesHostileLog(t *testing.T) {
	// Recovery reads logs their applications wrote. One 8-byte store
	// into an entry's size field — ^uint64(7), whose rounded span wraps
	// to 24 and used to reach make([]byte, size) — must cost that
	// application its own log and nobody a daemon: boot succeeds, says
	// why it skipped the log, and leaves the log's target alone.
	const logHdr, entrySizeOff = 64, 24 // plog's segment header and the entry's size field
	for _, c := range []struct {
		name  string
		spoil func(dev *pmem.Device, head pmem.Addr)
		says  string
	}{
		{"wild entry size", func(dev *pmem.Device, head pmem.Addr) {
			dev.StoreU64(head+logHdr+entrySizeOff, ^uint64(7))
		}, "entry size exceeds its segment"},
		{"wild capacity, used and size", func(dev *pmem.Device, head pmem.Addr) {
			dev.StoreU64(head+40, 1<<40) // capacity
			dev.StoreU64(head+24, 1<<40) // used
			dev.StoreU64(head+logHdr+entrySizeOff, 1<<39)
		}, "entry size exceeds its segment"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, target, head := setupCrashedTx(t, Superuser, 0o600, 0)
			c.spoil(dev, head)
			var out bytes.Buffer
			d2, err := New(dev, WithLogger(log.New(&out, "", 0)))
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			if st := d2.Stats(); st.Recoveries != 1 || st.LogsReplayed != 0 || st.EntriesApplied != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if v := dev.LoadU64(target); v != 99 {
				t.Fatalf("target = %d: the malformed entry was applied", v)
			}
			if !strings.Contains(out.String(), "skipped") || !strings.Contains(out.String(), c.says) {
				t.Fatalf("boot log does not name the skipped log:\n%s", out.String())
			}
		})
	}
	// A chain pointer is application-written too. Led into a victim's
	// log it made recovery scan that log as a tail of the hostile one
	// and rewind its used counter, hiding the victim's parked undo entry.
	t.Run("next into another pool's log", func(t *testing.T) {
		const lOffNext = 32
		dev := pmem.New()
		d, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c := d.SelfConn()
		victim, victimHead := parkCrashedTx(t, dev, c, "victim", 0o600)
		hostile, hostileHead := parkCrashedTx(t, dev, c, "hostile", 0o600)
		c.Close()
		dev.StoreU64(hostileHead+lOffNext, uint64(victimHead))
		dev.Persist(hostileHead+lOffNext, 8)

		d2, err := New(dev)
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		if st := d2.Stats(); st.LogsReplayed != 2 || st.EntriesApplied != 2 {
			t.Fatalf("stats = %+v: each log must be replayed as its own", st)
		}
		if v, h := dev.LoadU64(victim), dev.LoadU64(hostile); v != 42 || h != 42 {
			t.Fatalf("victim = %d, hostile = %d after recovery, want both rolled back to 42", v, h)
		}
		// Each space's bounds vouch for its own log puddle only: not the
		// other pool's log, not a data puddle of its own pool.
		for _, ls := range d2.st.LogSpaces {
			bounds := d2.logBounds(ls)
			_, okV := bounds(victimHead)
			_, okH := bounds(hostileHead)
			if okV == okH {
				t.Fatalf("log space %v: victim log in bounds = %v, hostile log in bounds = %v", ls.UUID, okV, okH)
			}
			if _, ok := bounds(victim); ok {
				t.Fatalf("log space %v vouches for a data puddle", ls.UUID)
			}
			if _, ok := bounds(hostile); ok {
				t.Fatalf("log space %v vouches for a data puddle", ls.UUID)
			}
			if okH {
				l, err := plog.OpenLog(dev, hostileHead, bounds)
				if err != nil || l.Segments() != 1 {
					t.Fatalf("hostile log opened with %d segments (%v), want the chain cut at its own puddle", l.Segments(), err)
				}
			}
		}
	})
}

func TestRecoverNowOp(t *testing.T) {
	_, c := newDaemon(t)
	resp := rt(t, c, &proto.Request{Op: proto.OpRecoverNow})
	if resp.Stats.Recoveries != 1 {
		t.Fatalf("stats = %+v", resp.Stats)
	}
}

func TestStatOp(t *testing.T) {
	_, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "a"})
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "b"})
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.Pools != 2 || st.Puddles != 2 || st.ReservedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeletePool(t *testing.T) {
	_, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "gone"})
	rt(t, c, &proto.Request{Op: proto.OpDeletePool, Name: "gone"})
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "gone"}); err == nil {
		t.Fatal("deleted pool still opens")
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.Pools != 0 || st.Puddles != 0 {
		t.Fatalf("stats after delete = %+v", st)
	}
}

func TestShutdownRejectsFurtherOps(t *testing.T) {
	_, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpShutdown})
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpNop}); err == nil {
		t.Fatal("op after shutdown succeeded")
	} else if !strings.Contains(err.Error(), "shut down") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	d, c := newDaemon(t)
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "src"})
	// Write a recognizable value into the root puddle heap.
	marker := pmem.Addr(pool.Addr) + 8192
	d.Device().StoreU64(marker, 0xfeedface)
	d.Device().Persist(marker, 8)

	exp := rt(t, c, &proto.Request{Op: proto.OpExportPool, Name: "src"})
	if len(exp.Blob) == 0 {
		t.Fatal("empty export blob")
	}
	// Import as a clone. The original still occupies its address, so
	// the root must relocate.
	imp := rt(t, c, &proto.Request{Op: proto.OpImportPool, Name: "clone", Blob: exp.Blob})
	if imp.Session == 0 || imp.Addr == 0 {
		t.Fatalf("ImportPool = %+v", imp)
	}
	if imp.Addr == pool.Addr {
		t.Fatal("clone mapped over the original")
	}
	// The relocated root carries the marker at the same offset.
	if v := d.Device().LoadU64(pmem.Addr(imp.Addr) + 8192); v != 0xfeedface {
		t.Fatalf("relocated content = %#x", v)
	}
	// Finalize and open the clone as a pool.
	done := rt(t, c, &proto.Request{Op: proto.OpImportDone, Session: imp.Session})
	if done.Addr != imp.Addr {
		t.Fatalf("ImportDone root = %#x, want %#x", done.Addr, imp.Addr)
	}
	opened := rt(t, c, &proto.Request{Op: proto.OpOpenPool, Name: "clone"})
	if opened.Addr != imp.Addr {
		t.Fatal("clone pool root mismatch")
	}
	// Original is untouched.
	if v := d.Device().LoadU64(marker); v != 0xfeedface {
		t.Fatal("original damaged by import")
	}
}

func TestImportIntoEmptySpaceKeepsAddress(t *testing.T) {
	// Export from one machine, import into a fresh machine: the old
	// address is free, so the root keeps it (the paper's common case).
	devA := pmem.New()
	dA, err := New(devA)
	if err != nil {
		t.Fatal(err)
	}
	cA := dA.SelfConn()
	defer cA.Close()
	pool := rt(t, cA, &proto.Request{Op: proto.OpCreatePool, Name: "src"})
	exp := rt(t, cA, &proto.Request{Op: proto.OpExportPool, Name: "src"})

	devB := pmem.New()
	dB, err := New(devB)
	if err != nil {
		t.Fatal(err)
	}
	cB := dB.SelfConn()
	defer cB.Close()
	imp := rt(t, cB, &proto.Request{Op: proto.OpImportPool, Name: "src", Blob: exp.Blob})
	if imp.Addr != pool.Addr {
		t.Fatalf("conflict-free import moved the root: %#x -> %#x", pool.Addr, imp.Addr)
	}
}

func TestImportSessionSurvivesRestart(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "src"})
	exp := rt(t, c, &proto.Request{Op: proto.OpExportPool, Name: "src"})
	imp := rt(t, c, &proto.Request{Op: proto.OpImportPool, Name: "clone", Blob: exp.Blob})
	c.Close()
	// Crash (no shutdown). The import session must persist and resume.
	d2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	done := rt(t, c2, &proto.Request{Op: proto.OpImportDone, Session: imp.Session})
	if done.Addr != imp.Addr {
		t.Fatalf("resumed session root = %#x, want %#x", done.Addr, imp.Addr)
	}
}

func TestImportDuplicateNameRejected(t *testing.T) {
	_, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "src"})
	exp := rt(t, c, &proto.Request{Op: proto.OpExportPool, Name: "src"})
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpImportPool, Name: "src", Blob: exp.Blob}); err == nil {
		t.Fatal("import over an existing pool name succeeded")
	}
}

func TestCheckPerm(t *testing.T) {
	pool := &PoolRec{OwnerUID: 100, OwnerGID: 10, Mode: 0o640}
	cases := []struct {
		c     Creds
		write bool
		want  bool
	}{
		{Creds{100, 10}, false, true},
		{Creds{100, 10}, true, true},
		{Creds{200, 10}, false, true},
		{Creds{200, 10}, true, false},
		{Creds{200, 20}, false, false},
		{Superuser, true, true},
	}
	for i, tc := range cases {
		if got := checkPerm(tc.c, pool, tc.write); got != tc.want {
			t.Errorf("case %d: checkPerm(%+v, write=%v) = %v", i, tc.c, tc.write, got)
		}
	}
}

func TestRecoveryWorkerCount(t *testing.T) {
	d, err := New(pmem.New())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.workerCount(100); got < 1 || got > maxRecoveryWorkers {
		t.Fatalf("default workerCount(100) = %d, want 1..%d", got, maxRecoveryWorkers)
	}
	if got := d.workerCount(0); got != 1 {
		t.Fatalf("workerCount(0) = %d, want 1", got)
	}

	d3, err := New(pmem.New(), WithRecoveryWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := d3.workerCount(100); got != 3 {
		t.Fatalf("explicit workerCount(100) = %d, want 3", got)
	}
	if got := d3.workerCount(2); got != 2 {
		t.Fatalf("workerCount clamps to pending spaces: got %d, want 2", got)
	}

	serial, err := New(pmem.New(), WithRecoveryWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.workerCount(100); got != 1 {
		t.Fatalf("serial workerCount(100) = %d, want 1", got)
	}
}

// TestRegLogSpaceShardMismatch: a registration whose declared shard
// count disagrees with the formatted on-media directory is rejected;
// the matching count (and the omitted 0 => 1 default) is accepted.
func TestRegLogSpaceShardMismatch(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "shardreg"})
	lsp := rt(t, c, &proto.Request{
		Op: proto.OpGetNewPuddle, Pool: pool.Pool,
		Size: 8 * pmem.PageSize, Kind: uint64(puddle.KindLogSpace),
	})
	pd, err := puddle.Open(dev, pmem.Addr(lsp.Addr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plog.FormatShardedLogSpace(pd, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpRegLogSpace, UUID: lsp.UUID, Shards: 2}); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	rt(t, c, &proto.Request{Op: proto.OpRegLogSpace, UUID: lsp.UUID, Shards: 4})

	// A 1-shard directory registers with Shards omitted.
	lsp2 := rt(t, c, &proto.Request{
		Op: proto.OpGetNewPuddle, Pool: pool.Pool,
		Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace),
	})
	pd2, err := puddle.Open(dev, pmem.Addr(lsp2.Addr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plog.FormatShardedLogSpace(pd2, 1); err != nil {
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpRegLogSpace, UUID: lsp2.UUID})
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
