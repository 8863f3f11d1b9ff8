package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
)

const (
	relocPoolName = "state"
	// The shipped structure: a linked list of relocNodes 256-byte nodes
	// (id, value, next) — about 8 MiB in 4 puddles.
	relocNodes    = 28000
	relocNodeSize = 256
	nodeID        = 0
	nodeValue     = 8
	nodeNext      = 16
	// The migrated pool: a 512-slot root and cold 256 KiB fillers up to
	// migPuddles puddles (16 MiB), under one sustained writer.
	migSlots   = 512
	migPuddles = 8
	migFiller  = 256 << 10
	// The writer commits exactly migWriterTxs transactions per migration,
	// so the fences behind fences_per_op do not follow how long the move
	// took: one every migWriterGap while the pool moves (all 512 slots
	// are dirtied within a round of pre-copy), up to all but the last
	// migWriterAfter, and those flat out at the peer once it has moved.
	// That keeps the writer sustained through a move of up to 170 ms,
	// three times what one takes on the reference box.
	migWriterTxs   = 2000
	migWriterAfter = 100
	migWriterGap   = 100 * time.Microsecond
	// relocPairs is (ship, migration) pairs per round at --seconds 10:
	// 5 × 5 pairs, three pool moves each, at ≈ 7.6 moves/s on the
	// reference box is about 10 s.
	relocPairs = 5
)

// relocWorkload is the paper's location independence: a home and a peer
// daemon on TCP, each with its own device. A round alternates between
// shipping the state pool to the peer and back beside the original (so
// its addresses conflict and every pointer is rewritten) and
// live-migrating a fresh pool under a writer that follows the move. An op is one pool move: read = Export
// (persists nothing), write = Import (the pool is durable at the
// destination when it returns); migrations count as ops and report
// through the per-layer ledger.
type relocWorkload struct {
	box
	peer   *machine
	peerCl *core.Client
	nodes  int
	pairs  int    // (ship, migration) pairs per round
	sum    uint64 // checksum of the home list, which never changes
	ships  uint64
	migs   int

	// For the ledger: bytes and time of the ships, one report per migration.
	shipBytes uint64
	shipTime  time.Duration
	report    []proto.MigReport
}

func newReloc(e *env) workload {
	return &relocWorkload{box: box{e: e}, nodes: e.scaled(relocNodes, 200), pairs: e.ops(relocPairs, 1)}
}

func registerRelocTypes(cl *core.Client) (node, root ptypes.TypeInfo, err error) {
	if node, err = cl.RegisterType("reloc.node", relocNodeSize, []ptypes.PtrField{{Offset: nodeNext}}); err != nil {
		return
	}
	root, err = cl.RegisterType("reloc.root", 16, []ptypes.PtrField{{Offset: 0}})
	return
}

func (w *relocWorkload) setup() error {
	if err := w.open(pmem.New(), "tcp", relocPoolName); err != nil {
		return err
	}
	var err error
	if w.peer, err = boot(pmem.New(), "tcp", w.e.wire); err != nil {
		return err
	}
	if w.peerCl, err = w.peer.dial(); err != nil {
		return err
	}
	if _, _, err = registerRelocTypes(w.peerCl); err != nil {
		return err
	}
	if _, _, err = registerRelocTypes(w.cl); err != nil {
		return err
	}
	root, err := buildList(w.cl, w.pool, w.nodes, w.e.seed)
	if err != nil {
		return err
	}
	if w.sum, err = listChecksum(w.m.dev, root, w.nodes, 0); err != nil {
		return err
	}
	return w.addScratch()
}

// buildList creates the pool's root and a linked list of n nodes behind
// it; node i carries id i and value seed+i.
func buildList(cl *core.Client, pool *core.Pool, n int, seed int64) (pmem.Addr, error) {
	node, rootTI, err := registerRelocTypes(cl)
	if err != nil {
		return 0, err
	}
	root, err := pool.CreateRoot(rootTI.ID, 16)
	if err != nil {
		return 0, err
	}
	dev := cl.Device()
	link := root // where the next node's address goes: the root's head word first
	for i := 0; i < n; i++ {
		a, err := pool.Malloc(node.ID, relocNodeSize)
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		dev.StoreU64(a+nodeID, uint64(i))
		dev.StoreU64(a+nodeValue, uint64(seed)+uint64(i))
		dev.Persist(a, 16)
		dev.StoreU64(link, uint64(a))
		dev.Persist(link, 8)
		link = a + nodeNext
	}
	return root, nil
}

// listChecksum walks the list at root and folds (id, value-bump) of
// every node; it fails when the list is not exactly the nodes loaded.
func listChecksum(dev *pmem.Device, root pmem.Addr, nodes int, bump uint64) (uint64, error) {
	var sum uint64
	n := 0
	for p := pmem.Addr(dev.LoadU64(root)); p != 0; p = pmem.Addr(dev.LoadU64(p + nodeNext)) {
		if id := dev.LoadU64(p + nodeID); id != uint64(n) {
			return 0, fmt.Errorf("node %d carries id %d: a pointer was not rewritten", n, id)
		}
		sum = sum*31 + dev.LoadU64(p+nodeValue) - bump
		if n++; n > nodes {
			break
		}
	}
	if n != nodes {
		return 0, fmt.Errorf("list has %d nodes, loaded %d", n, nodes)
	}
	return sum, nil
}

// pooled: a round holds fifteen moves, too few for a quantile.
func (w *relocWorkload) pooled() bool { return true }

// tail: a run times 50 exports and 50 imports, and p80 is the highest
// percentile with ten samples beyond it.
func (w *relocWorkload) tail() float64 { return 0.80 }

func (w *relocWorkload) rounds() int { return timedRounds }

func (w *relocWorkload) round(i int) (roundStat, error) {
	sp := w.e.tr.begin(0, fmt.Sprintf("round-%d", i))
	defer w.e.tr.end(sp)
	var rs roundStat
	start := time.Now()
	for n := 0; n < w.pairs; n++ {
		if err := w.ship(sp, &rs); err != nil {
			return rs, fmt.Errorf("ship %d: %w", w.ships, err)
		}
		if err := w.migrate(sp, &rs); err != nil {
			return rs, fmt.Errorf("migration %d: %w", w.migs, err)
		}
	}
	rs.elapsed = time.Since(start)
	w.e.attempted.Add(rs.ops)
	return rs, nil
}

// ship moves the state pool home → peer → home: export, eager import on
// the peer, one transaction updating every node there, export, lazy
// import at home beside the original, full traversal and checksum,
// delete both copies.
func (w *relocWorkload) ship(parent int, rs *roundStat) error {
	w.ships++
	defer func(t0 time.Time) { w.shipTime += time.Since(t0) }(time.Now())
	timed := func(name string, samples *[]int64, fn func() error) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		*samples = append(*samples, int64(t1.Sub(t0)))
		w.e.tr.op(parent, name, w.ships, t0, t1)
		return nil
	}
	var (
		blob     []byte
		out, hom *core.Pool
		err      error
	)
	if err = timed("Pool.Export", &rs.reads, func() error { blob, err = w.pool.Export(); return err }); err != nil {
		return err
	}
	w.shipBytes += uint64(len(blob))
	if err = timed("ImportPool.eager", &rs.writes, func() error {
		out, err = w.peerCl.ImportPool("shipped", blob, false)
		return err
	}); err != nil {
		return err
	}
	root, err := out.Root()
	if err != nil {
		return err
	}
	pdev := w.peer.dev
	if err := w.peerCl.Run(out, func(tx *core.Tx) error {
		for p := pmem.Addr(pdev.LoadU64(root)); p != 0; p = pmem.Addr(pdev.LoadU64(p + nodeNext)) {
			if err := tx.SetU64(p+nodeValue, pdev.LoadU64(p+nodeValue)+1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("update at peer: %w", err)
	}
	if err = timed("Pool.Export", &rs.reads, func() error { blob, err = out.Export(); return err }); err != nil {
		return err
	}
	w.shipBytes += uint64(len(blob))
	// Lazy: only the root puddle is mapped by the call; the traversal
	// faults the rest in and rewrites its pointers, so the pool is whole
	// at home only once the walk is done.
	if err = timed("ImportPool.lazy", &rs.writes, func() error {
		if hom, err = w.cl.ImportPool("returned", blob, true); err != nil {
			return err
		}
		back, err := hom.ImportedRoot()
		if err != nil {
			return err
		}
		sum, err := listChecksum(w.m.dev, back, w.nodes, 1)
		if err == nil && sum != w.sum {
			err = fmt.Errorf("checksum %#x after the round trip, %#x at home", sum, w.sum)
		}
		return err
	}); err != nil {
		return err
	}
	if err := hom.FinalizeImport(); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	if err := hom.Delete(); err != nil {
		return err
	}
	if err := out.Delete(); err != nil {
		return err
	}
	rs.ops += 2
	return nil
}

// migrate moves a fresh 16 MiB pool home → peer under one sustained
// writer, then checks that every acknowledged write is at the peer and
// that exactly one daemon owns the pool.
func (w *relocWorkload) migrate(parent int, rs *roundStat) error {
	w.migs++
	name := fmt.Sprintf("mig-%d", w.migs)
	cl, err := w.m.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.RegisterPeerDevice(w.peer.url, w.peer.dev)
	ti, err := cl.RegisterType("mig.slots", 8, nil)
	if err != nil {
		return err
	}
	pool, err := cl.CreatePool(name, 0o666)
	if err != nil {
		return err
	}
	if _, err := pool.CreateRoot(ti.ID, migSlots*8); err != nil {
		return err
	}
	for len(pool.Puddles()) < migPuddles {
		if _, err := pool.Malloc(ti.ID, migFiller); err != nil {
			return fmt.Errorf("inflate: %w", err)
		}
	}

	// The writer follows the move inside Run; the root is looked up per
	// transaction because the peer may place the pool elsewhere.
	var (
		acked  [migSlots]uint64
		landed atomic.Bool
	)
	done := make(chan error, 1)
	go func() {
		begin := time.Now()
		for seq := uint64(1); seq <= migWriterTxs; seq++ {
			due := begin.Add(time.Duration(seq) * migWriterGap)
			last := seq > migWriterTxs-migWriterAfter
			for !landed.Load() && (last || time.Now().Before(due)) {
				runtime.Gosched()
			}
			slot := seq % migSlots
			err := cl.Run(pool, func(tx *core.Tx) error {
				root, err := pool.Root()
				if err != nil {
					return err
				}
				return tx.SetU64(root+pmem.Addr(slot*8), seq)
			})
			if err != nil {
				done <- fmt.Errorf("writer: %w", err)
				return
			}
			acked[slot] = seq
		}
		done <- nil
	}()
	time.Sleep(20 * time.Millisecond) // dirty a steady working set first

	t0 := time.Now()
	resp, err := w.control(w.m, &proto.Request{Op: proto.OpMigratePool, Name: name, Target: w.peer.url})
	t1 := time.Now()
	landed.Store(true) // also when the move failed: the writer must end
	if werr := <-done; err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	w.e.tr.op(parent, "OpMigratePool", uint64(w.migs), t0, t1)
	w.report = append(w.report, resp.Report)

	// Exactly one owner: home refuses with the typed redirect, the peer
	// serves the pool with every acknowledged write.
	_, err = w.control(w.m, &proto.Request{Op: proto.OpOpenPool, Name: name})
	if target, moved := proto.PoolMovedTarget(err); !moved || target != w.peer.url {
		return fmt.Errorf("home still answers for %s: %v", name, err)
	}
	moved, err := w.peerCl.OpenPool(name)
	if err != nil {
		return fmt.Errorf("peer does not own %s: %w", name, err)
	}
	root, err := moved.Root()
	if err != nil {
		return err
	}
	for slot, want := range acked {
		if got := w.peer.dev.LoadU64(root + pmem.Addr(slot*8)); got != want {
			return fmt.Errorf("%s slot %d: peer has %d, acknowledged %d", name, slot, got, want)
		}
	}
	w.e.attempted.Add(migSlots)
	if err := moved.Delete(); err != nil {
		return err
	}
	rs.ops++
	return nil
}

// control issues one operator request on its own superuser connection.
func (w *relocWorkload) control(m *machine, req *proto.Request) (*proto.Response, error) {
	nc, err := net.Dial("tcp", m.url[len("tcp://"):])
	if err != nil {
		return nil, err
	}
	c := proto.NewConnHello(nc, proto.Hello{})
	defer c.Close()
	return c.RoundTrip(req)
}

// verify: the home list is exactly what was loaded.
func (w *relocWorkload) verify() error {
	root, err := w.pool.Root()
	if err != nil {
		return err
	}
	sum, err := listChecksum(w.m.dev, root, w.nodes, 0)
	if err != nil {
		return err
	}
	if sum != w.sum {
		return fmt.Errorf("home checksum moved: %#x, loaded %#x", sum, w.sum)
	}
	w.e.attempted.Add(uint64(w.nodes))
	return nil
}

func (w *relocWorkload) crashRecover() (time.Duration, error) { return w.crash() }

func (w *relocWorkload) finish() error {
	if err := w.peer.d.CheckConsistency(); err != nil {
		return fmt.Errorf("peer registry: %w", err)
	}
	if got, want := w.pool.LiveObjects(), uint64(w.nodes)+2; got != want {
		return fmt.Errorf("home pool holds %d live objects, want %d", got, want)
	}
	return w.checkImage()
}

func (w *relocWorkload) close() {
	if w.peerCl != nil {
		w.peerCl.Close()
	}
	if w.peer != nil {
		w.peer.stop()
	}
	w.box.close()
}

func (w *relocWorkload) devices() []*pmem.Device {
	return []*pmem.Device{w.m.dev, w.peer.dev}
}

func (w *relocWorkload) userBytes() uint64 { return uint64(w.nodes) * relocNodeSize }

// layerFigures reports what only this workload exercises: the ship rate
// and the daemon's own account of every migration.
func (w *relocWorkload) layerFigures(l *ledger) {
	if w.shipTime > 0 {
		l.set("reloc.ship_mb_per_s", float64(w.shipBytes)/(1<<20)/w.shipTime.Seconds(), int(w.ships))
	}
	var rounds, snap, delta, final, pause, rate []float64
	for _, r := range w.report {
		total := float64(r.TotalNs) / 1e9
		rounds = append(rounds, float64(r.Rounds))
		snap = append(snap, float64(r.SnapshotBytes)/(1<<20)/total)
		delta = append(delta, float64(r.DeltaBytes)/1024)
		final = append(final, float64(r.FinalBytes)/1024)
		pause = append(pause, float64(r.PauseNs)/1e6)
		rate = append(rate, float64(r.SnapshotBytes+r.DeltaBytes)/(1<<20)/total)
	}
	n := len(w.report)
	l.set("daemon.migrate_rounds", median(rounds), n)
	l.set("daemon.migrate_snapshot_mb_per_s", median(snap), n)
	l.set("daemon.migrate_delta_kb", median(delta), n)
	l.set("daemon.migrate_final_kb", median(final), n)
	l.set("daemon.migrate_pause_ms", median(pause), n)
	l.set("daemon.migrate_mb_per_s", median(rate), n)
}
