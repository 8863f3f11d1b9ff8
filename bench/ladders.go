package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/reloc"
	"puddles/internal/structures"
)

// The ledger is the second instrument of a traced run. After the timed
// rounds it measures every layer from outside, one layer down at a
// time, on the machine the workload leaves behind (its journal fill,
// its registry size, its device mode), with the fence latency still
// armed. A rung is a loop over one public function; a layer's self cost
// is its rung minus the rung below (kvstore.self_put_ns = Put − the
// 100-byte transaction it wraps).
type ledger struct {
	e      *env
	w      workload
	rep    *report
	parent int
	cl     *core.Client // the ledger's own dialed client on the home machine

	echoNopNs float64 // median Nop round trip of the bare codec echo
}

func (l *ledger) set(name string, v float64, n int) {
	l.rep.set(name, l.rep.metrics[name].unit, v, n)
}

// setPer records total/n with n as the sample count.
func (l *ledger) setPer(name string, total float64, n int) { l.set(name, total/float64(n), n) }

func (l *ledger) get(name string) float64 { return l.rep.metrics[name].v }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// n scales a rung's iteration count for the smoke test.
func (l *ledger) n(full int) int { return l.e.scaled(full, 16) }

// rung times n calls of fn under one span and returns ns per call.
func (l *ledger) rung(name string, n int, fn func(i int) error) (float64, error) {
	sp := l.e.tr.begin(l.parent, name)
	defer l.e.tr.end(sp)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// fromRounds fills in the figures that are counted while the workload
// itself runs: counter deltas across the timed rounds.
func (l *ledger) fromRounds(m *measured) {
	var (
		ops          uint64
		dev          pmem.Stats
		ckpts, ckptB uint64
		pauseMax     uint64
		stall        int64
		rates, gain  []float64
	)
	for i, rs := range m.rounds {
		ops += rs.ops
		a, b := m.after[i], m.before[i]
		dev.Flushes += a.dev.Flushes - b.dev.Flushes
		dev.FlushRequests += a.dev.FlushRequests - b.dev.FlushRequests
		dev.CoalescedFlushes += a.dev.CoalescedFlushes - b.dev.CoalescedFlushes
		dev.LeaseRetries += a.dev.LeaseRetries - b.dev.LeaseRetries
		dev.OptimisticReads += a.dev.OptimisticReads - b.dev.OptimisticReads
		dev.OptimisticRetries += a.dev.OptimisticRetries - b.dev.OptimisticRetries
		dev.LatchFallbacks += a.dev.LatchFallbacks - b.dev.LatchFallbacks
		dev.CacheHits += a.dev.CacheHits - b.dev.CacheHits
		dev.CacheMisses += a.dev.CacheMisses - b.dev.CacheMisses
		dev.CacheRefills += a.dev.CacheRefills - b.dev.CacheRefills
		dev.SlabDonations += a.dev.SlabDonations - b.dev.SlabDonations
		ckpts += a.d.Checkpoints - b.d.Checkpoints
		ckptB += a.d.CheckpointBytes - b.d.CheckpointBytes
		if a.d.CkptPauseMaxNs > pauseMax {
			pauseMax = a.d.CkptPauseMaxNs
		}
		for _, s := range [][]int64{rs.reads, rs.writes} {
			for _, ns := range s {
				if ns > stall {
					stall = ns
				}
			}
		}
		rates = append(rates, float64(rs.ops)/rs.elapsed.Seconds())
	}
	// Every traced round is set against the untraced round beside it
	// (rounds go off, on, on, off), so a workload whose image ages puts
	// the older round on either side in turn.
	for i, on := range m.traced {
		j := i - 1
		if i%4 == 2 {
			j = i + 1
		}
		if on && j < len(rates) {
			gain = append(gain, rates[i]/rates[j])
		}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n := int(ops)
	l.set("pmem.flushes_per_op", ratio(dev.Flushes, ops), n)
	l.set("pmem.coalesced_share", ratio(dev.CoalescedFlushes, dev.FlushRequests), int(dev.FlushRequests))
	l.set("core.lease_retry_ratio", ratio(dev.LeaseRetries, ops), n)
	l.set("alloc.cache_hit_ratio", ratio(dev.CacheHits, dev.CacheHits+dev.CacheMisses), int(dev.CacheHits+dev.CacheMisses))
	l.set("alloc.cache_refills_per_kop", 1000*ratio(dev.CacheRefills, ops), n)
	l.set("alloc.slab_donations_per_kop", 1000*ratio(dev.SlabDonations, ops), n)
	l.set("kvstore.optimistic_retry_ratio", ratio(dev.OptimisticRetries, dev.OptimisticReads), int(dev.OptimisticReads))
	l.set("kvstore.latch_fallbacks", float64(dev.LatchFallbacks), int(dev.OptimisticReads))
	l.set("daemon.ckpt_cycles", float64(ckpts), len(m.rounds))
	l.set("daemon.ckpt_bytes_per_cycle", ratio(ckptB, ckpts), int(ckpts))
	l.set("daemon.ckpt_pause_max_us", float64(pauseMax)/1e3, int(ckpts))
	l.set("daemon.stall_max_ms", float64(stall)/1e6, n)

	l.set("daemon.logs_replayed", median(m.replayed), len(m.replayed))
	l.set("daemon.entries_applied", median(m.applied), len(m.applied))
	if e := median(m.applied); e > 0 {
		l.set("daemon.recovery_us_per_entry", median(m.recovery)*1000/e, len(m.recovery))
	}
	st := l.w.home().d.Stats()
	l.set("daemon.puddles_after", float64(st.Puddles), 1)
	l.set("daemon.logspaces_after", float64(st.LogSpaces), 1)
	var live, free uint64
	for _, p := range l.w.pools() {
		live += p.LiveObjects()
		for _, h := range p.Heaps() {
			free += h.FreeBytes()
		}
	}
	l.set("alloc.live_objects_after", float64(live), 1)
	l.set("alloc.free_bytes_after", float64(free), 1)
	if len(gain) > 0 {
		l.set("trace.overhead_share", 1-median(gain), len(gain))
	}
	if x, ok := l.w.(interface{ layerFigures(*ledger) }); ok {
		x.layerFigures(l)
	}
}

// ladders runs the rungs. The order matters only at the ends: the
// fence-free replay needs the workload still attached, and the clean
// boot shuts the home machine down.
func (l *ledger) ladders() error {
	l.parent = l.e.tr.begin(0, "ladders")
	defer l.e.tr.end(l.parent)
	if err := l.fenceFree(); err != nil {
		return err
	}
	var err error
	if l.cl, err = l.w.home().dial(); err != nil {
		return err
	}
	defer l.cl.Close()
	for _, step := range []func() error{
		l.pmemAndPlog, l.allocator, l.txRuntime, l.kv, l.shadow, l.relocation, l.codec, l.dispatch, l.cleanBoot,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// fenceFree replays one more round with fences free. The stall share is
// measured, not computed from the nominal 200 ns, because the
// yield-spin that models the drain overshoots it.
func (l *ledger) fenceFree() error {
	sp := l.e.tr.begin(l.parent, "fence-free replay")
	l.e.tr = nil
	defer func() {
		l.e.tr = l.e.tracer
		l.e.tr.end(sp)
	}()
	armed, err := l.w.round(l.w.rounds())
	if err != nil {
		return err
	}
	for _, dev := range l.w.devices() {
		dev.SetFenceLatency(0)
	}
	free, err := l.w.round(l.w.rounds() + 1)
	for _, dev := range l.w.devices() {
		dev.SetFenceLatency(fenceLatency)
	}
	if err != nil {
		return err
	}
	a := float64(armed.ops) / armed.elapsed.Seconds()
	f := float64(free.ops) / free.elapsed.Seconds()
	l.set("pmem.fence_stall_share", 1-a/f, int(armed.ops+free.ops))
	return nil
}

// scratch creates a ledger pool with one zeroed object of size bytes.
func (l *ledger) scratch(name string, size uint32) (*core.Pool, pmem.Addr, error) {
	pool, err := l.cl.CreatePool(name, 0)
	if err != nil {
		return nil, 0, err
	}
	a, err := pool.Malloc(ptypes.Untyped, size)
	return pool, a, err
}

func (l *ledger) pmemAndPlog() error {
	n := l.n(20000)
	dev := l.w.home().dev
	_, a, err := l.scratch("ledger-pmem", 512<<10)
	if err != nil {
		return err
	}
	buf := make([]byte, 100)
	ns, _ := l.rung("pmem.Persist", n, func(i int) error {
		dev.StoreU64(a, uint64(i))
		dev.Persist(a, 64)
		return nil
	})
	l.set("pmem.persist64_ns", ns, n)
	ns, _ = l.rung("pmem.Store", n, func(i int) error { dev.Store(a+pmem.Addr(i%64)*128, buf); return nil })
	l.set("pmem.store100_ns", ns, n)
	var sink uint64
	ns, _ = l.rung("pmem.LoadU64", n, func(i int) error { sink += dev.LoadU64(a + pmem.Addr(i%1024)*8); return nil })
	l.set("pmem.load8_ns", ns, n)
	_ = sink

	// plog: a 1024-entry log of 100-byte undo entries over the upper
	// half of the object, aimed at the lower half.
	const entries = 1024
	reps := l.n(8)
	region := pmem.Range{Start: a + 256<<10, End: a + 512<<10}
	lg, err := plog.FormatLog(dev, region)
	if err != nil {
		return err
	}
	var appendNs, replayNs, fences float64
	for r := 0; r < reps; r++ {
		f0 := dev.Stats().Fences
		ns, err := l.rung("plog.Append", entries, func(i int) error {
			return lg.Append(plog.Entry{
				Addr: a + pmem.Addr(i%1024)*128, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: buf,
			}, nil)
		})
		if err != nil {
			return err
		}
		appendNs += ns
		fences += float64(dev.Stats().Fences-f0) / entries
		lg.SetRange(plog.RangeUndoOnly[0], plog.RangeUndoOnly[1])
		ns, _ = l.rung("plog.Replay", 1, func(int) error {
			if got := lg.Replay(true, nil); got != entries {
				return fmt.Errorf("replayed %d of %d entries", got, entries)
			}
			return nil
		})
		replayNs += ns / entries
	}
	l.set("plog.append100_ns", appendNs/float64(reps), entries*reps)
	l.set("plog.append_fences", fences/float64(reps), entries*reps)
	l.set("plog.replay_us_per_entry", replayNs/float64(reps)/1e3, entries*reps)
	resets := l.n(2000)
	var resetNs time.Duration
	for i := 0; i < resets; i++ {
		if err := lg.Append(plog.Entry{Addr: a, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: buf[:8]}, nil); err != nil {
			return err
		}
		t0 := time.Now()
		lg.Reset()
		resetNs += time.Since(t0)
	}
	l.setPer("plog.reset_ns", float64(resetNs), resets)
	return nil
}

func (l *ledger) allocator() error {
	n := l.n(4000)
	pool, _, err := l.scratch("ledger-alloc", 8)
	if err != nil {
		return err
	}
	h := pool.Heaps()[0]
	m := alloc.Direct{Dev: l.w.home().dev}
	objs := make([]pmem.Addr, n)
	h.Lease()
	defer h.Unlease()
	ns, err := l.rung("Heap.Alloc", n, func(i int) error {
		var err error
		objs[i], err = h.Alloc(m, ptypes.Untyped, 128)
		return err
	})
	if err != nil {
		return err
	}
	l.set("alloc.heap_alloc_ns", ns, n)
	ns, err = l.rung("Heap.Free", n, func(i int) error { return h.Free(m, objs[i]) })
	l.set("alloc.heap_free_ns", ns, n)
	return err
}

func (l *ledger) txRuntime() error {
	n := l.n(5000)
	dev := l.w.home().dev
	pool, a, err := l.scratch("ledger-tx", 8<<10)
	if err != nil {
		return err
	}
	run := func(name string, fn func(tx *core.Tx, i int) error) (float64, error) {
		return l.rung(name, n, func(i int) error {
			return l.cl.Run(pool, func(tx *core.Tx) error { return fn(tx, i) })
		})
	}
	ns, err := run("core.Run(empty)", func(*core.Tx, int) error { return nil })
	if err != nil {
		return err
	}
	l.set("core.tx_empty_ns", ns, n)
	if ns, err = run("core.Run(set8)", func(tx *core.Tx, i int) error { return tx.SetU64(a, uint64(i)) }); err != nil {
		return err
	}
	l.set("core.tx_set8_ns", ns, n)
	buf := make([]byte, 4096)
	s0, m0 := dev.Stats(), mallocs()
	if ns, err = run("core.Run(set100)", func(tx *core.Tx, i int) error { return tx.Set(a, buf[:100]) }); err != nil {
		return err
	}
	s1, m1 := dev.Stats(), mallocs()
	l.set("core.tx_set100_ns", ns, n)
	l.setPer("core.tx_fences.set100", float64(s1.Fences-s0.Fences), n)
	l.setPer("core.tx_flushes.set100", float64(s1.Flushes-s0.Flushes), n)
	l.setPer("core.tx_allocs.set100", float64(m1-m0), n)
	if ns, err = run("core.Run(set4k)", func(tx *core.Tx, i int) error { return tx.Set(a, buf) }); err != nil {
		return err
	}
	l.set("core.tx_set4k_ns", ns, n)
	// One transaction allocates 128 bytes, the next frees them.
	var obj pmem.Addr
	ns, err = l.rung("core.Run(alloc,free)", n, func(int) error {
		if err := l.cl.Run(pool, func(tx *core.Tx) (err error) {
			obj, err = tx.Alloc(ptypes.Untyped, 128)
			return err
		}); err != nil {
			return err
		}
		return l.cl.Run(pool, func(tx *core.Tx) error { return tx.Free(obj) })
	})
	if err != nil {
		return err
	}
	l.set("core.tx_alloc_free_ns", ns, n)
	opens := l.n(200)
	ns, err = l.rung("Client.OpenPool", opens, func(int) error {
		_, err := l.cl.OpenPool("ledger-tx")
		return err
	})
	l.set("core.open_pool_us", ns/1e3, opens)
	return err
}

func (l *ledger) kv() error {
	n := l.n(4000)
	pool, err := l.cl.CreatePool("ledger-kv", 0)
	if err != nil {
		return err
	}
	s, err := kvstore.New(puddleslib.Wrap(l.cl, pool), kvstore.Options{Buckets: 1 << 12, ValueSize: kvValueSize, LatchStripes: 8})
	if err != nil {
		return err
	}
	v := make([]byte, kvValueSize)
	for _, r := range []struct {
		metric, span string
		fn           func(i int) error
	}{
		{"kvstore.put_insert_ns", "kvstore.Put(insert)", func(i int) error { return s.Put(uint64(i), v) }},
		{"kvstore.get_ns", "kvstore.Get", func(i int) error { return s.Get(uint64(i), v) }},
		{"kvstore.put_update_ns", "kvstore.Put(update)", func(i int) error { return s.Put(uint64(i), v) }},
		{"kvstore.delete_ns", "kvstore.Delete", func(i int) error { return s.Delete(uint64(i)) }},
	} {
		ns, err := l.rung(r.span, n, r.fn)
		if err != nil {
			return err
		}
		l.set(r.metric, ns, n)
	}
	l.set("kvstore.self_put_ns", l.get("kvstore.put_update_ns")-l.get("core.tx_set100_ns"), n)
	return nil
}

func (l *ledger) shadow() error {
	n := l.n(4000)
	dev := l.w.home().dev
	pool, err := l.cl.CreatePool("ledger-shadow", 0)
	if err != nil {
		return err
	}
	m, err := structures.NewShadowMap(l.cl, pool)
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		if err := m.Put(uint64(k), 0); err != nil {
			return err
		}
	}
	live0, f0 := pool.LiveObjects(), dev.Stats().Flushes
	ns, err := l.rung("ShadowMap.Put", n, func(i int) error { return m.Put(uint64(i), uint64(i)) })
	if err != nil {
		return err
	}
	l.set("structures.shadow_put_ns", ns, n)
	l.setPer("structures.shadow_flushes_per_put", float64(dev.Stats().Flushes-f0), n)
	l.setPer("structures.shadow_pm_allocs_per_put", float64(pool.LiveObjects()-live0), n)
	ns, err = l.rung("ShadowMap.Get", n, func(i int) error {
		if v, ok := m.Get(uint64(i)); !ok || v != uint64(i) {
			return fmt.Errorf("key %d reads %d", i, v)
		}
		return nil
	})
	l.set("structures.shadow_get_ns", ns, n)
	return err
}

// relocation exports a 1 MiB pointer-rich pool, decodes and re-encodes
// the container, and imports it beside the original so every pointer is
// rewritten.
func (l *ledger) relocation() error {
	nodes := l.n(4000)
	if _, _, err := registerRelocTypes(l.cl); err != nil {
		return err
	}
	pool, err := l.cl.CreatePool("ledger-list", 0)
	if err != nil {
		return err
	}
	if _, err := buildList(l.cl, pool, nodes, l.e.seed); err != nil {
		return err
	}
	var poolBytes uint64
	for _, pd := range pool.Puddles() {
		poolBytes += pd.Size()
	}
	mb := float64(poolBytes) / (1 << 20)
	var blob []byte
	ns, err := l.rung("Pool.Export", 1, func(int) error { blob, err = pool.Export(); return err })
	if err != nil {
		return err
	}
	l.set("core.export_ms_per_mb", ns/1e6/mb, 1)
	l.set("reloc.blob_bytes_per_pool_byte", float64(len(blob))/float64(poolBytes), 1)
	reps := l.n(8)
	var c *reloc.Container
	if ns, err = l.rung("reloc.DecodeBytes", reps, func(int) error { c, err = reloc.DecodeBytes(blob); return err }); err != nil {
		return err
	}
	l.set("reloc.decode_mb_per_s", mb/(ns/1e9), reps)
	if ns, err = l.rung("Container.EncodeBytes", reps, func(int) error { _, err := c.EncodeBytes(); return err }); err != nil {
		return err
	}
	l.set("reloc.encode_mb_per_s", mb/(ns/1e9), reps)
	// Lazy import beside the original: the walk faults every puddle in
	// and rewrites its pointers; the statistics exist until finalization.
	var copyPool *core.Pool
	if ns, err = l.rung("Client.ImportPool", 1, func(int) error {
		if copyPool, err = l.cl.ImportPool("ledger-list-copy", blob, true); err != nil {
			return err
		}
		root, err := copyPool.ImportedRoot()
		if err != nil {
			return err
		}
		_, err = listChecksum(l.w.home().dev, root, nodes, 0)
		return err
	}); err != nil {
		return err
	}
	l.set("core.import_ms_per_mb", ns/1e6/mb, 1)
	st, err := copyPool.ImportStats()
	if err != nil {
		return err
	}
	l.set("core.rewrite_ptrs_per_s", float64(st.PtrsRewrote)/(ns/1e9), st.PtrsRewrote)
	if err := copyPool.FinalizeImport(); err != nil {
		return err
	}
	base := pool.RootPuddle().Range()
	am := reloc.NewAddrMap([]reloc.Move{{Old: base, New: base.Start + 1<<32}})
	n := l.n(200000)
	var sink pmem.Addr
	ns, _ = l.rung("AddrMap.Translate", n, func(i int) error {
		t, _ := am.Translate(base.Start + pmem.Addr(i))
		sink += t
		return nil
	})
	_ = sink
	l.set("reloc.translate_ns", ns, n)
	return nil
}

// codec measures the wire layer alone (Conn ↔ ServerConn echo of
// grant-shaped frames over net.Pipe), the handshake on the workload's
// own socket, and bytes and system calls per request through the
// counting listener.
func (l *ledger) codec() error {
	n := l.n(5000)
	cEnd, sEnd := net.Pipe()
	sc := proto.NewServerConn(sEnd)
	served := make(chan struct{})
	go func() {
		defer close(served)
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			if sc.Send(&proto.Response{ID: req.ID, UUID: req.Pool, Addr: 1 << 30, Size: req.Size, Writable: true}) != nil {
				return
			}
		}
	}()
	conn := proto.NewConnHello(cEnd, proto.Hello{})
	grant := &proto.Request{Op: proto.OpGetNewPuddle, Size: ctlGrant}
	m0 := mallocs()
	ns, err := l.rung("proto echo", n, func(int) error { _, err := conn.RoundTrip(grant); return err })
	m1 := mallocs()
	if err == nil {
		// The same echo with Nop frames is what the session rung
		// subtracts: SelfConn is this pipe plus the daemon's session layer.
		l.echoNopNs, err = rtt(conn, n)
	}
	conn.Close()
	<-served
	if err != nil {
		return err
	}
	l.set("proto.codec_ns_per_req", ns, n)
	l.setPer("proto.allocs_per_req", float64(m1-m0), n)

	shakes := l.n(100)
	home := l.w.home()
	var took []float64
	for i := 0; i < shakes; i++ {
		t0 := time.Now()
		cl, err := home.dial()
		if err != nil {
			return err
		}
		took = append(took, float64(time.Since(t0))/1e3)
		cl.Close()
	}
	l.set("proto.handshake_us", median(took), shakes)

	pool, err := l.cl.CreatePool("ledger-wire", 0)
	if err != nil {
		return err
	}
	calls0, bytes0 := l.e.wire.calls.Load(), l.e.wire.bytes.Load()
	trips := l.n(1000)
	for i := 0; i < trips; i++ {
		resp, err := l.cl.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.UUID, Size: ctlGrant})
		if err != nil {
			return err
		}
		if _, err := l.cl.RoundTrip(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID}); err != nil {
			return err
		}
		if err := l.cl.Nop(); err != nil {
			return err
		}
	}
	l.setPer("proto.wire_bytes_per_req", float64(l.e.wire.bytes.Load()-bytes0), 3*trips)
	l.setPer("proto.syscalls_per_req", float64(l.e.wire.calls.Load()-calls0), 3*trips)
	return nil
}

// rtt is the median Nop round trip on conn, in ns.
func rtt(conn *proto.Conn, n int) (float64, error) {
	took := make([]float64, 0, n)
	nop := &proto.Request{Op: proto.OpNop}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := conn.RoundTrip(nop); err != nil {
			return 0, err
		}
		took = append(took, float64(time.Since(t0)))
	}
	return median(took), nil
}

// dispatch walks the daemon from the inside out: direct Dispatch calls,
// then the session layer (SelfConn round trip minus dispatch and
// codec), then each socket (socket round trip minus SelfConn's), and a
// forced checkpoint at a known journal fill.
func (l *ledger) dispatch() error {
	home := l.w.home()
	d, dev := home.d, home.dev
	su := daemon.Creds{}
	pool, err := l.cl.CreatePool("ledger-daemon", 0)
	if err != nil {
		return err
	}
	call := func(req *proto.Request) (*proto.Response, error) {
		resp := d.Dispatch(su, req)
		if resp.Err != "" {
			return nil, fmt.Errorf("%v: %s", req.Op, resp.Err)
		}
		return resp, nil
	}
	n := l.n(5000)
	ns, err := l.rung("Dispatch(nop)", n, func(int) error { _, err := call(&proto.Request{Op: proto.OpNop}); return err })
	if err != nil {
		return err
	}
	l.set("daemon.dispatch_us.nop", ns/1e3, n)
	ns, err = l.rung("Dispatch(open)", n, func(int) error {
		_, err := call(&proto.Request{Op: proto.OpOpenPool, Name: "ledger-daemon"})
		return err
	})
	if err != nil {
		return err
	}
	l.set("daemon.dispatch_us.open", ns/1e3, n)

	// Start from an empty journal, so that the checkpoint timed below
	// streams what exactly 2 × pairs journaled requests left behind.
	if _, err := d.CompactNow(); err != nil {
		return err
	}
	pairs := l.n(1000)
	var grantNs, freeNs time.Duration
	j0, f0, m0 := d.Stats().JournalBytes, dev.Stats().Fences, mallocs()
	sp := l.e.tr.begin(l.parent, "Dispatch(grant,free)")
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		resp, err := call(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.UUID, Size: ctlGrant})
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, err = call(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID})
		if err != nil {
			return err
		}
		grantNs += t1.Sub(t0)
		freeNs += time.Since(t1)
	}
	l.e.tr.end(sp)
	j1, f1, m1 := d.Stats().JournalBytes, dev.Stats().Fences, mallocs()
	l.setPer("daemon.dispatch_us.grant", float64(grantNs)/1e3, pairs)
	l.setPer("daemon.dispatch_us.free", float64(freeNs)/1e3, pairs)
	l.setPer("daemon.allocs_per_req", float64(m1-m0), 2*pairs)
	l.setPer("daemon.fences_per_write", float64(f1-f0), 2*pairs)
	if j1 > j0 { // no checkpoint cycle swapped the journal underneath
		l.setPer("daemon.journal_bytes_per_write", float64(j1-j0), 2*pairs)
	}
	ns, err = l.rung("CompactNow", 1, func(int) error { _, err := d.CompactNow(); return err })
	if err != nil {
		return err
	}
	l.set("daemon.ckpt_stream_ms", ns/1e6, 1)

	trips := l.n(3000)
	self := d.SelfConn()
	selfNs, err := rtt(self, trips)
	self.Close()
	if err != nil {
		return err
	}
	l.set("daemon.session_us", (selfNs-l.echoNopNs)/1e3-l.get("daemon.dispatch_us.nop"), trips)
	for _, network := range []string{"unix", "tcp"} {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = filepath.Join(outDir, fmt.Sprintf("%d-ledger.sock", os.Getpid()))
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		go d.Serve(ln) // the daemon closes it when it stops
		nc, err := net.Dial(network, ln.Addr().String())
		if err != nil {
			return err
		}
		conn := proto.NewConnHello(nc, proto.Hello{UID: uint32(os.Getuid()), GID: uint32(os.Getgid())})
		sockNs, err := rtt(conn, trips)
		conn.Close()
		if err != nil {
			return err
		}
		l.set("daemon.socket_us."+network, (sockNs-selfNs)/1e3, trips)
	}
	return nil
}

// cleanBoot shuts the home machine down cleanly and times a boot of the
// same image: recovery_ms minus this is what replay cost.
func (l *ledger) cleanBoot() error {
	home := l.w.home()
	home.stop()
	boots := 5
	var took []float64
	for i := 0; i < boots; i++ {
		t0 := time.Now()
		d, err := daemon.New(home.dev)
		if err != nil {
			return fmt.Errorf("clean boot: %w", err)
		}
		took = append(took, float64(time.Since(t0))/1e6)
		d.Shutdown()
	}
	l.set("daemon.clean_boot_ms", median(took), boots)
	return nil
}
