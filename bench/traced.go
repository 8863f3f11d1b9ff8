package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"

	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// perLayer is printed by every workload on a traced run, never gated on
// time. BENCHMARK.json carries the same names; TestManifestMatches keeps
// them equal. A layer is a module; a figure that a workload gives its
// layer no reason to produce is 0 there (no migration: no migrate
// rounds), which is the "no change" prediction made checkable.
//
// What each figure should move (metric → end-to-end metric @ workload):
var perLayer = []metricDef{
	// proto: the gob codec and the handshake → ops_per_s, read_p50_us,
	// write_p50_us @ ctl-churn; setup_s @ ctl-churn (handshake).
	{name: "proto.codec_ns_per_req", unit: "ns"},
	{name: "proto.allocs_per_req", unit: "count"},
	{name: "proto.wire_bytes_per_req", unit: "B"},
	{name: "proto.syscalls_per_req", unit: "count"},
	{name: "proto.handshake_us", unit: "us"},
	// daemon dispatch, session, socket, journal → write_p50_us,
	// write_p99_us, ops_per_s @ ctl-churn. TCP is a layer figure only.
	{name: "daemon.dispatch_us.nop", unit: "us"},
	{name: "daemon.dispatch_us.grant", unit: "us"},
	{name: "daemon.dispatch_us.free", unit: "us"},
	{name: "daemon.dispatch_us.open", unit: "us"},
	{name: "daemon.session_us", unit: "us"},
	{name: "daemon.socket_us.unix", unit: "us"},
	{name: "daemon.socket_us.tcp", unit: "us"},
	{name: "daemon.allocs_per_req", unit: "count"},
	{name: "daemon.fences_per_write", unit: "count"},
	{name: "daemon.journal_bytes_per_write", unit: "B"},
	// daemon checkpoints → ops_per_s, write_p99_us @ ctl-churn (the
	// stream runs on the triggering request's worker); recovery_ms
	// everywhere (image to load).
	{name: "daemon.ckpt_cycles", unit: "count"},
	{name: "daemon.ckpt_stream_ms", unit: "ms"},
	{name: "daemon.ckpt_bytes_per_cycle", unit: "B"},
	{name: "daemon.ckpt_pause_max_us", unit: "us"},
	{name: "daemon.stall_max_ms", unit: "ms"},
	// daemon recovery → recovery_ms (recovery − clean boot = replay).
	{name: "daemon.clean_boot_ms", unit: "ms"},
	{name: "daemon.logs_replayed", unit: "count"},
	{name: "daemon.entries_applied", unit: "count"},
	{name: "daemon.recovery_us_per_entry", unit: "us"},
	{name: "daemon.puddles_after", unit: "count"},
	{name: "daemon.logspaces_after", unit: "count"},
	// daemon migration → ops_per_s @ relocate.
	{name: "daemon.migrate_rounds", unit: "count"},
	{name: "daemon.migrate_snapshot_mb_per_s", unit: "MB/s"},
	{name: "daemon.migrate_delta_kb", unit: "KB"},
	{name: "daemon.migrate_final_kb", unit: "KB"},
	{name: "daemon.migrate_pause_ms", unit: "ms"},
	{name: "daemon.migrate_mb_per_s", unit: "MB/s"},
	// core tx runtime → write_p50_us, write_p99_us, ops_per_s,
	// fences_per_op @ kv-update; little @ kv-read.
	{name: "core.tx_empty_ns", unit: "ns"},
	{name: "core.tx_set8_ns", unit: "ns"},
	{name: "core.tx_set100_ns", unit: "ns"},
	{name: "core.tx_set4k_ns", unit: "ns"},
	{name: "core.tx_fences.set100", unit: "count"},
	{name: "core.tx_flushes.set100", unit: "count"},
	{name: "core.tx_allocs.set100", unit: "count"},
	{name: "core.lease_retry_ratio", unit: "ratio"},
	// core alloc/open/import → write_p50_us @ shadow-update (alloc),
	// setup_s @ ctl-churn (open), ops_per_s @ relocate (the rest).
	{name: "core.tx_alloc_free_ns", unit: "ns"},
	{name: "core.open_pool_us", unit: "us"},
	{name: "core.export_ms_per_mb", unit: "ms/MB"},
	{name: "core.import_ms_per_mb", unit: "ms/MB"},
	{name: "core.rewrite_ptrs_per_s", unit: "1/s"},
	// alloc → ops_per_s, write_p50_us, space_amp @ shadow-update and
	// crash-recover (inserts); no change @ kv-update.
	{name: "alloc.heap_alloc_ns", unit: "ns"},
	{name: "alloc.heap_free_ns", unit: "ns"},
	{name: "alloc.cache_hit_ratio", unit: "ratio"},
	{name: "alloc.cache_refills_per_kop", unit: "count"},
	{name: "alloc.slab_donations_per_kop", unit: "count"},
	{name: "alloc.live_objects_after", unit: "count"},
	{name: "alloc.free_bytes_after", unit: "B"},
	// plog → write_p50_us, fences_per_op @ kv-update; recovery_ms @
	// crash-recover (replay).
	{name: "plog.append100_ns", unit: "ns"},
	{name: "plog.append_fences", unit: "count"},
	{name: "plog.reset_ns", unit: "ns"},
	{name: "plog.replay_us_per_entry", unit: "us"},
	// pmem → every write_* and ops_per_s; fence_stall_share says per
	// workload whether a fence cut or a CPU cut can show.
	{name: "pmem.flushes_per_op", unit: "count"},
	{name: "pmem.coalesced_share", unit: "ratio"},
	{name: "pmem.fence_stall_share", unit: "ratio"},
	{name: "pmem.persist64_ns", unit: "ns"},
	{name: "pmem.store100_ns", unit: "ns"},
	{name: "pmem.load8_ns", unit: "ns"},
	// kvstore → read_p50_us, read_p99_us, ops_per_s @ kv-read;
	// write_p50_us @ kv-update.
	{name: "kvstore.get_ns", unit: "ns"},
	{name: "kvstore.put_update_ns", unit: "ns"},
	{name: "kvstore.put_insert_ns", unit: "ns"},
	{name: "kvstore.delete_ns", unit: "ns"},
	{name: "kvstore.self_put_ns", unit: "ns"},
	{name: "kvstore.optimistic_retry_ratio", unit: "ratio"},
	{name: "kvstore.latch_fallbacks", unit: "count"},
	// structures → ops_per_s, write_p50_us, fences_per_op @ shadow-update.
	{name: "structures.shadow_put_ns", unit: "ns"},
	{name: "structures.shadow_get_ns", unit: "ns"},
	{name: "structures.shadow_pm_allocs_per_put", unit: "count"},
	{name: "structures.shadow_flushes_per_put", unit: "count"},
	// reloc → ops_per_s, read_p50_us, write_p50_us @ relocate.
	{name: "reloc.encode_mb_per_s", unit: "MB/s"},
	{name: "reloc.decode_mb_per_s", unit: "MB/s"},
	{name: "reloc.blob_bytes_per_pool_byte", unit: "ratio"},
	{name: "reloc.translate_ns", unit: "ns"},
	{name: "reloc.ship_mb_per_s", unit: "MB/s"},
	// the instrument itself.
	{name: "trace.overhead_share", unit: "ratio"},
}

// layerSnap is the workload-level counter set: device counters summed
// over the workload's devices and the home daemon's own.
type layerSnap struct {
	dev pmem.Stats
	d   proto.Stats
}

func snapLayers(w workload) layerSnap {
	var s layerSnap
	for _, dev := range w.devices() {
		st := dev.Stats()
		s.dev.Flushes += st.Flushes
		s.dev.Fences += st.Fences
		s.dev.FlushRequests += st.FlushRequests
		s.dev.CoalescedFlushes += st.CoalescedFlushes
		s.dev.LeaseRetries += st.LeaseRetries
		s.dev.OptimisticReads += st.OptimisticReads
		s.dev.OptimisticRetries += st.OptimisticRetries
		s.dev.LatchFallbacks += st.LatchFallbacks
		s.dev.CacheHits += st.CacheHits
		s.dev.CacheMisses += st.CacheMisses
		s.dev.CacheRefills += st.CacheRefills
		s.dev.SlabDonations += st.SlabDonations
	}
	s.d = w.home().d.Stats()
	return s
}

// runTraced is one traced run: the same workload with the same seed,
// spans around every call the driver makes and counters at the span
// edges, then the ladders, one layer at a time. It reports the per-layer
// metrics and writes the spans to out/trace-<workload>.json.
func runTraced(def workloadDef, e *env) (*report, error) {
	if err := pin(); err != nil {
		return nil, err
	}
	rep := &report{workload: def.name, seed: e.seed, traced: true, metrics: map[string]value{}}
	for _, m := range perLayer {
		rep.set(m.name, m.unit, 0, 0)
	}

	e.wire = &wireCounts{}
	var w workload
	e.tracer = newTracer(func() counters {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c := counters{Mallocs: ms.Mallocs, WireBytes: e.wire.bytes.Load(), WireCalls: e.wire.calls.Load()}
		if w != nil {
			s := snapLayers(w)
			c.Flushes, c.Fences = s.dev.Flushes, s.dev.Fences
			c.FlushRequests, c.Coalesced = s.dev.FlushRequests, s.dev.CoalescedFlushes
			c.JournalBytes, c.Checkpoints = s.d.JournalBytes, s.d.Checkpoints
		}
		return c
	})
	e.tr = e.tracer
	sp := e.tr.begin(0, "setup")
	var err error
	if w, _, err = setUp(def, e); err != nil {
		return nil, err
	}
	e.tr.end(sp)
	defer func() { w.close() }()

	m, err := measure(w, e)
	if err != nil {
		return nil, err
	}
	e.tr = e.tracer
	l := &ledger{e: e, w: w, rep: rep}
	l.fromRounds(m)
	if err := l.ladders(); err != nil {
		return nil, fmt.Errorf("ladders: %w", err)
	}

	if err := e.tracer.write(filepath.Join(outDir, "trace-"+def.name+".json")); err != nil {
		return nil, err
	}
	self := e.tracer.selfByName()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.notes = append(rep.notes, fmt.Sprintf("self time %-24s %10.3f ms", name, float64(self[name])/1e6))
	}
	rep.attempted, rep.failed = e.attempted.Load(), e.failed.Load()
	return rep, nil
}
