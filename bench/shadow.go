package main

import (
	"fmt"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/structures"
	"puddles/internal/ycsb"
)

const (
	// shadowRecords is the key count of each worker's map. ShadowMap is
	// single-writer, so the concurrent shape is one map per worker in
	// one pool.
	shadowRecords  = 100000
	shadowPoolName = "shadow"
	// shadowOps is ops per worker per round at --seconds 10: 5 × 1.4 M
	// ops at ≈ 0.72 M ops/s on the reference box is about 10 s.
	shadowOps = 700000
)

// shadowWorkload runs the YCSB A key stream (50 % Get, 50 % Put-update,
// zipfian) against structures.ShadowMap: the MOD commit discipline of
// core.RunShadow instead of the undo log.
type shadowWorkload struct {
	box
	records int
	ops     int // per worker per round
	maps    [maxWorkers]*structures.ShadowMap
	descs   [maxWorkers]pmem.Addr

	streams [maxWorkers]stream
	seq     [maxWorkers]uint64
	acked   [maxWorkers][]uint64 // value of the last acknowledged Put per key
}

func newShadow(e *env) workload {
	return &shadowWorkload{box: box{e: e}, records: e.scaled(shadowRecords, 500), ops: e.ops(shadowOps, 2000)}
}

func (w *shadowWorkload) setup() error {
	if err := w.open(pmem.New(), "unix", shadowPoolName); err != nil {
		return err
	}
	mix, err := ycsb.WorkloadByName("A")
	if err != nil {
		return err
	}
	for wk := range w.maps {
		m, err := structures.NewShadowMap(w.cl, w.pool)
		if err != nil {
			return err
		}
		for k := 0; k < w.records; k++ {
			if err := m.Put(uint64(k), 0); err != nil {
				return fmt.Errorf("load map %d key %d: %w", wk, k, err)
			}
		}
		m.Sync()
		w.maps[wk], w.descs[wk] = m, m.Desc()
		w.streams[wk].gen = ycsb.NewShardedGenerator(mix, uint64(w.records), w.e.seed*1000+int64(wk), wk, maxWorkers)
		w.acked[wk] = make([]uint64, w.records)
	}
	return w.addScratch()
}

func (w *shadowWorkload) pooled() bool { return false }

func (w *shadowWorkload) rounds() int { return timedRounds }

func (w *shadowWorkload) round(i int) (roundStat, error) {
	sp := w.e.tr.begin(0, fmt.Sprintf("round-%d", i))
	defer w.e.tr.end(sp)
	rs := runWorkers(w.e, func(wk int, out *roundStat) { w.worker(wk, sp, out) })
	// A shadow publish is flushed but rides the next fence; the
	// application quiesces before it may lose power.
	for _, m := range w.maps {
		m.Sync()
	}
	return rs, nil
}

func (w *shadowWorkload) worker(wk, parent int, out *roundStat) {
	m, acked := w.maps[wk], w.acked[wk]
	w.streams[wk].run(w.e, wk, parent, [2]string{"ShadowMap.Get", "ShadowMap.Put"}, w.ops, out, func(op ycsb.Op) bool {
		if op.Kind == ycsb.OpRead {
			v, ok := m.Get(op.Key)
			return ok && v == acked[op.Key]
		}
		w.seq[wk]++
		if m.Put(op.Key, w.seq[wk]) != nil {
			return false
		}
		acked[op.Key] = w.seq[wk]
		return true
	})
}

// verify checks the slot census of both maps and that every key holds
// the value of its last acknowledged Put.
func (w *shadowWorkload) verify() error {
	for wk, m := range w.maps {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("map %d: %w", wk, err)
		}
		if m.Len() != w.records {
			return fmt.Errorf("map %d: %d keys, loaded %d", wk, m.Len(), w.records)
		}
		for k, want := range w.acked[wk] {
			if got, ok := m.Get(uint64(k)); !ok || got != want {
				return fmt.Errorf("map %d key %d: got %d (present=%v), acknowledged %d", wk, k, got, ok, want)
			}
		}
	}
	w.e.attempted.Add(uint64(maxWorkers * w.records))
	return nil
}

func (w *shadowWorkload) crashRecover() (time.Duration, error) {
	took, err := w.crash()
	if err != nil {
		return 0, err
	}
	for wk, desc := range w.descs {
		if w.maps[wk], err = structures.OpenShadowMap(w.cl, w.pool, desc); err != nil {
			return 0, fmt.Errorf("reopening map %d: %w", wk, err)
		}
	}
	return took, nil
}

func (w *shadowWorkload) finish() error     { return w.checkImage() }
func (w *shadowWorkload) userBytes() uint64 { return uint64(maxWorkers*w.records) * 16 }
