package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/ycsb"
)

const (
	kvRecords   = 200000
	kvValueSize = 100
	kvPoolName  = "kv"
	// Ops per worker per round at --seconds 10: 5 × 1.2 M ops of YCSB A
	// (≈ 0.56 M ops/s on the reference box) and 5 × 6 M of YCSB B
	// (≈ 2.9 M ops/s) are each about 10.5 s.
	kvUpdateOps = 600000
	kvReadOps   = 3000000
	// loadWorker tags values written by the load phase.
	loadWorker = 0xff
)

var kvOptions = kvstore.Options{Buckets: 1 << 17, ValueSize: kvValueSize, LatchStripes: 512}

// kvWorkload drives kv-update (YCSB A) and kv-read (YCSB B): a zipfian
// Get / Put-update mix from two workers on one kvstore behind one
// dialed client.
type kvWorkload struct {
	mix     ycsb.Workload
	records int
	ops     int // per worker per round

	box
	store  *kvstore.Store
	census uint64 // live objects after load; updates must not change it

	// Per worker: its request stream, its Put sequence, and for every
	// key the sequence of its last acknowledged Put (0 = never).
	streams [maxWorkers]stream
	seq     [maxWorkers]uint32
	acked   [maxWorkers][]uint32
}

func newKV(e *env, mix string) *kvWorkload {
	w, err := ycsb.WorkloadByName(mix)
	if err != nil {
		panic(err) // a bug: the mixes are constants
	}
	ops := kvUpdateOps
	if mix == "B" {
		ops = kvReadOps
	}
	return &kvWorkload{box: box{e: e}, mix: w, records: e.scaled(kvRecords, 1000), ops: e.ops(ops, 2000)}
}

// kvEncode fills v for (key, worker, seq): the tag sits at both ends so
// a torn value cannot pass for a whole one.
func kvEncode(v []byte, key uint64, worker int, seq uint32) {
	tag := uint64(worker)<<32 | uint64(seq)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], tag)
	binary.LittleEndian.PutUint64(v[len(v)-8:], tag)
}

func kvDecode(v []byte) (key uint64, worker int, seq uint32, whole bool) {
	key = binary.LittleEndian.Uint64(v[0:])
	tag := binary.LittleEndian.Uint64(v[8:])
	return key, int(tag >> 32), uint32(tag), tag == binary.LittleEndian.Uint64(v[len(v)-8:])
}

func (w *kvWorkload) setup() error {
	err := w.open(pmem.New(), "unix", kvPoolName)
	if err != nil {
		return err
	}
	if w.store, err = kvstore.New(puddleslib.Wrap(w.cl, w.pool), kvOptions); err != nil {
		return err
	}
	v := make([]byte, kvValueSize)
	for _, k := range ycsb.LoadKeys(uint64(w.records)) {
		kvEncode(v, k, loadWorker, 0)
		if err := w.store.Put(k, v); err != nil {
			return fmt.Errorf("load key %d: %w", k, err)
		}
	}
	if err := w.addScratch(); err != nil {
		return err
	}
	for wk := range w.streams {
		w.streams[wk].gen = w.gen(wk)
		w.acked[wk] = make([]uint32, w.records)
	}
	w.census = w.pool.LiveObjects()
	return nil
}

// gen returns worker wk's request stream: a function of the seed alone.
func (w *kvWorkload) gen(wk int) *ycsb.Generator {
	return ycsb.NewShardedGenerator(w.mix, uint64(w.records), w.e.seed*1000+int64(wk), wk, maxWorkers)
}

func (w *kvWorkload) pooled() bool { return false }

func (w *kvWorkload) rounds() int { return timedRounds }

func (w *kvWorkload) round(i int) (roundStat, error) {
	sp := w.e.tr.begin(0, fmt.Sprintf("round-%d", i))
	defer w.e.tr.end(sp)
	return runWorkers(w.e, func(wk int, out *roundStat) { w.worker(wk, sp, out) }), nil
}

func (w *kvWorkload) worker(wk, parent int, out *roundStat) {
	acked := w.acked[wk]
	buf := make([]byte, kvValueSize)
	val := make([]byte, kvValueSize)
	for i := range val {
		val[i] = byte(0xa0 + wk)
	}
	w.streams[wk].run(w.e, wk, parent, [2]string{"kvstore.Get", "kvstore.Put"}, w.ops, out, func(op ycsb.Op) bool {
		if op.Kind == ycsb.OpRead {
			return w.store.Get(op.Key, buf) == nil && binary.LittleEndian.Uint64(buf) == op.Key
		}
		w.seq[wk]++
		kvEncode(val, op.Key, wk, w.seq[wk])
		if w.store.Put(op.Key, val) != nil {
			return false
		}
		acked[op.Key] = w.seq[wk]
		return true
	})
}

// verify reads every key back: the value must be whole, and must be the
// last Put its writer saw acknowledged (a worker's Puts to one key are
// ordered, so whichever worker wrote last, it is that worker's last).
func (w *kvWorkload) verify() error {
	buf := make([]byte, kvValueSize)
	for k := 0; k < w.records; k++ {
		if err := w.store.Get(uint64(k), buf); err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
		key, wk, seq, whole := kvDecode(buf)
		switch {
		case !whole || key != uint64(k):
			return fmt.Errorf("key %d: torn or foreign value", k)
		case wk == loadWorker:
			for o := range w.acked {
				if w.acked[o][k] != 0 {
					return fmt.Errorf("key %d: acknowledged update %d of worker %d lost", k, w.acked[o][k], o)
				}
			}
		case wk >= maxWorkers || seq != w.acked[wk][k]:
			return fmt.Errorf("key %d: holds worker %d seq %d, acknowledged %d", k, wk, seq, w.acked[wk%maxWorkers][k])
		}
	}
	w.e.attempted.Add(uint64(w.records))
	return nil
}

func (w *kvWorkload) crashRecover() (time.Duration, error) {
	took, err := w.crash()
	if err != nil {
		return 0, err
	}
	w.store, err = kvstore.New(puddleslib.Wrap(w.cl, w.pool), kvOptions)
	return took, err
}

func (w *kvWorkload) finish() error {
	if got := w.pool.LiveObjects(); got != w.census {
		return fmt.Errorf("live-object census moved under updates: %d after load, %d now", w.census, got)
	}
	return w.checkImage()
}

func (w *kvWorkload) userBytes() uint64 { return uint64(w.records) * (8 + kvValueSize) }
