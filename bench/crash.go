package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/core"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

const (
	crashApps = 8 // sessions, each with its own pool and log space
	// crashCycles is the number of power failures on the one ageing image.
	// Odd, so that the median recovery and the middle of the pooled
	// latency samples fall inside the middle cycle, not on the edge
	// between two cycles a step of the ageing apart.
	crashCycles = 11
	// Per app and cycle at --seconds 10: crashPairs × (Get of a random
	// record, small transaction overwriting a slot in place) with
	// crashInserts inserts spread evenly among them. Counts, so the image
	// every recovery faces and the mix behind fences_per_op are the same
	// on every run. An app is also loaded with crashInserts records.
	crashPairs   = 5500
	crashInserts = 200
	crashSlots   = 512 // 8-byte slots the small transactions overwrite
	crashParked  = 8   // in-flight transactions an app leaves behind
	crashEntries = 64  // undo entries per in-flight transaction
	crashValue   = 16  // kv value: key, sequence number
)

var crashKV = kvstore.Options{Buckets: 1 << 10, ValueSize: crashValue, LatchStripes: 8}

// crashApp is one application: a session, a pool, a kvstore in the
// pool's root and a slot array.
type crashApp struct {
	id    int
	cl    *core.Client
	pool  *core.Pool
	store *kvstore.Store
	slots pmem.Addr
	rng   *rand.Rand

	seq      uint64             // last sequence number handed out
	slotVal  [crashSlots]uint64 // acknowledged value of every slot
	inserted []uint64           // acknowledged sequence number of key i
	live     uint64             // live objects the pool must hold
}

// crashWorkload is the paper's application-independent recovery: a
// chaos-mode device really loses unflushed lines, every cycle ends with
// eight applications' transactions in flight, and only the daemon
// repairs the image.
type crashWorkload struct {
	e       *env
	m       *machine
	apps    [crashApps]*crashApp
	loaded  int // records per app after set-up
	pairs   int // per app and cycle
	inserts int // per app and cycle
	user    uint64
}

func newCrash(e *env) workload {
	return &crashWorkload{e: e, loaded: e.scaled(crashInserts, 4), pairs: e.ops(crashPairs, 40), inserts: e.ops(crashInserts, 4)}
}

func (a *crashApp) name() string { return fmt.Sprintf("app-%d", a.id) }

func (w *crashWorkload) setup() error {
	var err error
	if w.m, err = boot(pmem.NewChaos(w.e.seed), "unix", w.e.wire); err != nil {
		return err
	}
	for i := range w.apps {
		a := &crashApp{id: i, rng: rand.New(rand.NewSource(w.e.seed*100 + int64(i)))}
		w.apps[i] = a
		if a.cl, err = w.m.dial(); err != nil {
			return err
		}
		if a.pool, err = a.cl.CreatePool(a.name(), 0); err != nil {
			return err
		}
		if a.store, err = kvstore.New(puddleslib.Wrap(a.cl, a.pool), crashKV); err != nil {
			return err
		}
		if a.slots, err = a.pool.Malloc(ptypes.Untyped, crashSlots*8); err != nil {
			return err
		}
		for j := 0; j < w.loaded; j++ {
			if err := a.insert(); err != nil {
				return fmt.Errorf("load %s: %w", a.name(), err)
			}
		}
		a.live = a.pool.LiveObjects()
		w.user += uint64(w.loaded)*(8+crashValue) + crashSlots*8
	}
	return nil
}

// insert adds the next key; its value carries the key and a fresh
// sequence number.
func (a *crashApp) insert() error {
	var v [crashValue]byte
	key := uint64(len(a.inserted))
	a.seq++
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], a.seq)
	if err := a.store.Put(key, v[:]); err != nil {
		return err
	}
	a.inserted = append(a.inserted, a.seq)
	a.live++
	return nil
}

// pooled: the image ages from cycle to cycle (chaos-mode fences slow
// down stepwise, log spaces pile up) and the steps fall a cycle earlier
// or later from run to run, so a median of cycles would jump with them.
func (w *crashWorkload) pooled() bool { return true }

func (w *crashWorkload) rounds() int { return w.e.scaled(crashCycles, 3) }

// round is one cycle's commit phase: two goroutines walk four
// applications each, and every application reads a random record and
// commits a small transaction w.pairs times, inserting a record after
// every (pairs / inserts)th. Read = Get, write = the small transaction;
// every op is timed.
func (w *crashWorkload) round(i int) (roundStat, error) {
	sp := w.e.tr.begin(0, fmt.Sprintf("cycle-%d", i))
	defer w.e.tr.end(sp)
	const perWorker = crashApps / maxWorkers
	rs := runWorkers(w.e, func(wk int, out *roundStat) {
		for k := 0; k < perWorker; k++ {
			w.drive(w.apps[wk*perWorker+k], sp, out)
		}
	})
	return rs, nil
}

func (w *crashWorkload) drive(a *crashApp, parent int, out *roundStat) {
	var buf [crashValue]byte
	quota, every := w.inserts, max(w.pairs/w.inserts, 1)
	for n := 0; n < w.pairs; n++ {
		t0 := time.Now()
		key := uint64(a.rng.Intn(len(a.inserted)))
		err := a.store.Get(key, buf[:])
		t1 := time.Now()
		if err != nil || binary.LittleEndian.Uint64(buf[8:]) != a.inserted[key] {
			w.e.failed.Add(1)
		}
		slot := a.rng.Intn(crashSlots)
		a.seq++
		err = a.cl.Run(a.pool, func(tx *core.Tx) error {
			return tx.SetU64(a.slots+pmem.Addr(slot*8), a.seq)
		})
		t2 := time.Now()
		if err != nil {
			w.e.failed.Add(1)
		} else {
			a.slotVal[slot] = a.seq
		}
		out.reads = append(out.reads, int64(t1.Sub(t0)))
		out.writes = append(out.writes, int64(t2.Sub(t1)))
		op := uint64(a.id)<<56 | a.seq
		w.e.tr.op(parent, "kvstore.Get", op, t0, t1)
		w.e.tr.op(parent, "core.Run", op, t1, t2)
		out.ops += 2
		if quota > 0 && n%every == every-1 {
			if err := a.insert(); err != nil {
				w.e.failed.Add(1)
			}
			quota--
			out.ops++
		}
	}
}

// verify: every acknowledged write — slot or record — reads back with
// its acknowledged value; no byte of an in-flight transaction survives.
func (w *crashWorkload) verify() error {
	var buf [crashValue]byte
	for _, a := range w.apps {
		for s, want := range a.slotVal {
			if got := w.m.dev.LoadU64(a.slots + pmem.Addr(s*8)); got != want {
				return fmt.Errorf("%s slot %d: %#x, acknowledged %#x", a.name(), s, got, want)
			}
		}
		for k, want := range a.inserted {
			if err := a.store.Get(uint64(k), buf[:]); err != nil {
				return fmt.Errorf("%s key %d: %w", a.name(), k, err)
			}
			if got := binary.LittleEndian.Uint64(buf[8:]); got != want || binary.LittleEndian.Uint64(buf[0:]) != uint64(k) {
				return fmt.Errorf("%s key %d: sequence %d, acknowledged %d", a.name(), k, got, want)
			}
		}
		w.e.attempted.Add(uint64(crashSlots + len(a.inserted)))
	}
	return nil
}

// crashRecover parks crashParked transactions of crashEntries undo
// entries in every application, cuts the power, and times the reboot to
// the first successful OpenPool. Nobody but the daemon repairs the
// image: the applications come back as new sessions and only look.
func (w *crashWorkload) crashRecover() (time.Duration, error) {
	sp := w.e.tr.begin(0, "crash-recover")
	defer w.e.tr.end(sp)
	for _, a := range w.apps {
		for p := 0; p < crashParked; p++ {
			tx := a.cl.Begin(a.pool)
			for k := 0; k < crashEntries; k++ {
				if err := tx.SetU64(a.slots+pmem.Addr((p*crashEntries+k)*8), poison); err != nil {
					return 0, fmt.Errorf("%s: parking in-flight tx: %w", a.name(), err)
				}
			}
		}
	}
	w.m.powerFail()
	for _, a := range w.apps {
		a.cl.Close()
	}

	t0 := time.Now()
	if err := w.m.start(); err != nil {
		return 0, err
	}
	var took time.Duration
	for i, a := range w.apps {
		var err error
		if a.cl, err = w.m.dial(); err != nil {
			return 0, err
		}
		if a.pool, err = a.cl.OpenPool(a.name()); err != nil {
			return 0, fmt.Errorf("OpenPool %s after recovery: %w", a.name(), err)
		}
		if i == 0 {
			took = time.Since(t0)
		}
		if a.store, err = kvstore.New(puddleslib.Wrap(a.cl, a.pool), crashKV); err != nil {
			return 0, err
		}
	}
	return took, nil
}

func (w *crashWorkload) finish() error {
	if err := w.m.d.CheckConsistency(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for _, a := range w.apps {
		for i, h := range a.pool.Heaps() {
			if err := h.Validate(); err != nil {
				return fmt.Errorf("%s heap %d: %w", a.name(), i, err)
			}
		}
		if got := a.pool.LiveObjects(); got != a.live {
			return fmt.Errorf("%s: %d live objects, census says %d", a.name(), got, a.live)
		}
	}
	return nil
}

func (w *crashWorkload) close() {
	for _, a := range w.apps {
		if a != nil && a.cl != nil {
			a.cl.Close()
		}
	}
	if w.m != nil {
		w.m.stop()
	}
}

func (w *crashWorkload) tail() float64           { return 0.99 }
func (w *crashWorkload) devices() []*pmem.Device { return []*pmem.Device{w.m.dev} }
func (w *crashWorkload) home() *machine          { return w.m }
func (w *crashWorkload) userBytes() uint64       { return w.user }

func (w *crashWorkload) pools() []*core.Pool {
	var ps []*core.Pool
	for _, a := range w.apps {
		ps = append(ps, a.pool)
	}
	return ps
}
