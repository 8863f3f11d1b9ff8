package main

import (
	"fmt"
	"time"

	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

const (
	// poison is what an in-flight transaction leaves in the scratch
	// object before the power failure; recovery must roll it back to
	// settled.
	poison  uint64 = 0xdeaddeaddeaddead
	settled uint64 = 0x5e771ed
)

// box is the part every workload shares: one home machine, one dialed
// client, one pool and a scratch object for the transaction that is in
// flight when the power fails.
type box struct {
	e       *env
	m       *machine
	cl      *core.Client
	pool    *core.Pool
	name    string
	scratch pmem.Addr
}

// open boots a machine on dev, dials it and creates the pool; addScratch
// completes it.
func (b *box) open(dev *pmem.Device, network, pool string) error {
	var err error
	if b.m, err = boot(dev, network, b.e.wire); err != nil {
		return err
	}
	if b.cl, err = b.m.dial(); err != nil {
		return err
	}
	if b.pool, err = b.cl.CreatePool(pool, 0); err != nil {
		return err
	}
	b.name = pool
	return nil
}

// addScratch allocates the scratch object. It comes after the
// workload's own root object: the first allocation of a pool lands on
// the fixed root offset.
func (b *box) addScratch() error {
	var err error
	if b.scratch, err = b.pool.Malloc(ptypes.Untyped, 8); err != nil {
		return err
	}
	return b.cl.Run(b.pool, func(tx *core.Tx) error { return tx.SetU64(b.scratch, settled) })
}

// crash is the power failure every round ends with: one transaction is
// left in flight with the scratch object poisoned, the machine loses
// power, and the time from reboot (daemon recovery runs inside
// daemon.New) to the first successful OpenPool is returned. The poison
// must be gone.
func (b *box) crash() (time.Duration, error) {
	sp := b.e.tr.begin(0, "crash-recover")
	defer b.e.tr.end(sp)
	tx := b.cl.Begin(b.pool)
	if err := tx.SetU64(b.scratch, poison); err != nil {
		return 0, fmt.Errorf("parking in-flight tx: %w", err)
	}
	b.m.powerFail()
	b.cl.Close()

	t0 := time.Now()
	if err := b.m.start(); err != nil {
		return 0, err
	}
	cl, err := b.m.dial()
	if err != nil {
		return 0, err
	}
	pool, err := cl.OpenPool(b.name)
	if err != nil {
		cl.Close()
		return 0, fmt.Errorf("first OpenPool after recovery: %w", err)
	}
	took := time.Since(t0)
	b.cl, b.pool = cl, pool
	if got := b.m.dev.LoadU64(b.scratch); got != settled {
		return 0, fmt.Errorf("in-flight store survived recovery: scratch = %#x", got)
	}
	return took, nil
}

// checkImage is the oracle every workload ends with: the daemon's
// registry is consistent and every heap of the pool validates.
func (b *box) checkImage() error {
	if err := b.m.d.CheckConsistency(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for i, h := range b.pool.Heaps() {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("pool %s heap %d: %w", b.name, i, err)
		}
	}
	return nil
}

func (b *box) close() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.m != nil {
		b.m.stop()
	}
}

func (b *box) tail() float64           { return 0.99 }
func (b *box) devices() []*pmem.Device { return []*pmem.Device{b.m.dev} }
func (b *box) home() *machine          { return b.m }
func (b *box) pools() []*core.Pool     { return []*core.Pool{b.pool} }
