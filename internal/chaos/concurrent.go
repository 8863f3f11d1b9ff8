package chaos

import (
	"errors"
	"fmt"
	"sync"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
)

// CrashManyInFlight is the multi-transaction counterpart of Sweep:
// `workers` goroutines each open a transaction against one pool,
// undo-log and overwrite a private region of the root object, and
// park mid-transaction — never committing. The device then power-
// fails (CrashNow resolves each volatile cacheline by coin flip, or
// drops them all when adversarial is set), the daemon reboots, and
// application-independent recovery must roll every in-flight
// transaction back from its own cached log puddle. Returns an error
// on any surviving partial write, or if recovery replayed fewer logs
// than there were transactions.
func CrashManyInFlight(workers, cellsPerTx int, adversarial bool, seed int64) error {
	dev := pmem.NewChaos(seed)
	d, err := daemon.New(dev)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	c := core.ConnectLocal(d)
	pool, err := c.CreatePool("chaos-mt", 0)
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	cells, err := newParkedCells(c, pool, workers, cellsPerTx)
	if err != nil {
		return err
	}
	// Every transaction holds its own log puddle (the paper's
	// per-thread cache).
	if err := cells.parkThenPowerFail(dev, adversarial, func(int) *core.Tx { return c.Begin(pool) }); err != nil {
		return err
	}

	// Reboot. Recovery runs inside daemon.New, before any
	// application maps the data.
	d2, err := daemon.New(dev)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	c2 := core.ConnectLocal(d2)
	defer c2.Close()
	if _, err := c2.OpenPool("chaos-mt"); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	st := d2.Stats()
	if st.Recoveries == 0 {
		return fmt.Errorf("daemon did not run recovery after dirty shutdown")
	}
	if err := cells.rolledBack(dev); err != nil {
		return fmt.Errorf("in-flight tx not rolled back: %w", err)
	}
	if st.LogsReplayed < uint64(workers) {
		return fmt.Errorf("recovery replayed %d logs, want >= %d (one per in-flight transaction)", st.LogsReplayed, workers)
	}
	return nil
}

// parkedCells is a root object of txs×perTx words: the private cells
// of txs transactions that a power failure catches in flight.
type parkedCells struct {
	root       pmem.Addr
	txs, perTx int
}

func newParkedCells(c *core.Client, pool *core.Pool, txs, perTx int) (parkedCells, error) {
	size := uint32(txs * perTx * 8)
	ti, err := c.RegisterType("chaos.parkedcells", size, nil)
	if err != nil {
		return parkedCells{}, err
	}
	root, err := pool.CreateRoot(ti.ID, size)
	return parkedCells{root: root, txs: txs, perTx: perTx}, err
}

func (p parkedCells) addr(t, i int) pmem.Addr { return p.root + pmem.Addr((t*p.perTx+i)*8) }

// initial is the value cell i of transaction t holds before the
// transaction, and must hold again after recovery.
func (parkedCells) initial(t, i int) uint64 { return uint64(t)*1000 + uint64(i) + 7 }

// parkThenPowerFail durably stores every cell's initial value, then
// runs the transactions at once, each on its own goroutine: the t-th
// begins as begin(t) returns it, undo-logs and overwrites its cells,
// and is parked — never committed or aborted, so it holds its own log
// until the power fails. Once all are in flight the device
// power-fails; drop loses every unflushed line instead of keeping
// each by coin flip.
func (p parkedCells) parkThenPowerFail(dev *pmem.Device, drop bool, begin func(t int) *core.Tx) error {
	for t := 0; t < p.txs; t++ {
		for i := 0; i < p.perTx; i++ {
			dev.StoreU64(p.addr(t, i), p.initial(t, i))
		}
	}
	dev.Persist(p.root, p.txs*p.perTx*8)
	var wg sync.WaitGroup
	errs := make([]error, p.txs)
	wg.Add(p.txs)
	for t := 0; t < p.txs; t++ {
		go func(t int) {
			defer wg.Done()
			tx := begin(t)
			for i := 0; i < p.perTx && errs[t] == nil; i++ {
				if err := tx.SetU64(p.addr(t, i), 0xdead<<32|uint64(t)); err != nil {
					errs[t] = fmt.Errorf("tx %d mutate: %w", t, err)
				}
			}
		}(t)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if drop {
		dev.DropVolatile()
	} else {
		dev.CrashNow()
	}
	return nil
}

// rolledBack names the first cell on dev that does not hold its
// initial value.
func (p parkedCells) rolledBack(dev *pmem.Device) error {
	for t := 0; t < p.txs; t++ {
		for i := 0; i < p.perTx; i++ {
			if got := dev.LoadU64(p.addr(t, i)); got != p.initial(t, i) {
				return fmt.Errorf("tx %d cell %d = %#x after recovery, want %#x", t, i, got, p.initial(t, i))
			}
		}
	}
	return nil
}
