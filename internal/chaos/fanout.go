package chaos

import (
	"bytes"
	"fmt"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
)

// FanoutResult summarizes one recovery run over a cloned crash image.
type FanoutResult struct {
	LogsReplayed   uint64
	EntriesApplied uint64
}

// FanoutEquivalence builds the exact situation the recovery fan-out
// must not change: two applications (distinct credentials, so two log
// spaces) share one writable pool, each parks `workers` mid-flight
// transactions, and the device power-fails. Their spaces land in one
// conflict group and replay as a serial chain — but each space's
// shards now fan out behind a per-space barrier. The crashed image is
// cloned (pmem Save/Restore) and recovered twice from identical
// bytes: once under WithRecoveryWorkers(1), the strictly serial
// reference, and once with the default parallel pool. Both runs must
// roll every cell back and replay exactly the same logs and entries.
func FanoutEquivalence(workers, cellsPerTx int, seed int64) error {
	dev := pmem.NewChaos(seed)
	d, err := daemon.New(dev)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	owner := core.ConnectLocal(d)
	if err := owner.Hello(100, 10); err != nil {
		return err
	}
	pool, err := owner.CreatePool("fanout-shared", 0o666)
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	const apps = 2
	cells, err := newParkedCells(owner, pool, apps*workers, cellsPerTx)
	if err != nil {
		return err
	}
	other := core.ConnectLocal(d)
	if err := other.Hello(200, 20); err != nil {
		return err
	}
	shared, err := other.OpenPool("fanout-shared")
	if err != nil {
		return fmt.Errorf("open shared: %w", err)
	}
	if !shared.Writable {
		return fmt.Errorf("second app did not get a writable grant")
	}

	// Park apps×workers transactions mid-flight, `workers` on each
	// app's log space, so the crash leaves pending logs spread across
	// both spaces' shard directories.
	if err := cells.parkThenPowerFail(dev, false, func(t int) *core.Tx {
		if t < workers {
			return owner.Begin(pool)
		}
		return other.Begin(shared)
	}); err != nil {
		return err
	}
	var img bytes.Buffer
	if err := dev.Save(&img); err != nil {
		return fmt.Errorf("saving crash image: %w", err)
	}

	// Recover the same bytes twice: serial reference vs shard fan-out.
	recoverClone := func(opts ...daemon.Option) (FanoutResult, error) {
		var res FanoutResult
		rdev := pmem.New()
		if err := rdev.Restore(bytes.NewReader(img.Bytes())); err != nil {
			return res, fmt.Errorf("restoring crash image: %w", err)
		}
		rd, err := daemon.New(rdev, opts...)
		if err != nil {
			return res, fmt.Errorf("recovery boot: %w", err)
		}
		st := rd.Stats()
		if st.Recoveries == 0 {
			return res, fmt.Errorf("dirty image booted without recovery")
		}
		if err := cells.rolledBack(rdev); err != nil {
			return res, err
		}
		res.LogsReplayed = st.LogsReplayed
		res.EntriesApplied = st.EntriesApplied
		return res, nil
	}
	serial, err := recoverClone(daemon.WithRecoveryWorkers(1))
	if err != nil {
		return fmt.Errorf("serial recovery: %w", err)
	}
	fanout, err := recoverClone()
	if err != nil {
		return fmt.Errorf("fanout recovery: %w", err)
	}
	if serial != fanout {
		return fmt.Errorf("serial recovery %+v != fanout recovery %+v on identical images", serial, fanout)
	}
	if serial.LogsReplayed < uint64(apps*workers) {
		return fmt.Errorf("equivalence vacuous: %d logs replayed, want >= %d (one per parked transaction)",
			serial.LogsReplayed, apps*workers)
	}
	return nil
}
