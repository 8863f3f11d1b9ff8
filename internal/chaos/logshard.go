package chaos

import (
	"errors"
	"fmt"

	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// ShardedLogChurn is the log-directory counterpart of the application
// scenarios: it power-fails AddLog/RemoveLog traffic on a sharded log
// space, formatted on the bare device, and checks the directory's
// crash atomicity. After each injected failure the space is reopened
// exactly as daemon recovery would open it (OpenShardedLogSpace) and
// the recovered registration set must be precisely explainable:
//
//   - every acked AddLog that was not acked-removed (and is not the
//     target of the in-flight operation) is present — recovery will
//     replay it;
//   - no head that was never registered is present — recovery cannot
//     invent logs;
//   - the one in-flight Add or Remove may have landed or not (its slot
//     publishes with a single 8-byte store), but nothing else moves.
func ShardedLogChurn(shards int) Scenario {
	const (
		spaceBase = pmem.Addr(2 << 20)
		nLogs     = 12
	)
	spaceSize := plog.SpaceSize(shards)
	var (
		space    *plog.ShardedLogSpace
		heads    [nLogs]pmem.Addr
		added    map[pmem.Addr]bool // acked AddLog
		removed  map[pmem.Addr]bool // acked RemoveLog
		inflight pmem.Addr          // head of the op in progress (0 = none)
	)
	return Scenario{
		Name: fmt.Sprintf("sharded-log-churn-%d", shards),
		Boot: BootDevice,
		// A log-space puddle plus a pile of small formatted logs to
		// register.
		Setup: func(e *Env) error {
			pd, err := puddle.Format(e.Dev, spaceBase, spaceSize, uid.New(), puddle.KindLogSpace, uid.Nil)
			if err != nil {
				return fmt.Errorf("format space puddle: %w", err)
			}
			if space, err = plog.FormatShardedLogSpace(pd, shards); err != nil {
				return fmt.Errorf("format sharded space: %w", err)
			}
			logBase := spaceBase + pmem.Addr(spaceSize)
			for i := range heads {
				start := logBase + pmem.Addr(i)*0x4000
				l, err := plog.FormatLog(e.Dev, pmem.Range{Start: start, End: start + 0x4000})
				if err != nil {
					return fmt.Errorf("format log %d: %w", i, err)
				}
				heads[i] = l.Head()
			}
			added, removed, inflight = map[pmem.Addr]bool{}, map[pmem.Addr]bool{}, 0
			return nil
		},
		// Register everything round-robin across shards, then
		// unregister a prefix — every persistence event in AddLog and
		// RemoveLog lands under some crash offset of the sweep.
		Mutate: func(e *Env) error {
			for i, h := range heads {
				inflight = h
				if err := space.AddLog(i%shards, h, uid.New()); err != nil {
					return err
				}
				added[h] = true
				inflight = 0
			}
			for i, h := range heads[:nLogs/2] {
				inflight = h
				if !space.RemoveLog(i%shards, h) {
					return fmt.Errorf("acked registration %#x missing before crash", uint64(h))
				}
				removed[h] = true
				inflight = 0
			}
			return nil
		},
		Check: func(e *Env) error {
			pd, err := puddle.Open(e.Dev, spaceBase)
			if err != nil {
				return fmt.Errorf("reopen puddle: %w", err)
			}
			reopened, err := plog.OpenShardedLogSpace(pd)
			if err != nil {
				return fmt.Errorf("reopen space: %w", err)
			}
			got := map[pmem.Addr]bool{}
			for _, h := range reopened.Logs() {
				got[h] = true
			}
			var errs []error
			for _, h := range heads {
				if want := added[h] && !removed[h]; h != inflight && got[h] != want {
					errs = append(errs, fmt.Errorf("log %#x registered=%v after recovery, want %v (acked add %v, acked remove %v)",
						uint64(h), got[h], want, added[h], removed[h]))
				}
				delete(got, h)
			}
			for h := range got {
				errs = append(errs, fmt.Errorf("recovered unknown log head %#x", uint64(h)))
			}
			return errors.Join(errs...)
		},
	}
}
