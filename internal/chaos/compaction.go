package chaos

import (
	"fmt"

	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// CompactionChurn power-fails the daemon across every persistence
// event of a registry churn run sized — via a deliberately tiny
// journal and tiny checkpoint chunks — to cross several compaction
// cycles. The swept crash offsets therefore land in every phase of
// the checkpoint protocol: inside the quiesce, mid-chunk while a
// checkpoint streams, on the commit chunk, mid-journal-double-buffer
// switch and mid-journal-reset. After each "power failure" the daemon
// reboots from the newest committed checkpoint + journals; the
// registry must be bidirectionally consistent and the pre-churn
// sentinel pool — whose record travels through checkpoint images in
// both arena halves and journal switches — must still open.
func CompactionChurn(maxOffset, stride int64) (Result, error) {
	res := Result{Scenario: "daemon-compaction-churn"}
	opts := []daemon.Option{
		daemon.WithJournalCapacity(8 << 10),
		daemon.WithCheckpointChunkBytes(512),
	}
	for off := int64(1); off < maxOffset; off += stride {
		crashed, err := compactionChurnOnce(off, opts, &res)
		if err != nil {
			return res, fmt.Errorf("chaos daemon-compaction-churn @%d: %w", off, err)
		}
		res.Probes++
		if !crashed {
			res.Completed++
			break
		}
	}
	return res, nil
}

// compactionChurnLap is one lap of the registry workload of
// DaemonMetaChurn, with lap-unique pool names so consecutive laps
// keep appending fresh multi-entity batches.
func compactionChurnLap(d *daemon.Daemon, lap int) error {
	do := func(req *proto.Request) (*proto.Response, error) {
		resp := d.Dispatch(daemon.Superuser, req)
		if resp.Err != "" {
			return nil, fmt.Errorf("%v: %s", req.Op, resp.Err)
		}
		return resp, nil
	}
	for p := 0; p < 3; p++ {
		pool, err := do(&proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("churn-%d-%d", lap, p)})
		if err != nil {
			return err
		}
		pu, err := do(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
		if err != nil {
			return err
		}
		ls, err := do(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
		if err != nil {
			return err
		}
		if _, err := do(&proto.Request{Op: proto.OpRegLogSpace, UUID: ls.UUID}); err != nil {
			return err
		}
		if _, err := do(&proto.Request{Op: proto.OpFreePuddle, UUID: pu.UUID}); err != nil {
			return err
		}
		if _, err := do(&proto.Request{Op: proto.OpFreePuddle, UUID: ls.UUID}); err != nil {
			return err
		}
	}
	_, err := do(&proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("churn-%d-1", lap)})
	return err
}

func compactionChurnOnce(off int64, opts []daemon.Option, res *Result) (crashed bool, err error) {
	dev := pmem.NewChaos(off)
	d, err := daemon.New(dev, opts...)
	if err != nil {
		return false, fmt.Errorf("boot: %w", err)
	}
	// Sentinel state created before the crash is armed: it must survive
	// every swept offset, through however many compactions fire.
	if resp := d.Dispatch(daemon.Superuser, &proto.Request{Op: proto.OpCreatePool, Name: "sentinel"}); resp.Err != "" {
		return false, fmt.Errorf("sentinel: %s", resp.Err)
	}
	dev.CrashAtEvent(dev.Events() + off)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !pmem.IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		// Three laps of registry churn: with an 8 KiB journal this
		// crosses several high-water compactions (each lap appends
		// dozens of multi-entity batches).
		for lap := 0; lap < 3 && err == nil; lap++ {
			err = compactionChurnLap(d, lap)
		}
	}()
	if !crashed && err != nil {
		return false, fmt.Errorf("churn: %w", err)
	}
	if !crashed {
		dev.CrashAtEvent(0) // disarm
		dev.CrashNow()      // still power-fail after completion
	}

	d2, err := daemon.New(dev, opts...)
	if err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): reboot: %v", off, crashed, err))
		return crashed, nil
	}
	if resp := d2.Dispatch(daemon.Superuser, &proto.Request{Op: proto.OpOpenPool, Name: "sentinel"}); resp.Err != "" {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): sentinel lost: %s", off, crashed, resp.Err))
	}
	if err := d2.CheckConsistency(); err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): %v", off, crashed, err))
	}
	return crashed, nil
}
