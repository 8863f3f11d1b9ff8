package chaos

import (
	"fmt"

	"puddles/internal/daemon"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// RegistryChurn is the metadata counterpart of the application
// scenarios: instead of crashing application transactions, it
// power-fails the daemon itself in the middle of its per-entity
// metadata journal. Each of `laps` laps is pure registry churn — pool
// creates, puddle creates/frees, log-space registration, a pool delete
// — each step appending one multi-entity journal batch. After each
// "power failure" the daemon (booted with opts) reboots from
// checkpoint + journal, and the registry must be bidirectionally
// consistent (daemon.CheckConsistency): a torn batch must vanish
// wholesale, never leave a pool without its root, a puddle without its
// pool, or a log space without its puddle. The sentinel pool, created
// before the crash is armed, must survive every swept offset.
func RegistryChurn(laps int, opts ...daemon.Option) Scenario {
	return Scenario{
		Name: "registry-churn",
		Boot: BootDaemon(opts...),
		Setup: func(e *Env) error {
			_, err := dispatch(e.Daemon, &proto.Request{Op: proto.OpCreatePool, Name: "sentinel"})
			return err
		},
		Mutate: func(e *Env) error {
			for lap := 0; lap < laps; lap++ {
				if err := registryLap(e.Daemon, lap); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			if _, err := dispatch(e.Daemon, &proto.Request{Op: proto.OpOpenPool, Name: "sentinel"}); err != nil {
				return fmt.Errorf("sentinel lost: %w", err)
			}
			return e.Daemon.CheckConsistency()
		},
	}
}

// CompactionChurn is RegistryChurn on a deliberately tiny journal with
// tiny checkpoint chunks, so that its laps cross several compaction
// cycles and the swept crash offsets land in every phase of the
// checkpoint protocol: inside the quiesce, mid-chunk while a
// checkpoint streams, on the commit chunk, mid-journal-double-buffer
// switch and mid-journal-reset. The sentinel's record travels through
// checkpoint images in both arena halves and journal switches. A run
// whose laps make fewer than three checkpoints fails the sweep: it
// would crash too few checkpoints, or none.
func CompactionChurn(laps int) Scenario {
	s := RegistryChurn(laps, daemon.WithJournalCapacity(8<<10), daemon.WithCheckpointChunkBytes(512))
	s.Name = "compaction-churn"
	churn := s.Mutate
	s.Mutate = func(e *Env) error {
		boot := e.Daemon.Stats().Checkpoints
		if err := churn(e); err != nil {
			return err
		}
		if n := e.Daemon.Stats().Checkpoints - boot; n < 3 {
			return fmt.Errorf("%d laps made %d checkpoints, want >= 3", laps, n)
		}
		return nil
	}
	return s
}

// dispatch drives one request through Daemon.Dispatch as the
// superuser, so an injected crash unwinds into the caller as a panic.
func dispatch(d *daemon.Daemon, req *proto.Request) (*proto.Response, error) {
	resp := d.Dispatch(daemon.Superuser, req)
	if resp.Err != "" {
		return nil, fmt.Errorf("%v: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// registryLap creates three pools, each with two puddles and a
// registered log space, frees one puddle and the still-registered log
// space (its registration must die in the same batch), and deletes the
// middle pool. Pool names are lap-unique, so every lap appends fresh
// batches.
func registryLap(d *daemon.Daemon, lap int) error {
	for p := 0; p < 3; p++ {
		pool, err := dispatch(d, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("churn-%d-%d", lap, p)})
		if err != nil {
			return err
		}
		var pu [2]*proto.Response
		for i := range pu {
			if pu[i], err = dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize}); err != nil {
				return err
			}
		}
		ls, err := dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
		if err != nil {
			return err
		}
		for _, req := range []*proto.Request{
			{Op: proto.OpRegLogSpace, UUID: ls.UUID},
			{Op: proto.OpFreePuddle, UUID: pu[0].UUID},
			{Op: proto.OpFreePuddle, UUID: ls.UUID},
		} {
			if _, err := dispatch(d, req); err != nil {
				return err
			}
		}
	}
	_, err := dispatch(d, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("churn-%d-1", lap)})
	return err
}
