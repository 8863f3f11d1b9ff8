// Puddlectl is the control-plane client for a running puddled: it
// lists pools, inspects daemon state, exports and imports pool
// containers, and triggers recovery — all over the daemon protocol on
// the UNIX socket. (Data-plane access — mapping puddles — requires
// sharing the daemon's device and is in-process only; see DESIGN.md
// §2 on the fd-passing substitution.)
//
// Usage:
//
//	puddlectl [-socket /tmp/puddled.sock] <command> [args]
//
// -socket also accepts a daemon URL ("unix:///path", "tcp://host:port"),
// so a TCP-fronted daemon is administrable remotely.
//
// Commands:
//
//	stat                     daemon counters
//	pools                    list pools
//	types                    list registered pointer maps
//	export <pool> <file>     export a pool container
//	import <pool> <file>     import a container as a new pool
//	delete <pool>            delete a pool
//	migrate <pool> <url>     live-migrate a pool to the daemon at url
//	standby <pool> <url>     migrate, keeping a warm standby here
//	failover <pool>          promote this daemon's standby copy to owner
//	resolve                  retry resolution of in-flight migrations
//	recover                  force a recovery pass
//	shutdown                 cleanly stop the daemon
package main

import (
	"flag"
	"fmt"
	"os"

	"puddles/internal/core"
	"puddles/internal/proto"
)

func main() {
	socket := flag.String("socket", "/tmp/puddled.sock", "puddled socket path or URL (unix:///path, tcp://host:port)")
	uid := flag.Uint("uid", uint(os.Getuid()), "credential uid (must match the socket peer on UNIX sockets)")
	gid := flag.Uint("gid", uint(os.Getgid()), "credential gid")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: puddlectl [-socket PATH|URL] <stat|pools|types|export|import|delete|migrate|standby|failover|resolve|recover|shutdown> [args]")
		os.Exit(2)
	}
	network, address, err := core.ParseURL(*socket)
	if err != nil {
		fatal("%v", err)
	}
	nc, err := core.DialNet(network, address)
	if err != nil {
		fatal("connecting to %s: %v", *socket, err)
	}
	// Credentials ride the session handshake (and OpHello for daemons
	// that predate it).
	c := proto.NewConnHello(nc, proto.Hello{UID: uint32(*uid), GID: uint32(*gid)})
	defer c.Close()
	if *uid != 0 || *gid != 0 {
		if _, err := c.RoundTrip(&proto.Request{Op: proto.OpHello, UID: uint32(*uid), GID: uint32(*gid)}); err != nil {
			fatal("hello: %v", err)
		}
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "stat":
		resp := must(c, &proto.Request{Op: proto.OpStat})
		s := resp.Stats
		fmt.Printf("pools            %d\n", s.Pools)
		fmt.Printf("puddles          %d\n", s.Puddles)
		fmt.Printf("reserved bytes   %d\n", s.ReservedBytes)
		fmt.Printf("log spaces       %d\n", s.LogSpaces)
		fmt.Printf("pointer maps     %d\n", s.Types)
		fmt.Printf("recovery passes  %d\n", s.Recoveries)
		fmt.Printf("logs replayed    %d\n", s.LogsReplayed)
		fmt.Printf("entries applied  %d\n", s.EntriesApplied)
		fmt.Printf("imports          %d\n", s.Imports)
		fmt.Printf("persist errors   %d\n", s.PersistErrors)
		fmt.Printf("dispatch panics  %d\n", s.DispatchPanics)
		fmt.Printf("journal bytes    %d\n", s.JournalBytes)
		fmt.Printf("last boot        checkpoint load %dus, journal replay %dus (%d entries, %d undecodable)\n",
			s.BootLoadNs/1e3, s.BootReplayNs/1e3, s.JournalReplayed, s.JournalDecodeErrors)
		fmt.Printf("checkpoints      %d (seq %d, %d chunks, %d bytes)\n",
			s.Checkpoints, s.CheckpointSeq, s.CheckpointChunks, s.CheckpointBytes)
		fmt.Printf("ckpt spills      %d (registry gen %d)\n", s.CheckpointSpills, s.RegistryGen)
		avg := uint64(0)
		if s.Checkpoints > 0 {
			avg = s.CkptPauseTotalNs / s.Checkpoints
		}
		fmt.Printf("ckpt pause       avg %dns, max %dns\n", avg, s.CkptPauseMaxNs)
		hitRate := 0.0
		if ops := s.CacheHits + s.CacheMisses + s.CacheRefills; ops > 0 {
			hitRate = 100 * float64(s.CacheHits) / float64(ops)
		}
		fmt.Printf("alloc cache      %d hits (%.1f%%), %d misses, %d refills\n",
			s.CacheHits, hitRate, s.CacheMisses, s.CacheRefills)
		fmt.Printf("slab donations   %d (reclaimed after crash: %d)\n",
			s.SlabDonations, s.ReclaimedSlabs)
		fmt.Printf("active conns     %d\n", s.ActiveConns)
		fmt.Printf("active sessions  %d\n", s.ActiveSessions)
		fmt.Printf("accept errors    %d\n", s.AcceptErrors)
		fmt.Printf("handshake rejects %d\n", s.HandshakeRejects)
		fmt.Printf("wire decode errs %d\n", s.WireDecodeErrors)
		fmt.Printf("session resumes  %d\n", s.SessionResumes)
		fmt.Printf("pool cap rejects %d\n", s.PoolCapRejects)
		fmt.Printf("quota rejects    %d grants, %d bytes\n", s.GrantCapRejects, s.ByteCapRejects)
		fmt.Printf("migrations       %d out, %d in, %d aborted\n",
			s.MigrationsOut, s.MigrationsIn, s.MigrationAborts)
		fmt.Printf("replication      %d rounds, %d bytes shipped, %d failovers\n",
			s.ReplicaSyncs, s.ReplicaBytes, s.Failovers)
	case "pools":
		resp := must(c, &proto.Request{Op: proto.OpListPools})
		for _, n := range resp.Names {
			fmt.Println(n)
		}
	case "types":
		resp := must(c, &proto.Request{Op: proto.OpListTypes})
		for _, ti := range resp.Types {
			fmt.Printf("%#016x  %-30s size=%-6d ptrs=%d\n", uint64(ti.ID), ti.Name, ti.Size, len(ti.Ptrs))
		}
	case "export":
		need(args, 2, "export <pool> <file>")
		resp := must(c, &proto.Request{Op: proto.OpExportPool, Name: args[0]})
		if err := os.WriteFile(args[1], resp.Blob, 0o644); err != nil {
			fatal("writing %s: %v", args[1], err)
		}
		fmt.Printf("exported %q: %d bytes\n", args[0], len(resp.Blob))
	case "import":
		need(args, 2, "import <pool> <file>")
		blob, err := os.ReadFile(args[1])
		if err != nil {
			fatal("reading %s: %v", args[1], err)
		}
		resp := must(c, &proto.Request{Op: proto.OpImportPool, Name: args[0], Blob: blob})
		// Control-plane import: map every puddle eagerly via the
		// daemon (pointer rewrite needs a data-plane client; the
		// daemon-side copy still lands content and the session stays
		// resumable).
		for _, pi := range resp.Puddles {
			must(c, &proto.Request{Op: proto.OpImportMap, Session: resp.Session, UUID: pi.UUID})
		}
		done := must(c, &proto.Request{Op: proto.OpImportDone, Session: resp.Session})
		fmt.Printf("imported %q: root at %#x (%d puddles)\n", args[0], done.Addr, len(resp.Puddles))
	case "delete":
		need(args, 1, "delete <pool>")
		must(c, &proto.Request{Op: proto.OpDeletePool, Name: args[0]})
		fmt.Printf("deleted %q\n", args[0])
	case "migrate", "standby":
		need(args, 2, cmd+" <pool> <url>")
		var kind uint64
		if cmd == "standby" {
			kind = 1 // retain a warm standby at the source
		}
		resp := must(c, &proto.Request{Op: proto.OpMigratePool, Name: args[0], Target: args[1], Kind: kind})
		r := resp.Report
		fmt.Printf("migrated %q to %s: %d delta rounds, %d snapshot + %d delta bytes, pause %.2fms, total %.1fms\n",
			args[0], args[1], r.Rounds, r.SnapshotBytes, r.DeltaBytes,
			float64(r.PauseNs)/1e6, float64(r.TotalNs)/1e6)
	case "failover":
		need(args, 1, "failover <pool>")
		must(c, &proto.Request{Op: proto.OpFailover, Name: args[0]})
		fmt.Printf("promoted standby %q to owner\n", args[0])
	case "resolve":
		resp := must(c, &proto.Request{Op: proto.OpResolveMig})
		if resp.Size > 0 {
			fmt.Printf("%d migration(s) still unresolved (peer unreachable)\n", resp.Size)
		} else {
			fmt.Println("all migrations resolved")
		}
	case "recover":
		resp := must(c, &proto.Request{Op: proto.OpRecoverNow})
		fmt.Printf("recovery pass %d complete (%d logs replayed total)\n",
			resp.Stats.Recoveries, resp.Stats.LogsReplayed)
	case "shutdown":
		must(c, &proto.Request{Op: proto.OpShutdown})
		fmt.Println("daemon shut down cleanly")
	default:
		fatal("unknown command %q", cmd)
	}
}

func must(c *proto.Conn, req *proto.Request) *proto.Response {
	resp, err := c.RoundTrip(req)
	if err != nil {
		fatal("%v", err)
	}
	return resp
}

func need(args []string, n int, usage string) {
	if len(args) != n {
		fatal("usage: puddlectl %s", usage)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "puddlectl: "+format+"\n", args...)
	os.Exit(1)
}
