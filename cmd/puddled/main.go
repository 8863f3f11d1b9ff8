// Puddled is the privileged Puddles daemon (paper Fig. 2): it owns the
// device image, manages the global puddle space, and replays
// crash-consistency logs on boot — before any client can connect.
//
// Usage:
//
//	puddled -socket /tmp/puddled.sock -tcp 127.0.0.1:7464 -store /var/lib/puddles/machine.img
//
// The image file stands in for the DAX-mounted PM filesystem: it is
// restored at boot (running recovery if the previous run ended dirty)
// and saved on clean shutdown and periodically. Clients speak the
// session protocol over the UNIX socket or TCP front end.
//
// Lifecycle signals:
//
//	SIGTERM/SIGINT  graceful drain: stop accepting, finish in-flight
//	                requests, checkpoint, save the image, exit.
//	SIGHUP          zero-downtime restart: drain while KEEPING the
//	                listener fds, save the image, exec a successor
//	                with -inherit that adopts the live sockets — the
//	                kernel backlog carries new connections across the
//	                gap, and clients resume their sessions.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"puddles/internal/daemon"
	"puddles/internal/inherit"
	"puddles/internal/pmem"
)

func main() {
	var (
		socket       = flag.String("socket", "/tmp/puddled.sock", "UNIX domain socket path (empty disables)")
		tcpAddr      = flag.String("tcp", "", "TCP listen address, e.g. 127.0.0.1:7464 (empty disables)")
		store        = flag.String("store", "puddled.img", "device image file (DAX filesystem stand-in)")
		syncSecs     = flag.Int("sync", 5, "seconds between image syncs (0 disables)")
		connWorkers  = flag.Int("conn-workers", 0, "pipelined dispatch workers per connection (0 = auto, 1 = serial)")
		recWorkers   = flag.Int("recovery-workers", 0, "concurrent recovery replay workers over log-space shards and apps (0 = auto, 1 = serial)")
		legacyCkpt   = flag.Bool("legacy-checkpoints", false, "write v1 whole-state A/B snapshot slots instead of chunked checkpoint chains (image downgrade/testing)")
		inheritFDs   = flag.Bool("inherit", false, "adopt listener fds from a predecessor (set by the SIGHUP restart path)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight requests")
		maxConns     = flag.Int("max-conns", 0, "concurrent client connection cap (0 = default, -1 = unlimited)")
		maxSessions  = flag.Int("max-sessions", 0, "live session cap (0 = default, -1 = unlimited)")
		sessionIdle  = flag.Duration("session-idle", 0, "idle timeout for detached sessions (0 = default)")
		maxGrants    = flag.Int("max-grants-per-session", 0, "outstanding puddle grants per session (0 = unlimited)")
		maxBytes     = flag.Uint64("max-bytes-per-session", 0, "cumulative carved bytes per session (0 = unlimited)")
		tlsCert      = flag.String("tls-cert", "", "PEM certificate; with -tls-key, wraps the TCP front end in TLS (tcps://)")
		tlsKey       = flag.String("tls-key", "", "PEM private key for -tls-cert")
		advertise    = flag.String("advertise", "", "URL peers reach this daemon at (tcp://host:port or tcps://...), enables acting as a migration source with warm standby")
		verbose      = flag.Bool("v", false, "log client operations")
	)
	flag.Parse()
	gen := inherit.Generation()
	logger := log.New(os.Stderr, fmt.Sprintf("puddled[gen %d]: ", gen), log.LstdFlags)

	dev := pmem.New()
	if err := dev.RestoreFile(*store); err != nil {
		logger.Fatalf("restoring %s: %v", *store, err)
	}
	opts := []daemon.Option{
		daemon.WithConnWorkers(*connWorkers),
		daemon.WithRecoveryWorkers(*recWorkers),
		daemon.WithMaxConns(*maxConns),
		daemon.WithMaxSessions(*maxSessions),
		daemon.WithSessionIdle(*sessionIdle),
		daemon.WithMaxGrantsPerSession(*maxGrants),
		daemon.WithMaxBytesPerSession(*maxBytes),
	}
	if *legacyCkpt {
		opts = append(opts, daemon.WithLegacyCheckpoints())
	}
	if *advertise != "" {
		opts = append(opts, daemon.WithAdvertiseURL(*advertise))
	}
	var tlsConf *tls.Config
	if *tlsCert != "" || *tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			logger.Fatalf("loading TLS keypair: %v", err)
		}
		tlsConf = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	if *verbose {
		opts = append(opts, daemon.WithLogger(logger))
	}
	d, err := daemon.New(dev, opts...)
	if err != nil {
		logger.Fatalf("boot: %v", err)
	}
	st := d.Stats()
	logger.Printf("booted: %d pools, %d puddles; recovery passes so far: %d; checkpoint seq %d (%d chunks streamed); "+
		"checkpoint load %v, journal replay %v (%d entries)",
		st.Pools, st.Puddles, st.Recoveries, st.CheckpointSeq, st.CheckpointChunks,
		time.Duration(st.BootLoadNs), time.Duration(st.BootReplayNs), st.JournalReplayed)

	// Front ends: inherited fds from a predecessor (SIGHUP restart), or
	// fresh binds from the flags.
	var listeners []net.Listener
	if *inheritFDs {
		listeners, err = inherit.Listeners()
		if err != nil {
			logger.Fatalf("adopting inherited listeners: %v", err)
		}
		if len(listeners) == 0 {
			logger.Fatalf("-inherit set but no listeners in the environment")
		}
		for _, l := range listeners {
			logger.Printf("inherited %s listener on %v", l.Addr().Network(), l.Addr())
		}
	} else {
		if *socket != "" {
			os.Remove(*socket)
			l, err := net.Listen("unix", *socket)
			if err != nil {
				logger.Fatalf("listen unix %s: %v", *socket, err)
			}
			listeners = append(listeners, l)
		}
		if *tcpAddr != "" {
			l, err := net.Listen("tcp", *tcpAddr)
			if err != nil {
				logger.Fatalf("listen tcp %s: %v", *tcpAddr, err)
			}
			if tlsConf != nil {
				l = tls.NewListener(l, tlsConf)
				logger.Printf("TLS enabled on %s", *tcpAddr)
			}
			listeners = append(listeners, l)
		}
		if len(listeners) == 0 {
			logger.Fatalf("no front end: both -socket and -tcp are empty")
		}
	}
	for _, l := range listeners {
		logger.Printf("serving on %s://%v (store %s)", l.Addr().Network(), l.Addr(), *store)
		go func(l net.Listener) {
			if err := d.Serve(l); err != nil {
				logger.Printf("serve %v: %v", l.Addr(), err)
			}
		}(l)
	}

	// Drive any in-flight migrations the previous run left behind to
	// exactly one owner, and restart replication streams. Runs after
	// the front ends are up (resolution dials migration peers, who may
	// need to dial back).
	go func() {
		if n := d.ResolveMigrations(); n > 0 {
			logger.Printf("%d migration(s) unresolved (peer unreachable); affected pools stay frozen until a recover pass", n)
		}
	}()

	// Periodic image sync: bounds data loss to the sync interval if the
	// host dies (the simulated medium itself is process memory).
	stopSync := make(chan struct{})
	if *syncSecs > 0 {
		go func() {
			t := time.NewTicker(time.Duration(*syncSecs) * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := dev.SaveFile(*store); err != nil {
						logger.Printf("sync: %v", err)
					}
				case <-stopSync:
					return
				}
			}
		}()
	}

	save := func() {
		if err := dev.SaveFile(*store); err != nil {
			logger.Printf("final save: %v", err)
		}
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case s := <-sigc:
			close(stopSync)
			if s == syscall.SIGHUP {
				restart(d, dev, logger, listeners, *drainTimeout, save)
				return // not reached on success (restart exits)
			}
			logger.Printf("draining (signal %v)", s)
			d.Drain(*drainTimeout)
			save()
			logger.Printf("clean shutdown")
			return
		case <-d.Done():
			// Remote OpShutdown (puddlectl shutdown): the daemon has
			// already checkpointed; persist the image and exit.
			select {
			case <-stopSync:
			default:
				close(stopSync)
			}
			save()
			logger.Printf("shut down by client request")
			return
		}
	}
}

// restart hands the live listener fds to a successor process: drain
// (keeping the fds), save the image the successor will boot from, then
// exec it with -inherit. The kernel backlog queues new connections
// during the gap; nothing is refused.
func restart(d *daemon.Daemon, dev *pmem.Device, logger *log.Logger, listeners []net.Listener, drainTimeout time.Duration, save func()) {
	logger.Printf("restart requested: draining with listener fds held")
	d.Detach(drainTimeout)
	save() // successor boots from this image
	args := append([]string(nil), os.Args[1:]...)
	args = append(args, "-inherit")
	cmd, files, err := inherit.Command(args, listeners)
	if err != nil {
		logger.Fatalf("restart: exporting listeners: %v", err)
	}
	cmd.Env = append(cmd.Env, inherit.GenerationEnv())
	if err := cmd.Start(); err != nil {
		logger.Fatalf("restart: starting successor: %v", err)
	}
	for _, f := range files {
		f.Close()
	}
	logger.Printf("successor pid %d started; exiting", cmd.Process.Pid)
	cmd.Process.Release()
	os.Exit(0)
}
