package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"puddles/internal/chaos"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// connmt: multi-tenant transport scale-out over real TCP sockets. The
// sweep holds 64 → 4096 (-connmax) concurrent handshaken connections
// against one daemon and drives a fixed per-connection op count
// through each, reporting connect/handshake setup time, steady-state
// request throughput, and the accept-loop health counters — the
// acceptance bar is a completed sweep with zero accept-loop deaths.
// A kill/restart chaos pass (the same harness the -race CI step runs)
// rides along: every acknowledged op must survive every dirty daemon
// restart and every client must end the run reconnected. Results land
// in -connmtjson (default BENCH_8.json).

type connmtPoint struct {
	Conns            int     `json:"conns"`
	Ops              uint64  `json:"ops"`
	ConnectSeconds   float64 `json:"connect_seconds"`
	ConnsPerSec      float64 `json:"conns_per_sec"`
	Seconds          float64 `json:"seconds"`
	OpsPerSec        float64 `json:"ops_per_sec"`
	ActiveConns      int     `json:"active_conns"`
	ActiveSessions   int     `json:"active_sessions"`
	AcceptErrors     uint64  `json:"accept_errors"`
	HandshakeRejects uint64  `json:"handshake_rejects"`
}

type connmtChaos struct {
	Clients    int    `json:"clients"`
	Restarts   int    `json:"restarts"`
	Acked      int    `json:"acked_ops"`
	Unknown    int    `json:"unknown_outcome_ops"`
	Reconnects uint64 `json:"reconnects"`
	Resumes    uint64 `json:"session_resumes"`
}

type connmtReport struct {
	Benchmark        string        `json:"benchmark"`
	Scale            float64       `json:"scale"`
	MaxConns         int           `json:"max_conns"`
	OpsPerConn       int           `json:"ops_per_conn"`
	AcceptLoopDeaths int           `json:"accept_loop_deaths"`
	Points           []connmtPoint `json:"points"`
	Chaos            *connmtChaos  `json:"chaos,omitempty"`
}

// raiseFDLimit lifts the soft RLIMIT_NOFILE to the hard cap: a
// 4096-connection sweep holds ~8k descriptors in one process (both
// socket ends live here).
func raiseFDLimit() {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}

func runConnMT() error {
	raiseFDLimit()
	opsPerConn := scaled(200)
	report := connmtReport{
		Benchmark:  "conn_scaling",
		Scale:      *scale,
		MaxConns:   *connMax,
		OpsPerConn: opsPerConn,
	}
	header := []string{"conns", "connect", "conns/s", "ops", "ops/s", "accept-errs", "hs-rejects"}
	var rows [][]string
	for _, n := range []int{64, 256, 1024, 4096} {
		if n > *connMax {
			break
		}
		pt, err := connmtCell(n, opsPerConn, &report.AcceptLoopDeaths)
		if err != nil {
			return fmt.Errorf("connmt %d conns: %w", n, err)
		}
		report.Points = append(report.Points, pt)
		rows = append(rows, []string{
			fmt.Sprint(pt.Conns),
			fmt.Sprintf("%.3fs", pt.ConnectSeconds),
			fmt.Sprintf("%.0f", pt.ConnsPerSec),
			fmt.Sprint(pt.Ops),
			fmt.Sprintf("%.0f", pt.OpsPerSec),
			fmt.Sprint(pt.AcceptErrors),
			fmt.Sprint(pt.HandshakeRejects),
		})
	}
	table(header, rows)
	if report.AcceptLoopDeaths != 0 {
		return fmt.Errorf("accept loop died %d times during the sweep", report.AcceptLoopDeaths)
	}

	// Chaos rider: dirty daemon kills under live clients.
	clients := scaled(1600)
	if clients < 8 {
		clients = 8
	} else if clients > 32 {
		clients = 32
	}
	restarts := scaled(500)
	if restarts < 3 {
		restarts = 3
	} else if restarts > 5 {
		restarts = 5
	}
	res, err := chaos.DaemonRestartChurn(clients, restarts)
	if err != nil {
		return fmt.Errorf("connmt chaos: %w", err)
	}
	report.Chaos = &connmtChaos{
		Clients:    res.Clients,
		Restarts:   res.Restarts,
		Acked:      res.Acked,
		Unknown:    res.Unknown,
		Reconnects: res.Reconnects,
		Resumes:    res.Resumes,
	}
	fmt.Printf("chaos: %d clients x %d dirty restarts: %d acked ops all durable, %d unknown-outcome, %d reconnects (%d resumed)\n",
		res.Clients, res.Restarts, res.Acked, res.Unknown, res.Reconnects, res.Resumes)

	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*connmtJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *connmtJSON)
	return nil
}

// connmtCell runs one sweep point: establish n handshaken connections
// (pacing the dials so the backlog never overflows), drive ops through
// all of them, read the daemon's counters while everything is still
// attached, then tear down.
func connmtCell(n, opsPerConn int, loopDeaths *int) (connmtPoint, error) {
	pt := connmtPoint{Conns: n}
	dev := pmem.New()
	d, err := daemon.New(dev,
		daemon.WithConnWorkers(1),
		daemon.WithMaxConns(-1),
		daemon.WithMaxSessions(-1))
	if err != nil {
		return pt, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, err
	}
	addr := l.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(l) }()

	conns := make([]*proto.Conn, n)
	var (
		wg      sync.WaitGroup
		dialSem = make(chan struct{}, 128)
		dialErr atomic.Value
	)
	connectStart := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dialSem <- struct{}{}
			defer func() { <-dialSem }()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				dialErr.Store(fmt.Errorf("dial %d: %w", i, err))
				return
			}
			c := proto.NewConnHello(nc, proto.Hello{})
			if err := c.Handshake(); err != nil {
				dialErr.Store(fmt.Errorf("handshake %d: %w", i, err))
				nc.Close()
				return
			}
			conns[i] = c
		}(i)
	}
	wg.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		return pt, err
	}
	connectSecs := time.Since(connectStart).Seconds()
	pt.ConnectSeconds = connectSecs
	pt.ConnsPerSec = float64(n) / connectSecs

	var opErr atomic.Value
	opStart := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *proto.Conn) {
			defer wg.Done()
			for k := 0; k < opsPerConn; k++ {
				if _, err := c.RoundTrip(&proto.Request{Op: proto.OpNop}); err != nil {
					opErr.Store(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err, _ := opErr.Load().(error); err != nil {
		return pt, fmt.Errorf("ops at %d conns: %w", n, err)
	}
	secs := time.Since(opStart).Seconds()
	pt.Ops = uint64(n * opsPerConn)
	pt.Seconds = secs
	pt.OpsPerSec = float64(pt.Ops) / secs

	st := d.Stats()
	pt.ActiveConns = st.ActiveConns
	pt.ActiveSessions = st.ActiveSessions
	pt.AcceptErrors = st.AcceptErrors
	pt.HandshakeRejects = st.HandshakeRejects
	if st.ActiveConns != n {
		return pt, fmt.Errorf("ActiveConns = %d with %d clients attached", st.ActiveConns, n)
	}

	for _, c := range conns {
		c.Close()
	}
	if err := d.Drain(5 * time.Second); err != nil {
		return pt, err
	}
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		*loopDeaths++ // Serve never returned after drain: loop wedged
	}
	return pt, nil
}

func runConnChaos() error {
	clients := scaled(3200)
	if clients < 8 {
		clients = 8
	} else if clients > 128 {
		clients = 128
	}
	restarts := scaled(800)
	if restarts < 3 {
		restarts = 3
	} else if restarts > 12 {
		restarts = 12
	}
	res, err := chaos.DaemonRestartChurn(clients, restarts)
	if err != nil {
		return err
	}
	table(
		[]string{"clients", "restarts", "acked", "unknown", "reconnects", "resumes"},
		[][]string{{
			fmt.Sprint(res.Clients), fmt.Sprint(res.Restarts), fmt.Sprint(res.Acked),
			fmt.Sprint(res.Unknown), fmt.Sprint(res.Reconnects), fmt.Sprint(res.Resumes),
		}})
	fmt.Println("every acknowledged op durable; every client reconnected")
	return nil
}
