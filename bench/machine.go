package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
)

// machine is one booted box: a simulated device, the daemon that owns
// it and the real socket the daemon serves. Client and daemon share
// the process because the device is the DAX stand-in both must map.
type machine struct {
	dev     *pmem.Device
	d       *daemon.Daemon
	network string // "unix" or "tcp"
	url     string // what clients dial; changes when a tcp machine reboots
	wire    *wireCounts
	served  chan struct{}
}

// outDir holds sockets and trace files. It is relative to the working
// directory, which is bench/ under `go run -C bench .` and `go test`.
const outDir = "out"

var sockSeq atomic.Uint64

// boot starts a daemon on dev (running recovery if the image is dirty)
// and serves it on a fresh UNIX socket or loopback TCP port. wire, when
// non-nil, counts the daemon side's reads and writes.
func boot(dev *pmem.Device, network string, wire *wireCounts) (*machine, error) {
	m := &machine{dev: dev, network: network, wire: wire}
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *machine) start() error {
	d, err := daemon.New(m.dev)
	if err != nil {
		return fmt.Errorf("daemon boot: %w", err)
	}
	addr := "127.0.0.1:0"
	if m.network == "unix" {
		// Relative on purpose: a checkout may sit deeper than the 108
		// bytes a socket address holds.
		addr = filepath.Join(outDir, fmt.Sprintf("%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	}
	l, err := net.Listen(m.network, addr)
	if err != nil {
		return err
	}
	m.url = m.network + "://" + l.Addr().String()
	if m.wire != nil {
		l = countingListener{Listener: l, c: m.wire}
	}
	m.d, m.served = d, make(chan struct{})
	go func(served chan struct{}) {
		defer close(served)
		d.Serve(l)
	}(m.served)
	return nil
}

// dial connects a client the way an application would.
func (m *machine) dial() (*core.Client, error) { return core.Dial(m.url, m.dev) }

// powerFail is the crash: unflushed lines are resolved by the device
// (really lost on a chaos device) and the daemon dies without a
// checkpoint. Returns once no daemon goroutine is left on the device.
func (m *machine) powerFail() {
	m.dev.CrashNow()
	m.d.Kill()
	<-m.served
}

// stop is the clean shutdown: drain, checkpoint, mark the image clean.
func (m *machine) stop() {
	m.d.Drain(2 * time.Second)
	<-m.served
}
