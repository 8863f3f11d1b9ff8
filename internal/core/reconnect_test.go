package core_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
)

func TestParseURL(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{"unix:///tmp/p.sock", "unix", "/tmp/p.sock", false},
		{"tcp://127.0.0.1:7464", "tcp", "127.0.0.1:7464", false},
		{"/tmp/bare.sock", "unix", "/tmp/bare.sock", false},
		{"http://x", "", "", true},
		{"", "", "", true},
	}
	for _, c := range cases {
		network, address, err := core.ParseURL(c.in)
		if (err != nil) != c.wantErr || network != c.network || address != c.address {
			t.Fatalf("ParseURL(%q) = %q, %q, %v", c.in, network, address, err)
		}
	}
}

// restartableDaemon kills the current daemon and boots a successor on
// the same TCP address (a dirty boot: Kill skips the checkpoint, so
// the successor replays — exactly a crashed daemon process).
type restartableDaemon struct {
	t    *testing.T
	dev  *pmem.Device
	d    *daemon.Daemon
	l    net.Listener
	addr string
}

func startRestartable(t *testing.T) *restartableDaemon {
	t.Helper()
	r := &restartableDaemon{t: t, dev: pmem.New()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = l.Addr().String()
	r.boot(l)
	t.Cleanup(func() { r.l.Close() })
	return r
}

func (r *restartableDaemon) boot(l net.Listener) {
	r.t.Helper()
	d, err := daemon.New(r.dev)
	if err != nil {
		r.t.Fatal(err)
	}
	r.d, r.l = d, l
	go d.Serve(l)
}

// killRebind kills the daemon and takes its address over.
func (r *restartableDaemon) killRebind() net.Listener {
	r.t.Helper()
	r.d.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", r.addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("rebinding %s: %v", r.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *restartableDaemon) crashRestart() {
	r.t.Helper()
	r.boot(r.killRebind())
}

// TestReconnectRetriesIdempotent: the daemon process dies and a
// successor takes the address; the client's next idempotent operation
// must succeed transparently — redial, session resume, retry.
func TestReconnectRetriesIdempotent(t *testing.T) {
	r := startRestartable(t)
	cl, err := core.Dial("tcp://"+r.addr, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreatePool("surviving", 0o666); err != nil {
		t.Fatal(err)
	}
	sid := cl.SessionID()

	r.crashRestart()

	// OpenPool is idempotent: retried on the new connection, and the
	// acknowledged CreatePool must have survived the dirty restart.
	if _, err := cl.OpenPool("surviving"); err != nil {
		t.Fatalf("idempotent op across crash-restart: %v", err)
	}
	if cl.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1", cl.Reconnects())
	}
	if cl.SessionResumes() != 1 {
		t.Fatalf("SessionResumes = %d, want 1", cl.SessionResumes())
	}
	if cl.SessionID() != sid {
		t.Fatalf("session changed: %d -> %d", sid, cl.SessionID())
	}
}

// TestReconnectNonIdempotentSurfacesErrDisconnected: an op whose replay
// could double-apply is NOT retried — the client reconnects, then
// reports ErrDisconnected so the caller decides.
func TestReconnectNonIdempotentSurfacesErrDisconnected(t *testing.T) {
	r := startRestartable(t)
	cl, err := core.Dial("tcp://"+r.addr, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Nop(); err != nil {
		t.Fatal(err)
	}

	r.crashRestart()

	_, err = cl.CreatePool("maybe", 0o666)
	if !errors.Is(err, core.ErrDisconnected) {
		t.Fatalf("non-idempotent op across crash = %v, want ErrDisconnected", err)
	}
	// The reconnect already happened under the hood: the next op rides
	// the fresh connection with no further redial.
	before := cl.Reconnects()
	if err := cl.Nop(); err != nil {
		t.Fatalf("op after ErrDisconnected: %v", err)
	}
	if cl.Reconnects() != before {
		t.Fatalf("extra reconnect: %d -> %d", before, cl.Reconnects())
	}
}

// TestReconnectStopsAtForeignPeer: when something that does not speak
// the protocol takes the daemon's address, the handshake fails with a
// typed wire error at once and the redial loop gives up on it rather
// than spending its whole budget on a peer that cannot answer.
func TestReconnectStopsAtForeignPeer(t *testing.T) {
	r := startRestartable(t)
	cl, err := core.Dial("tcp://"+r.addr, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Nop(); err != nil {
		t.Fatal(err)
	}
	r.l = r.killRebind()
	go func() {
		for {
			nc, err := r.l.Accept()
			if err != nil {
				return
			}
			nc.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			nc.Close()
		}
	}()
	start := time.Now()
	err = cl.Nop()
	var we *proto.WireError
	if !errors.As(err, &we) || we.Region != "handshake" {
		t.Fatalf("op against a foreign peer = %v, want a handshake wire error", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("gave up after %v, want at once", took)
	}
}

// TestCloseInterruptsReconnect: Close() aborts an in-progress redial
// loop promptly. The transport lock is not held across the dial
// budget, so Close neither blocks behind the loop nor waits for the
// full 8s budget to expire against a daemon that is never coming back.
func TestCloseInterruptsReconnect(t *testing.T) {
	r := startRestartable(t)
	cl, err := core.Dial("tcp://"+r.addr, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Nop(); err != nil {
		t.Fatal(err)
	}
	r.d.Kill() // nobody rebinds the address: every redial is refused
	errc := make(chan error, 1)
	go func() { errc <- cl.Nop() }()  // drives the reconnect loop
	time.Sleep(50 * time.Millisecond) // let the redial loop start
	start := time.Now()
	cl.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("op against a dead daemon succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reconnect loop ignored Close")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Close blocked %v behind the redial loop", el)
	}
}

// TestClosedClientDoesNotReconnect: Close disables the redial loop —
// a closed client fails fast instead of dialing a daemon it was told
// to leave alone.
func TestClosedClientDoesNotReconnect(t *testing.T) {
	r := startRestartable(t)
	cl, err := core.Dial("tcp://"+r.addr, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Nop(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Nop(); err == nil {
		t.Fatal("op on closed client succeeded")
	}
	if cl.Reconnects() != 0 {
		t.Fatalf("closed client reconnected %d times", cl.Reconnects())
	}
}

// TestIndexEvictsRecycledRange: client A holds pool P open while client
// B deletes P and creates Q, which takes P's freed range. When A opens
// Q, its address index must resolve Q's addresses to Q's heaps, not to
// P's stale ones: a free through P's heap fails on a slab-cached block
// ("parked in a worker allocation cache") and silently leaks a
// shared-heap one. The daemon restarts between P and Q, so its address
// manager hands out P's range even where it would otherwise pick a
// fresh one.
func TestIndexEvictsRecycledRange(t *testing.T) {
	r := startRestartable(t)
	url := "tcp://" + r.addr
	dial := func() *core.Client {
		cl, err := core.Dial(url, r.dev)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	a, b := dial(), dial()
	p, err := a.CreatePool("P", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	r.crashRestart()
	pb, err := b.OpenPool("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreatePool("Q", 0o666); err != nil {
		t.Fatal(err)
	}
	q, err := a.OpenPool("Q")
	if err != nil {
		t.Fatal(err)
	}
	if pr, qr := p.Puddles()[0].Range(), q.Puddles()[0].Range(); pr != qr {
		t.Fatalf("set-up: Q's root puddle at %v, P's was at %v — the range was not reused", qr, pr)
	}
	ti, err := a.RegisterType("recycle.obj", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint32{200, 400} { // a slab-cached object, then a shared-heap one
		var obj pmem.Addr
		if err := a.Run(q, func(tx *core.Tx) (err error) {
			obj, err = tx.Alloc(ti.ID, size)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		before := q.LiveObjects()
		if err := a.Run(q, func(tx *core.Tx) error { return tx.Free(obj) }); err != nil {
			t.Fatalf("freeing a %d B object: %v", size, err)
		}
		if after := q.LiveObjects(); after != before-1 {
			t.Fatalf("freeing a %d B object: Q holds %d live objects, was %d", size, after, before)
		}
	}
	for _, h := range q.Heaps() {
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
