package daemon_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// startTCPDaemon boots a daemon on an ephemeral TCP listener and
// returns it with its device and address. The listener dies with the
// test.
func startTCPDaemon(t *testing.T, opts ...daemon.Option) (*daemon.Daemon, *pmem.Device, string) {
	t.Helper()
	dev := pmem.New()
	d, err := daemon.New(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)
	return d, dev, l.Addr().String()
}

func dialHello(t *testing.T, addr string, h proto.Hello) *proto.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewConnHello(nc, h)
}

func TestSessionResumeAcrossConnections(t *testing.T) {
	d, _, addr := startTCPDaemon(t)

	c1 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7})
	if err := c1.Handshake(); err != nil {
		t.Fatal(err)
	}
	id, tok := c1.Session()
	if id == 0 || tok == 0 {
		t.Fatalf("session = %d/%d, want non-zero", id, tok)
	}
	if c1.Resumed() {
		t.Fatal("fresh handshake reported Resumed")
	}
	c1.Close()

	c2 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7, Session: id, Token: tok})
	if err := c2.Handshake(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("resume not reported")
	}
	if id2, _ := c2.Session(); id2 != id {
		t.Fatalf("resumed session %d, want %d", id2, id)
	}
	if n := d.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1 (resume must not mint)", n)
	}
	if got := d.Stats().SessionResumes; got != 1 {
		t.Fatalf("SessionResumes = %d, want 1", got)
	}
}

func TestSessionResumeRejections(t *testing.T) {
	d, _, addr := startTCPDaemon(t)

	c1 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7})
	if err := c1.Handshake(); err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	id, tok := c1.Session()

	expectReject := func(h proto.Hello, wantSub string) {
		t.Helper()
		c := dialHello(t, addr, h)
		defer c.Close()
		err := c.Handshake()
		var he *proto.HandshakeError
		if !errors.As(err, &he) {
			t.Fatalf("Handshake = %v, want HandshakeError", err)
		}
		if !strings.Contains(he.Msg, wantSub) {
			t.Fatalf("reject %q, want substring %q", he.Msg, wantSub)
		}
	}
	expectReject(proto.Hello{UID: 7, GID: 7, Session: id, Token: tok + 1}, "bad token")
	expectReject(proto.Hello{UID: 8, GID: 8, Session: id, Token: tok}, "credential mismatch")
	expectReject(proto.Hello{UID: 7, GID: 7, Session: id + 1}, "no token")
	if got := d.Stats().HandshakeRejects; got != 3 {
		t.Fatalf("HandshakeRejects = %d, want 3", got)
	}
}

// TestSessionRemintAfterRestart: a daemon that has never seen a
// {Session, Token} pair (it restarted; the registry is volatile)
// re-mints the session under the presented ID so the client's identity
// survives.
func TestSessionRemintAfterRestart(t *testing.T) {
	d, _, addr := startTCPDaemon(t)
	c := dialHello(t, addr, proto.Hello{UID: 3, GID: 4, Session: 424242, Token: 99})
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Resumed() {
		t.Fatal("re-mint should report Resumed")
	}
	if id, tok := c.Session(); id != 424242 || tok != 99 {
		t.Fatalf("re-minted session = %d/%d", id, tok)
	}
	s := d.LookupSession(424242)
	if s == nil {
		t.Fatal("re-minted session not registered")
	}
	if s.Creds != (daemon.Creds{UID: 3, GID: 4}) {
		t.Fatalf("re-minted creds = %+v", s.Creds)
	}
}

func TestMaxConnsRefusesAtHandshake(t *testing.T) {
	d, _, addr := startTCPDaemon(t, daemon.WithMaxConns(1))
	c1 := dialHello(t, addr, proto.Hello{})
	defer c1.Close()
	// A round trip guarantees the first connection is registered.
	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpNop}); err != nil {
		t.Fatal(err)
	}
	c2 := dialHello(t, addr, proto.Hello{})
	defer c2.Close()
	err := c2.Handshake()
	var he *proto.HandshakeError
	if !errors.As(err, &he) || !strings.Contains(he.Msg, "connection limit") {
		t.Fatalf("second conn Handshake = %v, want connection-limit HandshakeError", err)
	}
	st := d.Stats()
	if st.HandshakeRejects == 0 {
		t.Fatal("HandshakeRejects not counted")
	}
	if st.ActiveConns != 1 {
		t.Fatalf("ActiveConns = %d, want 1", st.ActiveConns)
	}
}

// TestDrainWithPreHandshakeConn: a peer that connects and never sends
// its Hello must not hold Drain hostage — pre-handshake connections
// are tracked and hung up alongside the live set, so connWg.Wait
// cannot block on a goroutine parked in RecvHello.
func TestDrainWithPreHandshakeConn(t *testing.T) {
	d, _, addr := startTCPDaemon(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Let the daemon accept and park the handler in RecvHello.
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		d.Drain(200 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on a pre-handshake connection")
	}
}

// TestHandshakeDeadline: a silent peer is hung up once the handshake
// deadline passes, freeing its handler goroutine and connection slot.
func TestHandshakeDeadline(t *testing.T) {
	_, _, addr := startTCPDaemon(t, daemon.WithHandshakeTimeout(50*time.Millisecond))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = nc.Read(make([]byte, 1))
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent connection read = %v, want daemon hangup", err)
	}
}

// TestMaxConnsNotOversubscribedUnderRace: concurrent handshakes must
// not collectively slip past the cap — the slot is reserved atomically
// at check time, not after the handshake completes.
func TestMaxConnsNotOversubscribedUnderRace(t *testing.T) {
	d, _, addr := startTCPDaemon(t, daemon.WithMaxConns(4))
	const dialers = 32
	var wg sync.WaitGroup
	admitted := make([]*proto.Conn, dialers)
	for i := range admitted {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			c := proto.NewConnHello(nc, proto.Hello{})
			if c.Handshake() != nil {
				c.Close()
				return
			}
			admitted[i] = c
		}(i)
	}
	wg.Wait()
	live := 0
	for _, c := range admitted {
		if c != nil {
			live++
			defer c.Close()
		}
	}
	if live > 4 {
		t.Fatalf("%d connections admitted past a cap of 4", live)
	}
	if got := d.Stats().ActiveConns; got > 4 {
		t.Fatalf("ActiveConns = %d, want <= 4", got)
	}
}

// TestHelloRebindsSessionCredentials: OpHello's credential override
// follows through to the session, so a reconnect presenting the
// post-Hello credentials resumes it (before the fix the resume died on
// a credential mismatch and the client silently lost its identity).
func TestHelloRebindsSessionCredentials(t *testing.T) {
	_, _, addr := startTCPDaemon(t)
	c1 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7})
	if err := c1.Handshake(); err != nil {
		t.Fatal(err)
	}
	id, tok := c1.Session()
	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpHello, UID: 9, GID: 9}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := dialHello(t, addr, proto.Hello{UID: 9, GID: 9, Session: id, Token: tok})
	if err := c2.Handshake(); err != nil {
		t.Fatalf("resume with post-Hello creds: %v", err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("resume not reported")
	}
	// The handshake-time credentials no longer match the session.
	c3 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7, Session: id, Token: tok})
	defer c3.Close()
	var he *proto.HandshakeError
	if err := c3.Handshake(); !errors.As(err, &he) || !strings.Contains(he.Msg, "credential mismatch") {
		t.Fatalf("resume with pre-Hello creds = %v, want credential-mismatch reject", err)
	}
}

func TestMaxSessionsCapsMintsNotResumes(t *testing.T) {
	_, _, addr := startTCPDaemon(t, daemon.WithMaxSessions(1))
	c1 := dialHello(t, addr, proto.Hello{UID: 5, GID: 5})
	defer c1.Close()
	if err := c1.Handshake(); err != nil {
		t.Fatal(err)
	}
	id, tok := c1.Session()

	c2 := dialHello(t, addr, proto.Hello{UID: 6, GID: 6})
	defer c2.Close()
	err := c2.Handshake()
	var he *proto.HandshakeError
	if !errors.As(err, &he) || !strings.Contains(he.Msg, "session limit") {
		t.Fatalf("fresh session past cap = %v, want session-limit HandshakeError", err)
	}

	// Resuming the existing session does not mint and must pass.
	c3 := dialHello(t, addr, proto.Hello{UID: 5, GID: 5, Session: id, Token: tok})
	defer c3.Close()
	if err := c3.Handshake(); err != nil {
		t.Fatalf("resume under full registry: %v", err)
	}
}

func TestSessionIdleReap(t *testing.T) {
	d, _, addr := startTCPDaemon(t, daemon.WithSessionIdle(20*time.Millisecond))
	c := dialHello(t, addr, proto.Hello{})
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for d.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never reaped (count %d)", d.SessionCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSessionAccounting(t *testing.T) {
	d, _, addr := startTCPDaemon(t)
	c := dialHello(t, addr, proto.Hello{})
	defer c.Close()
	created, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "acct"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: created.Pool}); err != nil {
		t.Fatal(err)
	}
	id, _ := c.Session()
	s := d.LookupSession(id)
	if s == nil {
		t.Fatal("session not registered")
	}
	pools, grants := s.Accounting()
	if pools != 1 || grants != 1 {
		t.Fatalf("accounting = %d pools / %d grants, want 1/1", pools, grants)
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpDeletePool, Name: "acct"}); err != nil {
		t.Fatal(err)
	}
	if pools, _ = s.Accounting(); pools != 0 {
		t.Fatalf("pools after delete = %d, want 0", pools)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readFrame reads one wire frame off nc and returns its payload.
func readFrame(t *testing.T, nc net.Conn) []byte {
	t.Helper()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		t.Fatalf("reading a frame header: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr))
	if _, err := io.ReadFull(nc, payload); err != nil {
		t.Fatalf("reading a %d-byte frame: %v", len(payload), err)
	}
	if sum := binary.LittleEndian.Uint32(hdr[4:]); sum != crc32.Checksum(payload, castagnoli) {
		t.Fatalf("frame CRC %#x does not match its payload", sum)
	}
	return payload
}

// rawHandshake dials addr and completes the handshake in raw frames,
// for tests that then send what proto.Conn cannot produce.
func rawHandshake(t *testing.T, addr string) (net.Conn, proto.Welcome) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(proto.AppendHello(nil, &proto.Hello{Magic: proto.HandshakeMagic, Version: proto.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	var w proto.Welcome
	if err := proto.DecodeWelcome(readFrame(t, nc), &w); err != nil {
		t.Fatal(err)
	}
	if w.Err != "" || w.Session == 0 {
		t.Fatalf("welcome = %+v", w)
	}
	return nc, w
}

// TestRequestSIDMismatchRejected forges a request stamped for a
// different session than its connection's — something proto.Conn
// cannot produce, so it speaks raw frames.
func TestRequestSIDMismatchRejected(t *testing.T) {
	_, _, addr := startTCPDaemon(t)
	nc, w := rawHandshake(t, addr)
	if _, err := nc.Write(proto.AppendRequest(nil, &proto.Request{ID: 1, Op: proto.OpNop, SID: w.Session + 1})); err != nil {
		t.Fatal(err)
	}
	var resp proto.Response
	if err := proto.DecodeResponse(readFrame(t, nc), &resp, false); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || !strings.Contains(resp.Err, "session") {
		t.Fatalf("forged SID response = %+v, want session mismatch error", resp)
	}
}

// syncBuf is a log sink a test may read while the daemon writes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestNonProtocolPeerRefusedAtOnce: a peer that does not open with a
// Hello frame — a version-1 gob client, an HTTP probe — used to hold its
// handler until the handshake deadline. It is hung up on as soon as its
// first 8 bytes are in, with one HandshakeRejects tick and one log line
// naming what was seen; a well-formed Hello of another version still gets
// a typed Welcome.Err. The handshake timeout is a minute: nothing here
// may wait for it.
func TestNonProtocolPeerRefusedAtOnce(t *testing.T) {
	var logs syncBuf
	d, _, addr := startTCPDaemon(t, daemon.WithHandshakeTimeout(time.Minute), daemon.WithLogger(log.New(&logs, "", 0)))

	peers := map[string]func(nc net.Conn){
		"gob client": func(nc net.Conn) {
			gob.NewEncoder(nc).Encode(&proto.Hello{Magic: proto.HandshakeMagic, Version: 1})
		},
		"http probe": func(nc net.Conn) { nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")) },
	}
	rejects := uint64(0)
	for name, speak := range peers {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		speak(nc)
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 64)); err == nil {
			t.Fatalf("%s: daemon answered %d bytes, want a hangup", name, n)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: still connected after 5s", name)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want < 100ms", name, took)
		}
		nc.Close()
		rejects++
		waitFor(t, name+" to be counted", func() bool { return d.Stats().HandshakeRejects == rejects })
	}
	if got := strings.Count(logs.String(), "bad handshake frame"); got != len(peers) {
		t.Errorf("%d log lines for %d refused peers:\n%s", got, len(peers), logs.String())
	}
	if !strings.Contains(logs.String(), "47 45 54 20 2f 20 48 54") { // "GET / HT"
		t.Errorf("log does not name the bytes seen:\n%s", logs.String())
	}

	// Another version, well formed: answered in kind.
	start := time.Now()
	c := dialHello(t, addr, proto.Hello{Version: proto.ProtocolVersion + 1})
	defer c.Close()
	var he *proto.HandshakeError
	if err := c.Handshake(); !errors.As(err, &he) || !strings.Contains(he.Msg, "version") {
		t.Fatalf("wrong-version handshake = %v, want a typed version refusal", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("wrong version refused after %v, want < 100ms", took)
	}
	if st := d.Stats(); st.HandshakeRejects != rejects+1 || st.ActiveConns != 0 {
		t.Errorf("stats = %d rejects, %d active conns; want %d, 0", st.HandshakeRejects, st.ActiveConns, rejects+1)
	}
}

// TestBadFrameKillsConnection: after the handshake, a frame with a bad
// CRC, a length past proto.MaxFrame or a payload that does not decode
// gets its connection killed, counted in WireDecodeErrors and logged with
// the region (and the op, when the payload got that far) — and costs no
// allocation in proportion to the length it claims.
func TestBadFrameKillsConnection(t *testing.T) {
	var logs syncBuf
	d, _, addr := startTCPDaemon(t, daemon.WithLogger(log.New(&logs, "", 0)))
	reframe := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		return append(b, payload...)
	}
	good := proto.AppendRequest(nil, &proto.Request{ID: 1, Op: proto.OpFreePuddle, UUID: [16]byte{1}})
	for i, c := range []struct {
		name, logged string
		frame        []byte
	}{
		{"bad CRC", "bad request frame: CRC mismatch", func() []byte {
			b := bytes.Clone(good)
			b[len(b)-1] ^= 1
			return b
		}()},
		{"over-long", "bad request frame: frame length outside its cap", binary.LittleEndian.AppendUint32(nil, proto.MaxFrame+1)},
		{"undecodable", "bad request frame (FreePuddle): truncated", reframe(good[8 : len(good)-1])},
		{"non-canonical", "bad request frame (Nop): present field is zero", reframe([]byte{0, 1, 0x08, 0, 0})},
	} {
		nc, _ := rawHandshake(t, addr)
		if len(c.frame) < 8 {
			c.frame = append(c.frame, 0, 0, 0, 0) // a header is 8 bytes; nothing follows it
		}
		if _, err := nc.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		if n, err := nc.Read(make([]byte, 64)); err == nil {
			t.Fatalf("%s: daemon answered %d bytes, want a hangup", c.name, n)
		}
		waitFor(t, c.name+" to be counted", func() bool { return d.Stats().WireDecodeErrors == uint64(i+1) })
		if !strings.Contains(logs.String(), c.logged) {
			t.Errorf("%s: log lacks %q:\n%s", c.name, c.logged, logs.String())
		}
	}
	if st := d.Stats(); st.HandshakeRejects != 0 {
		t.Errorf("HandshakeRejects = %d after post-handshake errors", st.HandshakeRejects)
	}
	// The daemon is unharmed.
	c := dialHello(t, addr, proto.Hello{})
	defer c.Close()
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpNop}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPermissionsPerSession: two sessions with different
// credentials; the second must not chmod or delete the first's
// restricted pool (session creds gate the control plane exactly as
// OpHello creds did).
func TestPoolPermissionsPerSession(t *testing.T) {
	_, dev, addr := startTCPDaemon(t)
	owner, err := core.Dial("tcp://"+addr, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Hello(100, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.CreatePool("private", 0o600); err != nil {
		t.Fatal(err)
	}

	other, err := core.DialHello("tcp://"+addr, dev, proto.Hello{UID: 200, GID: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.RoundTrip(&proto.Request{Op: proto.OpChmodPool, Name: "private", Mode: 0o777}); err == nil {
		t.Fatal("foreign session chmodded a 0600 pool")
	}
	if _, err := other.RoundTrip(&proto.Request{Op: proto.OpDeletePool, Name: "private"}); err == nil {
		t.Fatal("foreign session deleted a 0600 pool")
	}
	if _, err := owner.RoundTrip(&proto.Request{Op: proto.OpDeletePool, Name: "private"}); err != nil {
		t.Fatalf("owner delete: %v", err)
	}
}

// TestMaxPoolsPerSession: the per-session open-pool cap refuses the
// N+1th distinct pool with the typed proto.PoolLimitMsg error, does
// not count re-opens of already-held pools, frees headroom on delete,
// and follows the session across reconnects (the cap is per tenant,
// not per connection).
func TestMaxPoolsPerSession(t *testing.T) {
	d, _, addr := startTCPDaemon(t, daemon.WithMaxPoolsPerSession(2))

	c1 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7})
	defer c1.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	// Third distinct pool: typed refusal, nothing created.
	_, err := c1.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "c"})
	if !proto.IsPoolLimit(err) {
		t.Fatalf("third pool: err = %v, want pool-limit refusal", err)
	}
	if resp, err := c1.RoundTrip(&proto.Request{Op: proto.OpListPools}); err != nil {
		t.Fatal(err)
	} else {
		for _, n := range resp.Names {
			if n == "c" {
				t.Fatal("refused pool exists")
			}
		}
	}
	// Re-opening a held pool does not count against the cap.
	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "a"}); err != nil {
		t.Fatalf("re-open within cap: %v", err)
	}
	if got := d.Stats().PoolCapRejects; got != 1 {
		t.Fatalf("PoolCapRejects = %d, want 1", got)
	}

	// The cap rides the session: a reconnect resuming the same session
	// inherits the open-pool set and stays capped...
	id, tok := c1.Session()
	c2 := dialHello(t, addr, proto.Hello{UID: 7, GID: 7, Session: id, Token: tok})
	defer c2.Close()
	if _, err := c2.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "d"}); !proto.IsPoolLimit(err) {
		t.Fatalf("resumed session past cap: err = %v", err)
	}
	// ...while a fresh session has its own headroom.
	c3 := dialHello(t, addr, proto.Hello{UID: 8, GID: 8})
	defer c3.Close()
	if _, err := c3.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "e"}); err != nil {
		t.Fatalf("fresh session: %v", err)
	}

	// Deleting a pool frees cap headroom.
	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpDeletePool, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "f"}); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	if got := d.Stats().PoolCapRejects; got != 2 {
		t.Fatalf("PoolCapRejects = %d, want 2", got)
	}
}
