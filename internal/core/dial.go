// Client-side transport: dialing the daemon by URL, and transparent
// reconnect-with-resume so idempotent metadata operations survive a
// daemon restart (the session layer makes the resumed connection the
// same tenant it was before the restart).
package core

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// ErrDisconnected wraps a transport failure on a non-idempotent
// operation: the connection died with the outcome unknown, and
// replaying the request could apply it twice. The client has already
// reconnected (or tried to) by the time this surfaces — the caller
// decides whether the operation is safe to reissue.
var ErrDisconnected = errors.New("core: connection to daemon lost")

// Reconnect backoff bounds: a restarting daemon is typically back
// within a drain window, so retries start tight and the total budget
// stays a few seconds — a client stuck longer than that should surface
// the failure rather than hang.
const (
	redialBackoffMin = 10 * time.Millisecond
	redialBackoffMax = 500 * time.Millisecond
	redialBudget     = 8 * time.Second
)

// transport is the client's reconnectable view of its daemon
// connection (zero value = fixed single connection, the Connect /
// SelfConn path).
type transport struct {
	mu      sync.Mutex
	conn    *proto.Conn
	redial  func() (net.Conn, error) // nil = not reconnectable
	hello   proto.Hello              // creds re-presented on reconnect
	sessID  uint64                   // session to resume (from last handshake)
	sessTok uint64
	closed  atomic.Bool
	redials atomic.Uint64 // successful reconnects
	resumes atomic.Uint64 // reconnects that resumed the session
}

// ParseURL splits a daemon URL into a net.Dial network/address pair.
// Accepted forms: "unix:///path/to.sock", "tcp://host:port",
// "tcps://host:port" (TLS over TCP), and a bare filesystem path (read
// as a UNIX socket path). The "tcps" network is dialed through
// dialNet, not net.Dial.
func ParseURL(s string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(s, "unix://"):
		return "unix", strings.TrimPrefix(s, "unix://"), nil
	case strings.HasPrefix(s, "tcp://"):
		return "tcp", strings.TrimPrefix(s, "tcp://"), nil
	case strings.HasPrefix(s, "tcps://"):
		return "tcps", strings.TrimPrefix(s, "tcps://"), nil
	case strings.Contains(s, "://"):
		return "", "", fmt.Errorf("core: unsupported daemon URL scheme in %q (want unix://, tcp:// or tcps://)", s)
	case s == "":
		return "", "", errors.New("core: empty daemon URL")
	default:
		return "unix", s, nil
	}
}

// DialNet dials one parsed (network, address) pair — the raw-socket
// counterpart of Dial for control-plane tools that speak the protocol
// directly (puddlectl).
func DialNet(network, address string) (net.Conn, error) {
	return dialNet(network, address)
}

// dialNet dials one parsed (network, address) pair. TLS connections
// skip certificate verification: deployments run daemon transport on
// a private network and TLS supplies wire privacy, not peer identity
// (there is no PKI to verify against).
func dialNet(network, address string) (net.Conn, error) {
	if network == "tcps" {
		return tls.Dial("tcp", address, &tls.Config{InsecureSkipVerify: true})
	}
	return net.Dial(network, address)
}

// Dial connects to a daemon at url ("unix:///path", "tcp://host:port",
// or a bare socket path) with the calling process's real credentials
// (verified against SO_PEERCRED on UNIX sockets). dev must be the
// device the daemon manages (the DAX-mapping stand-in).
func Dial(url string, dev *pmem.Device) (*Client, error) {
	return DialHello(url, dev, proto.Hello{UID: uint32(os.Getuid()), GID: uint32(os.Getgid())})
}

// DialHello is Dial with explicit handshake contents — credentials,
// and optionally a {Session, Token} pair to resume another client's
// session. The returned client reconnects automatically: if the
// connection dies mid-operation it redials with bounded backoff,
// resumes its session, and retries idempotent requests; requests whose
// replay could double-apply return an error wrapping ErrDisconnected
// instead.
func DialHello(url string, dev *pmem.Device, h proto.Hello) (*Client, error) {
	network, address, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	redial := func() (net.Conn, error) { return dialNet(network, address) }
	nc, err := redial()
	if err != nil {
		return nil, fmt.Errorf("core: dialing %s://%s: %w", network, address, err)
	}
	conn := proto.NewConnHello(nc, h)
	if err := conn.Handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	c := Connect(conn, dev)
	c.tr.redial = redial
	c.tr.hello = h
	c.tr.sessID, c.tr.sessTok = conn.Session()
	return c, nil
}

// current returns the live connection.
func (t *transport) current() *proto.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conn
}

// SessionID reports the transport session the client currently holds
// (0 for non-handshaken legacy paths).
func (c *Client) SessionID() uint64 {
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	if c.tr.sessID != 0 {
		return c.tr.sessID
	}
	id, _ := c.tr.conn.Session()
	return id
}

// Reconnects reports how many times the client has re-established its
// connection after a transport failure.
func (c *Client) Reconnects() uint64 { return c.tr.redials.Load() }

// SessionResumed reports how many reconnects re-attached the previous
// session (vs falling back to a fresh one).
func (c *Client) SessionResumes() uint64 { return c.tr.resumes.Load() }

// idempotentOp reports whether op may be safely replayed after a
// connection died with the outcome unknown. Reads and naturally
// idempotent registrations qualify; anything that creates, frees, or
// finalizes is excluded — replaying those could double-apply.
func idempotentOp(op proto.Op) bool {
	switch op {
	case proto.OpNop, proto.OpHello, proto.OpOpenPool, proto.OpListPools,
		proto.OpStat, proto.OpGetType, proto.OpListTypes,
		proto.OpGetExistPuddle, proto.OpRegisterType,
		proto.OpImportResolve, proto.OpImportMap:
		return true
	}
	return false
}

// rt is the one RoundTrip gateway for every client operation. A
// *RemoteError passes straight through (the daemon answered — the
// transport is fine) — except the typed pool-moved refusal, which
// carries the new owner's URL: the client re-dials the new owner,
// swaps its device view if the target is a registered peer, and
// retries the request there, so migrations are transparent at this
// layer. A transport error triggers a reconnect: redial with bounded
// backoff, resume the session, then retry the request if it is
// idempotent — otherwise surface ErrDisconnected with the reconnect
// already done, so the NEXT operation proceeds normally.
func (c *Client) rt(req *proto.Request) (*proto.Response, error) {
	// Bounded redirect loop: a moved pool answers once with its new
	// home; chains (A→B→C) resolve in as many hops.
	for hops := 0; ; hops++ {
		resp, err := c.rtOnce(req)
		if err == nil || hops >= 3 {
			return resp, err
		}
		target, moved := proto.PoolMovedTarget(err)
		if !moved {
			return resp, err
		}
		if ferr := c.followMove(target); ferr != nil {
			return nil, fmt.Errorf("core: pool moved to %s but redirect failed: %w", target, ferr)
		}
	}
}

func (c *Client) rtOnce(req *proto.Request) (*proto.Response, error) {
	conn := c.tr.current()
	resp, err := conn.RoundTrip(req)
	if err == nil {
		return resp, nil
	}
	var re *proto.RemoteError
	if errors.As(err, &re) {
		return resp, err
	}
	if c.tr.redial == nil || c.tr.closed.Load() {
		return resp, err
	}
	if rerr := c.reconnect(conn); rerr != nil {
		return nil, fmt.Errorf("%w: %v failed (%v) and reconnect failed: %w", ErrDisconnected, req.Op, err, rerr)
	}
	if !idempotentOp(req.Op) {
		return nil, fmt.Errorf("%w: outcome of %v unknown (reconnected; do not blindly retry)", ErrDisconnected, req.Op)
	}
	return c.tr.current().RoundTrip(req)
}

// reconnect re-establishes the connection unless another goroutine
// already has (old is the connection the caller saw die). It redials
// with doubling backoff inside a fixed budget and resumes the stored
// session; a daemon that rejects the resume outright (a HandshakeError,
// not a transport failure) gets one fallback attempt with a fresh
// session under the same credentials.
//
// The transport lock is held only to snapshot the handshake state and
// to swap the new connection in — never across a dial or a backoff
// sleep — so Close() interrupts an in-progress reconnect (checked each
// lap) instead of queueing behind the whole redial budget, and so do
// all other transport operations. Concurrent callers may both dial;
// the first to swap wins and the loser's connection is closed.
func (c *Client) reconnect(old *proto.Conn) error {
	t := &c.tr
	t.mu.Lock()
	if t.conn != old {
		t.mu.Unlock()
		return nil // a concurrent caller already reconnected
	}
	if t.closed.Load() {
		t.mu.Unlock()
		return proto.ErrClosed
	}
	hello := t.hello
	hello.Session, hello.Token = t.sessID, t.sessTok
	t.mu.Unlock()
	old.Close()
	deadline := time.Now().Add(redialBudget)
	backoff := redialBackoffMin
	for {
		if t.closed.Load() {
			return proto.ErrClosed
		}
		nc, err := t.redial()
		if err == nil {
			conn := proto.NewConnHello(nc, hello)
			err = conn.Handshake()
			if err == nil {
				t.mu.Lock()
				if t.closed.Load() || t.conn != old {
					closed := t.closed.Load()
					t.mu.Unlock()
					conn.Close() // client closed, or a concurrent reconnect won
					if closed {
						return proto.ErrClosed
					}
					return nil
				}
				t.conn = conn
				t.sessID, t.sessTok = conn.Session()
				t.mu.Unlock()
				t.redials.Add(1)
				if conn.Resumed() {
					t.resumes.Add(1)
				}
				return nil
			}
			conn.Close()
			var we *proto.WireError
			if errors.As(err, &we) {
				// Whatever answers at that address now does not speak this
				// protocol version; redialing it cannot help.
				return err
			}
			var he *proto.HandshakeError
			if errors.As(err, &he) && hello.Session != 0 {
				// The daemon is up but refuses the resume (token expired,
				// registry full of strangers). Keep the credentials, drop
				// the session, and try once more as a fresh tenant.
				hello.Session, hello.Token = 0, 0
				continue
			}
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > redialBackoffMax {
			backoff = redialBackoffMax
		}
	}
}

// followMove re-points the client at a pool's new owner: dial the
// target URL with the client's current credentials (a fresh session —
// the old session belongs to the old daemon), swap the transport, and
// swap the device view when the target is a registered peer. The
// sharded log space is dropped too: its hidden pool lives on the old
// daemon, so the next transaction sets a fresh one up against the new
// owner (the old daemon reaps the orphan with its session).
//
// Pools opened before the move still hold puddle handles into the old
// device; Pool.Refresh rebuilds them (Client.Run does it
// automatically when a transaction trips over the moved pool).
func (c *Client) followMove(url string) error {
	network, address, err := ParseURL(url)
	if err != nil {
		return err
	}
	c.tr.mu.Lock()
	hello := c.tr.hello
	c.tr.mu.Unlock()
	hello.Session, hello.Token = 0, 0
	nc, err := dialNet(network, address)
	if err != nil {
		return err
	}
	conn := proto.NewConnHello(nc, hello)
	if err := conn.Handshake(); err != nil {
		conn.Close()
		return err
	}
	c.peersMu.Lock()
	peerDev := c.peers[url]
	c.peersMu.Unlock()
	c.tr.mu.Lock()
	old := c.tr.conn
	c.tr.conn = conn
	c.tr.redial = func() (net.Conn, error) { return dialNet(network, address) }
	c.tr.hello = hello
	c.tr.sessID, c.tr.sessTok = conn.Session()
	c.tr.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if peerDev != nil {
		c.devP.Store(peerDev)
	}
	c.logSt.Store(nil) // next transaction re-creates the log space remotely
	c.moves.Add(1)
	return nil
}
