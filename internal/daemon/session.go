package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"puddles/internal/proto"
	"puddles/internal/uid"
)

// Session is one tenant's attachment to the daemon. A session is
// established by the connection handshake (proto.Hello) and survives
// the connections that carry it: a client that loses its socket
// re-presents {ID, Token} on the next dial and resumes the same
// session, so per-tenant accounting is stable across reconnects and
// daemon restarts.
//
// Sessions are deliberately volatile — a restarted daemon re-mints a
// presented session under its original ID (the token is the client's
// proof; credentials are client-asserted, verified against the
// kernel's SO_PEERCRED answer on UNIX-domain sockets and trusted
// as-is on transports with no attested peer) — so the registry adds
// no journal traffic on the connection path.
type Session struct {
	ID    uint64
	Token uint64
	Creds Creds

	mu           sync.Mutex
	openPools    map[string]int // per-session open-pool counts (by name)
	grants       int            // outstanding puddle grants
	bytesGranted uint64         // backing bytes carved for this session
	conns        int            // attached connections
	lastSeen     time.Time      // last detach (idle reaping is for conns==0)
}

// credentials returns the session's current credentials.
func (s *Session) credentials() Creds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Creds
}

// setCreds rebinds the session's credentials. OpHello's per-connection
// credential override propagates here so a reconnect that re-presents
// the post-Hello credentials still resumes the session — without this
// the resume would die on a credential mismatch and the client would
// silently fall back to a fresh identity. Credentials are
// client-asserted in this simulated-SO_PEERCRED model, so this is no
// weaker than the handshake that set them.
func (s *Session) setCreds(c Creds) {
	s.mu.Lock()
	s.Creds = c
	s.mu.Unlock()
}

// notePoolOpen records a successful pool open/create on the session.
func (s *Session) notePoolOpen(name string) {
	s.mu.Lock()
	if s.openPools == nil {
		s.openPools = make(map[string]int)
	}
	s.openPools[name]++
	s.mu.Unlock()
}

// notePoolGone drops a pool from the session's accounting (delete).
func (s *Session) notePoolGone(name string) {
	s.mu.Lock()
	delete(s.openPools, name)
	s.mu.Unlock()
}

// poolCapExceeded reports whether opening pool name would push the
// session past max distinct open pools (0 = unlimited). A pool the
// session already holds open is always re-openable — the cap bounds
// breadth, not open-call count.
func (s *Session) poolCapExceeded(name string, max int) bool {
	if max <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, open := s.openPools[name]; open {
		return false
	}
	return len(s.openPools) >= max
}

// noteGrant adjusts the session's outstanding puddle-grant count.
func (s *Session) noteGrant(delta int) {
	s.mu.Lock()
	s.grants += delta
	if s.grants < 0 {
		s.grants = 0
	}
	s.mu.Unlock()
}

// grantCapExceeded reports whether one more puddle grant would push
// the session past max outstanding grants (0 = unlimited).
func (s *Session) grantCapExceeded(max int) bool {
	if max <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grants >= max
}

// noteBytes adds carved backing bytes to the session's account.
// Bytes are not returned on free: the cap meters cumulative carve
// pressure, the resource the daemon actually cannot reclaim cheaply.
func (s *Session) noteBytes(n uint64) {
	s.mu.Lock()
	s.bytesGranted += n
	s.mu.Unlock()
}

// byteCapExceeded reports whether carving n more bytes would push the
// session past max (0 = unlimited).
func (s *Session) byteCapExceeded(n, max uint64) bool {
	if max == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesGranted+n > max
}

// bytesGrantedNow returns the session's current byte account.
func (s *Session) bytesGrantedNow() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesGranted
}

// Accounting returns the session's open-pool and grant counts.
func (s *Session) Accounting() (pools, grants int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.openPools), s.grants
}

// Session limit defaults; tests and puddled flags override via
// options. Idle reaping applies only to sessions with no attached
// connection — a live connection keeps its session indefinitely.
const (
	defaultMaxConns    = 8192
	defaultMaxSessions = 4096
	defaultSessionIdle = 5 * time.Minute
	// defaultHandshakeTimeout bounds the Hello/Welcome exchange on an
	// accepted connection. A peer that connects and never speaks (nc,
	// a port scanner) would otherwise park its handler goroutine in
	// RecvHello indefinitely, holding a connection slot.
	defaultHandshakeTimeout = 10 * time.Second
)

// WithMaxConns caps concurrent post-handshake connections; excess
// connections are refused at the handshake (HandshakeRejects).
func WithMaxConns(n int) Option { return func(d *Daemon) { d.maxConns = n } }

// WithMaxSessions caps live sessions in the registry.
func WithMaxSessions(n int) Option { return func(d *Daemon) { d.maxSessions = n } }

// WithMaxPoolsPerSession caps how many distinct pools one session may
// hold open concurrently (0 = unlimited). An open/create past the cap
// is refused with the typed proto.PoolLimitMsg error (PoolCapRejects
// counts them); re-opening a pool the session already holds never
// counts against the cap.
func WithMaxPoolsPerSession(n int) Option { return func(d *Daemon) { d.maxPoolsPerSession = n } }

// WithMaxGrantsPerSession caps a session's outstanding puddle grants
// (0 = unlimited). A grant past the cap is refused with the typed
// proto.GrantLimitMsg error (GrantCapRejects counts them); freeing a
// puddle returns its grant.
func WithMaxGrantsPerSession(n int) Option { return func(d *Daemon) { d.maxGrantsPerSession = n } }

// WithMaxBytesPerSession caps the cumulative backing bytes one
// session may have carved (pool creates + new puddles; 0 =
// unlimited). Refusals carry the typed proto.ByteLimitMsg error
// (ByteCapRejects counts them). The account is cumulative — frees do
// not refund it — because carve pressure, not residency, is what the
// operator is bounding.
func WithMaxBytesPerSession(n uint64) Option { return func(d *Daemon) { d.maxBytesPerSession = n } }

// WithSessionIdle sets how long a session with no attached connection
// survives before it is reaped (its resume token stops working).
func WithSessionIdle(idle time.Duration) Option {
	return func(d *Daemon) {
		if idle > 0 {
			d.sessIdle = idle
		}
	}
}

// WithHandshakeTimeout bounds how long an accepted connection may
// take to complete the session handshake (default 10s).
func WithHandshakeTimeout(to time.Duration) Option {
	return func(d *Daemon) {
		if to > 0 {
			d.hsTimeout = to
		}
	}
}

// rand64 returns a non-zero 64-bit identifier. Session IDs and tokens
// are random, not sequential, so a restarted daemon cannot hand a new
// client the ID an old client is about to resume.
func rand64() uint64 {
	for {
		u := uid.New()
		if v := binary.LittleEndian.Uint64(u[:8]); v != 0 {
			return v
		}
	}
}

// handshake runs the server side of the Hello/Welcome exchange:
// validate the frame, enforce the connection cap, then attach the
// connection to its session — resuming the presented one, or minting
// a fresh one under the session cap. It returns the session (nil with
// a logged reject if the connection was refused).
func (d *Daemon) handshake(sc *proto.ServerConn) (*Session, error) {
	// The whole exchange runs under a deadline (cleared on success): a
	// peer that connects and never sends its Hello must be cut loose,
	// not hold a handler goroutine in RecvHello forever.
	to := d.hsTimeout
	if to <= 0 {
		to = defaultHandshakeTimeout
	}
	sc.SetDeadline(time.Now().Add(to))
	h, err := sc.RecvHello()
	if err != nil {
		// Not a Hello: a non-protocol peer (or a version-1 gob client) has
		// no frame format to be answered in, so it is hung up on now
		// rather than when the deadline fires.
		if d.noteWireError(err) {
			d.hsRejects.Add(1)
		}
		return nil, err
	}
	reject := func(msg string) (*Session, error) {
		d.hsRejects.Add(1)
		sc.SendWelcome(&proto.Welcome{Err: msg})
		return nil, &proto.HandshakeError{Msg: msg}
	}
	if msg := proto.CheckHello(h); msg != "" {
		return reject(msg)
	}
	// On transports with a kernel-attested peer (UNIX sockets,
	// SO_PEERCRED) the asserted credentials must match the socket's
	// real ones — a forged Hello is rejected before it can reach any
	// permission check. Other transports fall back to trusting the
	// Hello (the simulated-SO_PEERCRED model).
	if pc, ok := peerCreds(sc.NetConn()); ok && (pc.UID != h.UID || pc.GID != h.GID) {
		return reject(fmt.Sprintf("peer credential mismatch (socket %d:%d, hello %d:%d)",
			pc.UID, pc.GID, h.UID, h.GID))
	}
	// Reserve the connection slot atomically at check time: N racing
	// handshakes each claim their own increment, so they cannot all
	// pass a check against a counter bumped only later. The
	// reservation transfers to the registered connState on success
	// (unregisterConn releases it) and is released on every failure
	// path below.
	if n := d.activeConns.Add(1); d.maxConns > 0 && n > int64(d.maxConns) {
		d.activeConns.Add(-1)
		return reject("connection limit reached")
	}
	creds := Creds{UID: h.UID, GID: h.GID}
	sess, resumed, msg := d.attachSession(h, creds)
	if msg != "" {
		d.activeConns.Add(-1)
		return reject(msg)
	}
	if err := sc.SendWelcome(&proto.Welcome{Session: sess.ID, Token: sess.Token, Resumed: resumed}); err != nil {
		d.detachSession(sess)
		d.activeConns.Add(-1)
		return nil, err
	}
	sc.SetDeadline(time.Time{})
	return sess, nil
}

// attachSession resolves a Hello to a session under the registry lock.
// A presented {ID, Token} resumes its session when the registry still
// holds it (credentials must match — a token is not transferable to
// different creds); an ID the registry no longer knows is re-minted
// in place, because the daemon may have restarted since the token was
// issued and the client's acked state is keyed by that session.
func (d *Daemon) attachSession(h *proto.Hello, creds Creds) (sess *Session, resumed bool, reject string) {
	now := time.Now()
	d.tenMu.Lock()
	defer d.tenMu.Unlock()
	d.reapIdleLocked(now)
	if h.Session != 0 {
		if s, ok := d.tenants[h.Session]; ok {
			if s.Token != h.Token {
				return nil, false, "session resume denied (bad token)"
			}
			s.mu.Lock()
			if s.Creds != creds {
				s.mu.Unlock()
				return nil, false, "session resume denied (credential mismatch)"
			}
			s.conns++
			s.mu.Unlock()
			d.sessResumes.Add(1)
			return s, true, ""
		}
		if h.Token == 0 {
			return nil, false, "session resume denied (no token)"
		}
		// Unknown ID with a token: the daemon restarted since the token
		// was issued. Re-mint the session in place so the client's
		// identity survives the restart.
		if max := d.maxSessions; max > 0 && len(d.tenants) >= max {
			return nil, false, "session limit reached"
		}
		s := &Session{ID: h.Session, Token: h.Token, Creds: creds, conns: 1, lastSeen: now}
		d.tenants[h.Session] = s
		d.sessResumes.Add(1)
		return s, true, ""
	}
	if max := d.maxSessions; max > 0 && len(d.tenants) >= max {
		return nil, false, "session limit reached"
	}
	s := &Session{ID: rand64(), Token: rand64(), Creds: creds, conns: 1, lastSeen: now}
	for d.tenants[s.ID] != nil {
		s.ID = rand64()
	}
	d.tenants[s.ID] = s
	return s, false, ""
}

// detachSession drops one connection from a session. The session
// itself stays registered (resumable) until idle reaping expires it.
func (d *Daemon) detachSession(s *Session) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.conns--
	s.lastSeen = time.Now()
	s.mu.Unlock()
}

// reapIdleLocked expires sessions with no attached connection that
// have been idle past the deadline. Caller holds tenMu.
func (d *Daemon) reapIdleLocked(now time.Time) {
	idle := d.sessIdle
	if idle <= 0 {
		idle = defaultSessionIdle
	}
	for id, s := range d.tenants {
		s.mu.Lock()
		dead := s.conns == 0 && now.Sub(s.lastSeen) > idle
		s.mu.Unlock()
		if dead {
			delete(d.tenants, id)
		}
	}
}

// SessionCount returns the number of live sessions (reaping idle ones
// first, so the count reflects what a new handshake would see).
func (d *Daemon) SessionCount() int {
	d.tenMu.Lock()
	defer d.tenMu.Unlock()
	d.reapIdleLocked(time.Now())
	return len(d.tenants)
}

// LookupSession returns the registered session, or nil.
func (d *Daemon) LookupSession(id uint64) *Session {
	d.tenMu.Lock()
	defer d.tenMu.Unlock()
	return d.tenants[id]
}

// --- connection lifecycle (drain / detach / kill) ---

// connState is the daemon's view of one live connection, enough for
// Drain to decide when it is safe to hang up: inflight counts requests
// decoded but not yet answered, lastReq is when the last request was
// decoded (UnixNano) — a pipelining client is "done" only when both
// say so for a quiet window.
type connState struct {
	sc       *proto.ServerConn
	sess     *Session
	inflight atomic.Int64
	lastReq  atomic.Int64
}

// quietWindow is how long a connection must be requestless (and
// inflight-free) before Drain considers it settled — long enough for
// a pipelined batch in the socket buffer to be decoded, short enough
// that drains feel instant to an operator.
const drainQuietWindow = 50 * time.Millisecond

// trackHandshake registers a connection still mid-handshake so
// drain/kill can hang it up: until the handshake completes the conn
// is not in d.conns, and without this set a peer parked in RecvHello
// would be unreachable by closeConns — connWg.Wait would block until
// the handshake deadline (or forever, before there was one).
func (d *Daemon) trackHandshake(sc *proto.ServerConn) {
	d.connsMu.Lock()
	if d.hsConns == nil {
		d.hsConns = make(map[*proto.ServerConn]struct{})
	}
	d.hsConns[sc] = struct{}{}
	down := d.connsDown
	d.connsMu.Unlock()
	if down {
		sc.Close() // closeConns already swept; don't outlive the drain
	}
}

// untrackHandshake drops a connection whose handshake failed (a
// successful handshake moves it to the live set via registerConn).
func (d *Daemon) untrackHandshake(sc *proto.ServerConn) {
	d.connsMu.Lock()
	delete(d.hsConns, sc)
	d.connsMu.Unlock()
}

// registerConn promotes a connection from the pre-handshake set to
// the live set in one critical section, so a concurrent closeConns
// cannot slip between the two and miss it. The connection slot itself
// was reserved in handshake (activeConns); unregisterConn releases it.
func (d *Daemon) registerConn(cs *connState) {
	d.connsMu.Lock()
	delete(d.hsConns, cs.sc)
	if d.conns == nil {
		d.conns = make(map[*connState]struct{})
	}
	d.conns[cs] = struct{}{}
	down := d.connsDown
	d.connsMu.Unlock()
	if down {
		cs.sc.Close() // drain already swept; unwind the read loop now
	}
}

func (d *Daemon) unregisterConn(cs *connState) {
	d.connsMu.Lock()
	delete(d.conns, cs)
	d.connsMu.Unlock()
	d.activeConns.Add(-1)
}

// settled reports whether every live connection has no request in
// flight and has been quiet for the drain window.
func (d *Daemon) settled(now time.Time) bool {
	d.connsMu.Lock()
	defer d.connsMu.Unlock()
	for cs := range d.conns {
		if cs.inflight.Load() != 0 {
			return false
		}
		if now.UnixNano()-cs.lastReq.Load() < int64(drainQuietWindow) {
			return false
		}
	}
	return true
}

// closeConns hangs up every live connection (their handleConn loops
// unwind on the closed socket) and every connection still
// mid-handshake. It also latches connsDown, so a connection racing
// from accept or handshake into either set hangs itself up — the
// daemon is shutting down either way, the flag is never cleared.
func (d *Daemon) closeConns() {
	d.connsMu.Lock()
	d.connsDown = true
	conns := make([]*connState, 0, len(d.conns))
	for cs := range d.conns {
		conns = append(conns, cs)
	}
	pre := make([]*proto.ServerConn, 0, len(d.hsConns))
	for sc := range d.hsConns {
		pre = append(pre, sc)
	}
	d.connsMu.Unlock()
	for _, cs := range conns {
		cs.sc.Close()
	}
	for _, sc := range pre {
		sc.Close()
	}
}

// stopListeners wakes every Serve loop: closing the listener when the
// fds are disposable, or — keepFDs, the restart-handoff path — firing
// an immediate accept deadline so the loop observes stopAccept and
// returns with the listener intact (Serve resets the deadline before
// returning, so an inheriting daemon accepts normally).
func (d *Daemon) stopListeners(keepFDs bool) {
	d.lsnMu.Lock()
	listeners := append([]net.Listener(nil), d.listeners...)
	d.lsnMu.Unlock()
	for _, l := range listeners {
		if !keepFDs {
			l.Close()
			continue
		}
		if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok {
			dl.SetDeadline(time.Now())
		} else {
			l.Close() // cannot wake it politely; fd is lost to handoff
		}
	}
}

// Drain is the graceful stop: stop accepting, let in-flight (and
// already-pipelined) requests finish — bounded by timeout — then hang
// up every client, checkpoint, and mark the device clean. The daemon
// is shut down when Drain returns.
func (d *Daemon) Drain(timeout time.Duration) error {
	return d.drain(timeout, false)
}

// Detach is Drain for the zero-downtime restart handoff: identical,
// except the listener fds survive (their accept loops return with the
// sockets open) so a successor process can inherit them. Connections
// are still hung up — clients reconnect to the successor through the
// listener backlog.
func (d *Daemon) Detach(timeout time.Duration) error {
	return d.drain(timeout, true)
}

func (d *Daemon) drain(timeout time.Duration, keepFDs bool) error {
	d.stopAccept.Store(true)
	d.stopListeners(keepFDs)
	deadline := time.Now().Add(timeout)
	for !d.settled(time.Now()) {
		if time.Now().After(deadline) {
			d.logf("drain: timeout after %v with connections still busy", timeout)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.closeConns()
	d.connWg.Wait()
	d.Shutdown()
	return nil
}

// Kill is the chaos hard-stop: close the listeners and every
// connection, wait for the handler goroutines to unwind, and mark the
// daemon closed WITHOUT checkpointing or clearing the dirty flag —
// exactly the state a crashed daemon process leaves behind, except no
// goroutines survive to race a successor daemon on the device.
func (d *Daemon) Kill() {
	d.stopAccept.Store(true)
	d.stopListeners(false)
	d.closeConns()
	d.connWg.Wait()
	d.closed.Store(true)
	d.signalDone()
}

// Done is closed once the daemon has shut down (Shutdown, Drain,
// Detach or Kill) — what cmd/puddled selects on to exit after a
// remote OpShutdown.
func (d *Daemon) Done() <-chan struct{} { return d.doneCh }

func (d *Daemon) signalDone() {
	d.doneOnce.Do(func() { close(d.doneCh) })
}

// temporaryAcceptErr classifies accept-loop failures worth retrying:
// fd exhaustion (EMFILE/ENFILE), connections aborted in the backlog,
// interrupted syscalls, and anything advertising Temporary(). A
// closed listener is never temporary.
func temporaryAcceptErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.EINTR, syscall.EAGAIN:
			return true
		}
	}
	if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return false
}
