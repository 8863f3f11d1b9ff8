// Package proto defines the wire protocol between Libpuddles and the
// Puddled daemon (paper Fig. 2).
//
// The paper's daemon speaks over a UNIX domain socket and passes file
// descriptors as capabilities; we speak length-prefixed, CRC-guarded
// binary frames (wire.go) over any net.Conn (a real UNIX socket for
// cmd/puddled, an in-process net.Pipe for tests and benchmarks) and
// return grant records {address, size, writability} standing in for
// the fd capability.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// ErrClosed is the deterministic error every outstanding and future
// RoundTrip fails with after a local Conn.Close — distinct from the
// decode error the reader goroutine would otherwise race into, so
// client retry logic can tell "we hung up" from "the peer died".
var ErrClosed = errors.New("proto: connection closed")

// --- handshake (session layer) ---

// Handshake constants. Every connection must complete a Hello/Welcome
// exchange before any request is dispatched: the magic rejects
// non-protocol peers, the version gates wire compatibility, and the
// credentials+resume token establish (or re-attach) the connection's
// session. The exchange replaces the informal OpHello-as-first-request
// convention (OpHello survives as a per-connection credential
// override for tools).
const (
	// HandshakeMagic spells "PUDDLES1" (little-endian).
	HandshakeMagic uint64 = 0x3153454c44445550
	// ProtocolVersion is bumped on every change to the wire format
	// (wire.go); version 1 was the gob stream.
	ProtocolVersion uint16 = 3
)

// Hello is the first frame a client writes on a new connection.
type Hello struct {
	Magic   uint64
	Version uint16
	UID     uint32 // credentials (verified against SO_PEERCRED on UNIX sockets)
	GID     uint32
	Session uint64 // session to resume (0 = start a new session)
	Token   uint64 // resume proof for Session
}

// Welcome answers a Hello. A non-empty Err means the handshake was
// rejected and the daemon is closing the connection.
type Welcome struct {
	Err     string
	Version uint16 // daemon's protocol version
	Session uint64 // the session this connection is attached to
	Token   uint64 // present to resume the session after a reconnect
	Resumed bool   // an existing session was re-attached
}

// HandshakeError is a handshake rejected by the daemon (bad magic,
// version mismatch, session/connection caps, resume denial) — the
// connection is dead, but unlike a transport error the daemon was
// reachable, so reconnect logic should not retry the same handshake.
type HandshakeError struct{ Msg string }

func (e *HandshakeError) Error() string { return "proto: handshake rejected: " + e.Msg }

// Op identifies a daemon operation.
type Op uint16

// Daemon operations.
const (
	OpNop            Op = iota // round-trip measurement (§5.1)
	OpHello                    // present credentials
	OpCreatePool               // create a named pool with a root puddle
	OpOpenPool                 // open a named pool
	OpDeletePool               // remove a pool and release its puddles
	OpListPools                // enumerate pool names
	OpGetNewPuddle             // allocate and format a fresh puddle
	OpGetExistPuddle           // request access to an existing puddle
	OpFreePuddle               // release a puddle
	OpRegLogSpace              // register a log space for recovery
	OpUnregLogSpace            // unregister a log space
	OpRegisterType             // register a pointer map
	OpGetType                  // fetch a pointer map
	OpListTypes                // fetch all pointer maps
	OpExportPool               // export a pool as a container blob
	OpImportPool               // import a container blob (starts a session)
	OpImportResolve            // resolve an old address to its new range
	OpImportMap                // map a staged puddle at its new address
	OpImportDone               // finalize an import session
	OpStat                     // daemon counters
	OpChmodPool                // change a pool's permission bits
	OpRecoverNow               // force a recovery pass (tests)
	OpShutdown                 // graceful shutdown (marks clean)

	// Live migration (daemon/migrate.go).
	OpMigratePool   // operator → source: migrate Name to Target URL
	OpMigrateBegin  // source → target: manifest; target reserves + assigns addresses
	OpMigrateChunk  // source → target: one CRC-guarded snapshot chunk frame
	OpMigrateDelta  // source → target: one CRC-guarded dirty-chunk frame
	OpMigrateCommit // source → target: adopt the pool (idempotent; the commit point)
	OpMigrateAbort  // source → target: discard a non-committed migration
	OpResolveMig    // operator → daemon: retry resolution of in-flight migrations
)

var opNames = [...]string{
	OpNop: "Nop", OpHello: "Hello", OpCreatePool: "CreatePool",
	OpOpenPool: "OpenPool", OpDeletePool: "DeletePool", OpListPools: "ListPools",
	OpGetNewPuddle: "GetNewPuddle", OpGetExistPuddle: "GetExistPuddle",
	OpFreePuddle: "FreePuddle", OpRegLogSpace: "RegLogSpace",
	OpUnregLogSpace: "UnregLogSpace", OpRegisterType: "RegisterType",
	OpGetType: "GetType", OpListTypes: "ListTypes", OpExportPool: "ExportPool",
	OpImportPool: "ImportPool", OpImportResolve: "ImportResolve",
	OpImportMap: "ImportMap", OpImportDone: "ImportDone", OpStat: "Stat",
	OpChmodPool:  "ChmodPool",
	OpRecoverNow: "RecoverNow", OpShutdown: "Shutdown",
	OpMigratePool: "MigratePool", OpMigrateBegin: "MigrateBegin",
	OpMigrateChunk: "MigrateChunk", OpMigrateDelta: "MigrateDelta",
	OpMigrateCommit: "MigrateCommit", OpMigrateAbort: "MigrateAbort",
	OpResolveMig: "ResolveMig",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint16(o))
}

// PuddleInfo describes one puddle grant.
type PuddleInfo struct {
	UUID uid.UUID
	Addr uint64
	Size uint64
	Kind uint64
}

// Request is the union of all request payloads; each op reads the
// fields it needs. ID is a per-connection request identifier assigned
// by Conn.RoundTrip; the daemon echoes it in Response.ID so a
// pipelined client can match responses to outstanding requests.
type Request struct {
	Op      Op
	ID      uint64
	SID     uint64 // transport session (stamped by Conn from the handshake)
	Name    string // pool name
	UID     uint32 // credentials (Hello)
	GID     uint32
	Mode    uint32 // pool permission bits (CreatePool)
	UUID    uid.UUID
	Pool    uid.UUID
	Addr    uint64
	Size    uint64
	Kind    uint64
	Type    ptypes.TypeInfo
	TypeID  uint64
	Blob    []byte
	Session uint64
	Shards  uint32 // log-space shard count (RegLogSpace); 0 = 1
	Target  string // destination daemon URL (MigratePool)
}

// MigReport summarizes one completed migration (returned in the
// MigratePool response and surfaced by benchrunner migrate).
type MigReport struct {
	Rounds        int    // dirty-delta rounds before convergence
	SnapshotBytes uint64 // full pre-copy bytes streamed while serving writes
	DeltaBytes    uint64 // dirty bytes re-sent across all rounds + the final delta
	FinalBytes    uint64 // bytes shipped inside the final quiesce window
	PauseNs       uint64 // final quiesce: freeze set → ownership ceded
	TotalNs       uint64 // whole migration, begin → commit
}

// Stats mirrors the daemon's counters.
type Stats struct {
	Pools          int
	Puddles        int
	ReservedBytes  uint64
	LogSpaces      int
	Types          int
	Recoveries     uint64
	LogsReplayed   uint64
	EntriesApplied uint64
	Imports        uint64
	PersistErrors  uint64 // metadata persists that failed (clients saw errors)
	DispatchPanics uint64 // request handlers that panicked (recovered per request)
	JournalBytes   uint64 // current metadata journal tail

	JournalReplayed     uint64 // journal entries the last boot replayed
	BootLoadNs          uint64 // last boot: checkpoint selection + composition
	BootReplayNs        uint64 // last boot: journal replay on top of the checkpoint
	JournalDecodeErrors uint64 // CRC-valid journal entries or checkpoint chunks that did not decode

	Checkpoints      uint64 // committed metadata checkpoints (full + incremental)
	CheckpointChunks uint64 // chunks streamed into the checkpoint arena
	CheckpointBytes  uint64 // bytes streamed into the checkpoint arena
	CheckpointSeq    uint64 // sequence the last committed checkpoint covers
	CkptPauseTotalNs uint64 // cumulative exclusive quiesce time across checkpoints
	CkptPauseMaxNs   uint64 // worst single checkpoint quiesce
	CheckpointSpills uint64 // full images that overflowed into the other arena half
	RegistryGen      uint64 // committed copy-on-write registry image generation

	CacheHits      uint64 // small allocs/frees served by worker caches
	CacheMisses    uint64 // cacheable allocs that fell to the shared heap
	CacheRefills   uint64 // slabs carved or adopted into worker caches
	SlabDonations  uint64 // empty cached slabs bulk-returned to their heap
	ReclaimedSlabs uint64 // crash-orphaned parked slabs folded back at reopen

	ActiveConns      int    // live client connections (post-handshake)
	ActiveSessions   int    // live sessions in the registry
	AcceptErrors     uint64 // accept-loop errors survived (EMFILE etc.)
	HandshakeRejects uint64 // connections refused at the handshake
	WireDecodeErrors uint64 // frames refused: over-long, bad CRC or undecodable (connection killed)
	SessionResumes   uint64 // sessions re-attached via a resume token
	PoolCapRejects   uint64 // pool opens refused by the per-session cap
	GrantCapRejects  uint64 // puddle grants refused by the per-session grant cap
	ByteCapRejects   uint64 // puddle grants refused by the per-session byte cap

	MigrationsOut   uint64 // pools this daemon migrated away (ownership ceded)
	MigrationsIn    uint64 // pools this daemon adopted from a peer
	MigrationAborts uint64 // migrations aborted (error or crash recovery)
}

// Response is the union of all response payloads. ID echoes the
// Request.ID this response answers.
type Response struct {
	ID       uint64
	Err      string // empty on success
	UUID     uid.UUID
	Pool     uid.UUID
	Addr     uint64
	Size     uint64
	Writable bool
	Mapped   bool
	Names    []string
	Type     ptypes.TypeInfo
	Types    []ptypes.TypeInfo
	Puddles  []PuddleInfo
	Blob     []byte
	Session  uint64
	Stats    Stats
	Report   MigReport // MigratePool result
}

// Conn is a pipelined client connection: any number of goroutines may
// have requests outstanding at once. Sends serialize on a write mutex;
// a single reader goroutine (started on first use) decodes responses
// and delivers each to its waiter by Request/Response ID. This is what
// lets the daemon overlap the execution of one client's requests — the
// old Conn held a mutex across the whole round trip, so a slow daemon
// op serialized every caller behind it.
type Conn struct {
	c      net.Conn
	nextID atomic.Uint64

	sendMu sync.Mutex // guards wbuf
	wbuf   []byte     // the send buffer, reused frame after frame

	fr         frameReader // owned by the reader goroutine (after handshake)
	readerOnce sync.Once

	// Handshake state. The Hello frame is written (and its Welcome
	// read, synchronously — the reader goroutine starts only
	// afterwards) before the first request; session/token/resumed are
	// written once under hsOnce and read by RoundTrip after it.
	hello   Hello
	hsOnce  sync.Once
	hsErr   error
	session uint64
	token   uint64
	resumed bool

	mu      sync.Mutex // guards pending and dead
	pending map[uint64]chan *Response
	dead    error
}

// waiters recycles the one-slot channels RoundTrip waits on. A channel
// goes back only after its single delivery (a response, or nil when the
// connection died) has been received, so it is always empty in the pool.
var waiters = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// NewConn wraps a network connection with the calling process's real
// credentials and a fresh session. The real identity matters on UNIX
// sockets, where the daemon verifies the asserted credentials against
// SO_PEERCRED and rejects forgeries; use NewConnHello to assert explicit
// (test) identities over transports that carry no kernel-attested peer.
func NewConn(c net.Conn) *Conn {
	return NewConnHello(c, Hello{UID: uint32(os.Getuid()), GID: uint32(os.Getgid())})
}

// NewConnHello wraps a network connection with an explicit handshake:
// credentials and, to re-attach a previous session after a reconnect,
// its resume token. Magic and Version are filled in automatically.
func NewConnHello(c net.Conn, h Hello) *Conn {
	h.Magic = HandshakeMagic
	if h.Version == 0 {
		h.Version = ProtocolVersion
	}
	return &Conn{c: c, fr: newFrameReader(c), hello: h, pending: make(map[uint64]chan *Response)}
}

// Handshake completes the Hello/Welcome exchange if it has not run
// yet. RoundTrip calls it implicitly; explicit calls let a dialer
// validate the session before issuing requests. The first error is
// sticky: a failed handshake kills the connection.
func (c *Conn) Handshake() error {
	c.hsOnce.Do(func() {
		c.sendMu.Lock()
		var err error
		c.wbuf, err = writeFrame(c.c, AppendHello(c.wbuf, &c.hello), nil)
		c.sendMu.Unlock()
		if err != nil {
			c.hsErr = c.fail(fmt.Errorf("proto: handshake send: %w", err))
			return
		}
		// The reader goroutine starts only after the handshake, so the
		// frame reader is ours to use synchronously here.
		var w Welcome
		p, _, err := c.fr.next(0, maxWelcome)
		if err == nil {
			if err = DecodeWelcome(p, &w); err != nil {
				err = c.fr.refuse(err)
			}
		}
		if err != nil {
			c.hsErr = c.fail(fmt.Errorf("proto: handshake recv: %w", err))
			return
		}
		if w.Err != "" {
			c.hsErr = c.fail(&HandshakeError{Msg: w.Err})
			return
		}
		c.session, c.token, c.resumed = w.Session, w.Token, w.Resumed
		c.fr.region = "response"
	})
	return c.hsErr
}

// Session returns the session this connection is attached to and its
// resume token (zero before a successful handshake). Passing them in
// a later NewConnHello re-attaches the session.
func (c *Conn) Session() (id, token uint64) {
	c.Handshake()
	return c.session, c.token
}

// Resumed reports whether the handshake re-attached an existing
// session rather than starting a fresh one.
func (c *Conn) Resumed() bool {
	c.Handshake()
	return c.resumed
}

// fail marks the connection dead (first error wins) and wakes every
// outstanding waiter with a nil response.
func (c *Conn) fail(err error) error {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	err = c.dead
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- nil
	}
	c.mu.Unlock()
	return err
}

// readLoop delivers responses to their waiters until the connection
// dies. Responses need not arrive in request order — matching is by ID
// — though the daemon does write them in order per connection. A
// response that matches no outstanding request is a protocol violation
// (most likely a pre-pipelining daemon that never echoes request IDs)
// and kills the connection, so callers get an error instead of
// hanging on a response that can never be matched.
func (c *Conn) readLoop() {
	for {
		resp, err := c.recv()
		if err != nil {
			c.fail(fmt.Errorf("proto: recv: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("proto: unmatched response id %d (peer does not echo request ids?)", resp.ID))
			return
		}
		ch <- resp
	}
}

// recv reads the next response.
func (c *Conn) recv() (*Response, error) {
	p, owned, err := c.fr.next(0, MaxFrame)
	if err != nil {
		return nil, err
	}
	resp := new(Response)
	if err := DecodeResponse(p, resp, owned); err != nil {
		return nil, c.fr.refuse(err)
	}
	return resp, nil
}

// RoundTrip sends req and waits for its response. A non-empty
// Response.Err is returned as a *RemoteError. Concurrent callers
// pipeline: their requests are in flight simultaneously. The caller's
// Request is not mutated (the wire ID goes on a shallow copy), so a
// Request value may be shared by concurrent callers exactly as it
// could under the old serialized Conn.
func (c *Conn) RoundTrip(req *Request) (*Response, error) {
	if err := c.Handshake(); err != nil {
		return nil, err
	}
	c.readerOnce.Do(func() { go c.readLoop() })
	wire := *req
	wire.ID = c.nextID.Add(1)
	wire.SID = c.session
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return nil, err
	}
	ch := waiters.Get().(chan *Response)
	c.pending[wire.ID] = ch
	c.mu.Unlock()

	c.sendMu.Lock()
	frame, tail := appendRequest(c.wbuf, &wire)
	var err error
	c.wbuf, err = writeFrame(c.c, frame, tail)
	c.sendMu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("proto: send %v: %w", req.Op, err))
	}
	// Exactly one delivery reaches ch — the response, or fail's nil —
	// whichever took the request out of pending.
	resp := <-ch
	waiters.Put(ch)
	if resp == nil {
		c.mu.Lock()
		err := c.dead
		c.mu.Unlock()
		return nil, err
	}
	if resp.Err != "" {
		return resp, &RemoteError{Op: req.Op, Msg: resp.Err}
	}
	return resp, nil
}

// Close closes the underlying connection. Outstanding and future
// round trips fail with ErrClosed (first error wins: if the peer
// already died, the earlier error is preserved) rather than whatever
// decode error the reader goroutine races into, so retry logic can
// tell a local hangup from peer death.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return c.c.Close()
}

// RemoteError is an error reported by the daemon.
type RemoteError struct {
	Op  Op
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("puddled: %v: %s", e.Op, e.Msg)
}

// PoolLimitMsg prefixes the daemon's refusal of a pool open that
// would exceed the per-session open-pool cap (WithMaxPoolsPerSession).
const PoolLimitMsg = "session pool limit reached"

// IsPoolLimit reports whether err is that typed refusal, so clients
// can tell "close something first" from a hard failure.
func IsPoolLimit(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, PoolLimitMsg)
}

// GrantLimitMsg prefixes the daemon's refusal of a puddle grant that
// would exceed the per-session grant cap (WithMaxGrantsPerSession).
const GrantLimitMsg = "session grant limit reached"

// ByteLimitMsg prefixes the daemon's refusal of a puddle grant that
// would exceed the per-session granted-byte cap
// (WithMaxBytesPerSession).
const ByteLimitMsg = "session byte limit reached"

// IsQuotaLimit reports whether err is any per-session quota refusal
// (pool, grant, or byte cap): the client should shed load or close
// resources, not retry blindly.
func IsQuotaLimit(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	return strings.HasPrefix(re.Msg, PoolLimitMsg) ||
		strings.HasPrefix(re.Msg, GrantLimitMsg) ||
		strings.HasPrefix(re.Msg, ByteLimitMsg)
}

// PoolMovedMsg prefixes the refusal a daemon answers for a pool whose
// ownership migrated away; the rest of the message is the new owner's
// URL. core.Dial's reconnect gateway parses it and transparently
// re-dials the target.
const PoolMovedMsg = "pool moved to "

// PoolMovedTarget extracts the new-owner URL from a pool-moved
// refusal ("", false when err is something else).
func PoolMovedTarget(err error) (string, bool) {
	var re *RemoteError
	if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, PoolMovedMsg) {
		return "", false
	}
	return strings.TrimPrefix(re.Msg, PoolMovedMsg), true
}

// MigUnknownMsg is the target's answer to a MigrateCommit (or frame)
// for a migration it has no record of — the source must abort and
// keep the pool. After a target crash mid-stream this is what makes
// the commit-resolution protocol converge on exactly one owner.
const MigUnknownMsg = "unknown migration"

// IsMigUnknown reports whether err is that answer.
func IsMigUnknown(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, MigUnknownMsg)
}

// MigUnresolvedMsg prefixes refusals for a pool frozen by a crashed
// migration whose outcome is not yet resolved against the target.
const MigUnresolvedMsg = "pool migration unresolved"

// IsMigUnresolved reports whether err is that refusal.
func IsMigUnresolved(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, MigUnresolvedMsg)
}

// ServerConn is the daemon side of a connection. Recv is owned by the
// connection's read loop and Send by its response writer — one
// goroutine per direction, so neither needs a lock.
type ServerConn struct {
	c    net.Conn
	fr   frameReader
	wbuf []byte // the send buffer, reused frame after frame
}

// NewServerConn wraps an accepted connection.
func NewServerConn(c net.Conn) *ServerConn { return &ServerConn{c: c, fr: newFrameReader(c)} }

// SetDeadline sets the read/write deadline on the underlying
// connection. The daemon bounds the handshake with it (a peer that
// connects and never speaks must not pin a handler goroutine) and
// clears it once the session is established.
func (s *ServerConn) SetDeadline(t time.Time) error { return s.c.SetDeadline(t) }

// NetConn exposes the underlying transport connection so the daemon
// can read kernel-attested peer identity (SO_PEERCRED on UNIX-domain
// sockets) during the handshake.
func (s *ServerConn) NetConn() net.Conn { return s.c }

// RecvHello reads the client's Hello frame. A first frame that is not
// Hello-sized or does not begin with the magic — any non-protocol peer,
// a version-1 gob client included — fails with a *WireError as soon as
// its 8-byte header is in: there is no common language to answer in.
// The version is not judged here — the daemon decides how to answer a
// well-formed Hello (SendWelcome).
func (s *ServerConn) RecvHello() (*Hello, error) {
	p, _, err := s.fr.next(helloLen, helloLen)
	if err != nil {
		return nil, err
	}
	var h Hello
	if err := DecodeHello(p, &h); err != nil {
		return nil, s.fr.refuse(err)
	}
	s.fr.region = "request"
	return &h, nil
}

// SendWelcome answers the Hello (the client blocks on it before
// sending any request).
func (s *ServerConn) SendWelcome(w *Welcome) error {
	w.Version = ProtocolVersion
	var err error
	s.wbuf, err = writeFrame(s.c, AppendWelcome(s.wbuf, w), nil)
	return err
}

// CheckHello validates a Hello's magic and version, returning the
// rejection message ("" = accept) a server should place in
// Welcome.Err.
func CheckHello(h *Hello) string {
	if h.Magic != HandshakeMagic {
		return fmt.Sprintf("bad magic %#x (not a puddles client?)", h.Magic)
	}
	if h.Version != ProtocolVersion {
		return fmt.Sprintf("protocol version %d not supported (daemon speaks %d)", h.Version, ProtocolVersion)
	}
	return ""
}

// AcceptHello performs a minimal server-side handshake: read the
// Hello, validate magic/version, attach the connection to session 1.
// Hand-rolled test servers use it; the daemon runs its own session
// registry instead.
func (s *ServerConn) AcceptHello() (*Hello, error) {
	h, err := s.RecvHello()
	if err != nil {
		return nil, err
	}
	if msg := CheckHello(h); msg != "" {
		s.SendWelcome(&Welcome{Err: msg})
		return nil, &HandshakeError{Msg: msg}
	}
	sid := h.Session
	if sid == 0 {
		sid = 1
	}
	if err := s.SendWelcome(&Welcome{Session: sid, Token: 1, Resumed: h.Session != 0}); err != nil {
		return nil, err
	}
	return h, nil
}

// Recv reads the next request: io.EOF when the peer hangs up, a
// *WireError when it sent a frame that is refused.
func (s *ServerConn) Recv() (*Request, error) {
	p, owned, err := s.fr.next(0, MaxFrame)
	if err != nil {
		return nil, err
	}
	req := new(Request)
	if err := DecodeRequest(p, req, owned); err != nil {
		we := &WireError{Region: s.fr.region, Err: err}
		if op, n := binary.Uvarint(p); n > 0 && op <= math.MaxUint16 {
			we.Op = Op(op).String()
		}
		return nil, we
	}
	return req, nil
}

// Send writes a response, header and payload in one write.
func (s *ServerConn) Send(resp *Response) error {
	frame, tail := appendResponse(s.wbuf, resp)
	var err error
	s.wbuf, err = writeFrame(s.c, frame, tail)
	return err
}

// Close closes the underlying connection.
func (s *ServerConn) Close() error { return s.c.Close() }
