package daemon

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/addrspace"
	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/reloc"
	"puddles/internal/uid"
)

// Per-connection pipelining defaults: requests are read into a bounded
// queue and executed by a small worker pool; responses are written
// strictly in request order by a dedicated writer, matched to callers
// by request ID on the client side.
const (
	defaultConnWorkers = 4
	connQueueDepth     = 32
)

// Accept-retry backoff bounds: a transient accept failure (EMFILE
// under fan-in, a connection aborted in the backlog) must not kill the
// accept loop — it retries with doubling sleeps capped where a stuck
// fd limit costs one log line a second, not a dead daemon.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

// Serve accepts connections on l until the listener is closed or the
// daemon drains. Each connection completes the session handshake and
// then gets its own read loop, response writer and dispatch worker
// pool, so one client's requests pipeline against each other and
// against every other client — nothing funnels through a daemon-global
// lock. Transient accept errors are survived with capped backoff
// (AcceptErrors counts them); Serve returns nil after Drain/Detach —
// on the Detach path the listener is woken by an accept deadline and
// handed back intact (deadline cleared) for a successor to inherit.
func (d *Daemon) Serve(l net.Listener) error {
	d.lsnMu.Lock()
	d.listeners = append(d.listeners, l)
	d.lsnMu.Unlock()
	backoff := acceptBackoffMin
	for {
		c, err := l.Accept()
		if err != nil {
			if d.stopAccept.Load() {
				// Detach woke us with an immediate deadline; clear it so
				// an inheriting daemon's Accept doesn't spin on it.
				if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok {
					dl.SetDeadline(time.Time{})
				}
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if temporaryAcceptErr(err) {
				d.acceptErrs.Add(1)
				d.logf("accept: %v (retrying in %v)", err, backoff)
				time.Sleep(backoff)
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			return err
		}
		backoff = acceptBackoffMin
		d.connWg.Add(1)
		go func() {
			defer d.connWg.Done()
			d.handleConn(proto.NewServerConn(c))
		}()
	}
}

// SelfConn returns an in-process client connection (net.Pipe), the
// test/benchmark stand-in for the UNIX domain socket. It goes through
// the same handshake and session registry as a socket connection.
func (d *Daemon) SelfConn() *proto.Conn {
	client, server := net.Pipe()
	d.connWg.Add(1)
	go func() {
		defer d.connWg.Done()
		d.handleConn(proto.NewServerConn(server))
	}()
	// In-process pipe: no kernel-attested peer, explicit superuser —
	// SelfConn is the daemon talking to itself (tools, tests), not a
	// tenant whose identity needs verifying.
	return proto.NewConnHello(client, proto.Hello{})
}

func (d *Daemon) numConnWorkers() int {
	n := d.connWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > defaultConnWorkers {
			n = defaultConnWorkers
		}
	}
	return n
}

// handleConn runs the session handshake, then pipelines one
// connection: the read loop snapshots the connection's credentials per
// request and hands (request, response slot) pairs to the workers; the
// writer drains the slots in request order. An injected power failure
// (chaos testing) inside a handler means the "machine" is gone: the
// worker reports a nil response and the connection is torn down, so
// clients see a dead connection exactly as they would a crashed daemon
// process. A non-crash handler panic is confined to its request (see
// serveOne).
func (d *Daemon) handleConn(sc *proto.ServerConn) {
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { sc.Close() }) }
	defer kill()

	// The connection is reachable by drain/kill from the moment it is
	// accepted: tracked pre-handshake here, promoted to the live set by
	// registerConn once the session is up. A peer that never completes
	// the handshake is bounded by the handshake deadline and can be
	// hung up by closeConns at any time — it cannot park this goroutine
	// past connWg.Wait.
	d.trackHandshake(sc)
	sess, err := d.handshake(sc)
	if err != nil {
		d.untrackHandshake(sc)
		var he *proto.HandshakeError
		if errors.As(err, &he) {
			d.logf("conn: %v", err)
		}
		return
	}
	cs := &connState{sc: sc, sess: sess}
	cs.lastReq.Store(time.Now().UnixNano())
	d.registerConn(cs)
	defer func() {
		d.unregisterConn(cs)
		d.detachSession(sess)
	}()

	type job struct {
		req   *proto.Request
		creds Creds
		ch    chan *proto.Response
	}
	ordered := make(chan chan *proto.Response, connQueueDepth)
	work := make(chan job, connQueueDepth)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // response writer: request order, one goroutine
		defer wg.Done()
		for ch := range ordered {
			resp := <-ch
			if resp == nil {
				kill() // crash-injected power failure mid-request
				cs.inflight.Add(-1)
				continue
			}
			err := sc.Send(resp)
			cs.inflight.Add(-1) // answered only once the bytes are out
			if err != nil {
				kill()
			}
		}
	}()
	workers := d.numConnWorkers()
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range work {
				j.ch <- d.serveOne(j.creds, sess, j.req, kill)
			}
		}()
	}

	creds := sess.credentials() // handshake credentials; OpHello may override
	for {
		req, err := sc.Recv()
		if err != nil {
			if !d.noteWireError(err) && err != io.EOF && !errors.Is(err, net.ErrClosed) {
				d.logf("conn: %v", err)
			}
			break
		}
		cs.inflight.Add(1)
		cs.lastReq.Store(time.Now().UnixNano())
		ch := make(chan *proto.Response, 1)
		if req.Op == proto.OpHello {
			// Credentials apply to every request read after this one;
			// the ack still flows through the writer, in order. The
			// session follows the override (see Session.setCreds), so a
			// reconnect presenting the new credentials still resumes.
			// The same SO_PEERCRED rule as the handshake applies: a
			// kernel-attested transport cannot re-assert someone else's
			// identity mid-connection.
			next := Creds{UID: req.UID, GID: req.GID}
			if pc, ok := peerCreds(sc.NetConn()); ok && pc != next {
				d.hsRejects.Add(1)
				ch <- &proto.Response{ID: req.ID, Err: fmt.Sprintf(
					"daemon: peer credential mismatch (socket %d:%d, hello %d:%d)",
					pc.UID, pc.GID, next.UID, next.GID)}
				ordered <- ch
				continue
			}
			creds = next
			sess.setCreds(creds)
			ch <- &proto.Response{ID: req.ID}
			ordered <- ch
			continue
		}
		ordered <- ch
		work <- job{req: req, creds: creds, ch: ch}
	}
	close(work)
	close(ordered)
	wg.Wait()
}

// noteWireError counts and logs err if it is a frame the connection's
// peer sent and this daemon refused (over-long, bad CRC, undecodable);
// the caller hangs up.
func (d *Daemon) noteWireError(err error) bool {
	var we *proto.WireError
	if !errors.As(err, &we) {
		return false
	}
	d.wireErrs.Add(1)
	d.logf("conn: %v; hanging up", we)
	return true
}

// serveOne executes one request with per-request panic confinement: a
// handler bug produces an error response and ticks DispatchPanics
// instead of tearing down the connection loop; an injected crash
// (pmem.IsCrash) returns nil, meaning the machine died.
func (d *Daemon) serveOne(creds Creds, sess *Session, req *proto.Request, kill func()) (resp *proto.Response) {
	defer func() {
		if r := recover(); r != nil {
			if pmem.IsCrash(r) {
				kill()
				resp = nil
				return
			}
			d.panics.Add(1)
			d.logf("dispatch %v: panic: %v\n%s", req.Op, r, debug.Stack())
			resp = fail("internal error in %v: %v", req.Op, r)
			resp.ID = req.ID
		}
	}()
	if sess != nil && req.SID != 0 && req.SID != sess.ID {
		// A request stamped for a different session than the connection's
		// handshake established is a confused (or malicious) client.
		resp = fail("request session %d does not match connection session %d", req.SID, sess.ID)
		resp.ID = req.ID
		return resp
	}
	// The per-session open-pool cap is enforced here, before dispatch:
	// accountSession's count is authoritative for the session across
	// all its connections, so a capped tenant cannot widen its pool
	// set by spreading opens over reconnects.
	if sess != nil && (req.Op == proto.OpOpenPool || req.Op == proto.OpCreatePool) &&
		sess.poolCapExceeded(req.Name, d.maxPoolsPerSession) {
		d.poolCapRejects.Add(1)
		resp = fail("%s (%d pools open)", proto.PoolLimitMsg, d.maxPoolsPerSession)
		resp.ID = req.ID
		return resp
	}
	// Per-session grant and byte quotas, enforced at the same
	// pre-dispatch point for the same reason: the session's count is
	// authoritative across all its connections.
	if sess != nil && (req.Op == proto.OpGetNewPuddle || req.Op == proto.OpGetExistPuddle) &&
		sess.grantCapExceeded(d.maxGrantsPerSession) {
		d.grantCapRejects.Add(1)
		resp = fail("%s (%d grants outstanding)", proto.GrantLimitMsg, d.maxGrantsPerSession)
		resp.ID = req.ID
		return resp
	}
	if sess != nil && (req.Op == proto.OpGetNewPuddle || req.Op == proto.OpCreatePool) &&
		sess.byteCapExceeded(grantBytes(req), d.maxBytesPerSession) {
		d.byteCapRejects.Add(1)
		resp = fail("%s (%d bytes granted, cap %d)", proto.ByteLimitMsg, sess.bytesGrantedNow(), d.maxBytesPerSession)
		resp.ID = req.ID
		return resp
	}
	resp = d.dispatch(creds, req)
	resp.ID = req.ID
	if sess != nil && resp.Err == "" {
		d.accountSession(sess, req)
	}
	// Opportunistic journal compaction runs here, after the response is
	// built and with no daemon locks held.
	d.maybeCompact()
	return resp
}

// accountSession maintains per-session open-pool/grant accounting on
// successful ops (operator visibility; see Session.Accounting).
func (d *Daemon) accountSession(sess *Session, req *proto.Request) {
	switch req.Op {
	case proto.OpOpenPool, proto.OpCreatePool:
		sess.notePoolOpen(req.Name)
	case proto.OpDeletePool:
		sess.notePoolGone(req.Name)
	case proto.OpGetNewPuddle, proto.OpGetExistPuddle:
		sess.noteGrant(1)
		if req.Op == proto.OpGetNewPuddle {
			sess.noteBytes(grantBytes(req))
		}
	case proto.OpFreePuddle:
		sess.noteGrant(-1)
	}
	if req.Op == proto.OpCreatePool {
		sess.noteBytes(grantBytes(req))
	}
}

// grantBytes is the backing size a request asks the daemon to carve:
// what the per-session byte quota meters.
func grantBytes(req *proto.Request) uint64 {
	if req.Size != 0 {
		return req.Size
	}
	return puddle.DefaultSize
}

func fail(format string, args ...any) *proto.Response {
	return &proto.Response{Err: fmt.Sprintf(format, args...)}
}

// Dispatch executes one request against the daemon; exported so
// in-process callers can bypass the socket (not used by Libpuddles,
// which always goes through a Conn, but handy for tools).
func (d *Daemon) Dispatch(creds Creds, req *proto.Request) *proto.Response {
	resp := d.dispatch(creds, req)
	resp.ID = req.ID
	d.maybeCompact()
	return resp
}

// dispatch routes one request. There is deliberately no daemon-global
// lock here anymore: shutdown and recovery quiesce via opMu
// exclusively, every other op holds opMu shared and synchronizes on
// the registry/pool locks it actually touches.
func (d *Daemon) dispatch(creds Creds, req *proto.Request) *proto.Response {
	if hook := d.panicHook; hook != nil {
		hook(req)
	}
	switch req.Op {
	case proto.OpShutdown:
		d.Shutdown()
		return &proto.Response{}
	case proto.OpRecoverNow:
		return d.opRecoverNow()
	case proto.OpMigratePool:
		// The source engine runs for seconds and must not pin opMu
		// across checkpoints; it takes opMu.RLock around each mutation
		// step itself (migrate.go).
		return d.opMigratePool(creds, req)
	case proto.OpResolveMig:
		// Resolution dials peers and takes opMu per step, like the
		// migration engine — dispatch outside the opMu hold.
		if resp := requireSuper(creds); resp != nil {
			return resp
		}
		return &proto.Response{Size: uint64(d.ResolveMigrations())}
	}
	d.opMu.RLock()
	defer d.opMu.RUnlock()
	if d.closed.Load() {
		return fail("daemon is shut down")
	}
	switch req.Op {
	case proto.OpNop:
		return &proto.Response{}
	case proto.OpCreatePool:
		return d.opCreatePool(creds, req)
	case proto.OpOpenPool:
		return d.opOpenPool(creds, req)
	case proto.OpDeletePool:
		return d.opDeletePool(creds, req)
	case proto.OpChmodPool:
		return d.opChmodPool(creds, req)
	case proto.OpListPools:
		return d.opListPools(creds)
	case proto.OpGetNewPuddle:
		return d.opGetNewPuddle(creds, req)
	case proto.OpGetExistPuddle:
		return d.opGetExistPuddle(creds, req)
	case proto.OpFreePuddle:
		return d.opFreePuddle(creds, req)
	case proto.OpRegLogSpace:
		return d.opRegLogSpace(creds, req)
	case proto.OpUnregLogSpace:
		return d.opUnregLogSpace(creds, req)
	case proto.OpRegisterType:
		return d.opRegisterType(req)
	case proto.OpGetType:
		return d.opGetType(req)
	case proto.OpListTypes:
		return &proto.Response{Types: d.types.All()}
	case proto.OpExportPool:
		return d.opExportPool(creds, req)
	case proto.OpImportPool:
		return d.opImportPool(creds, req)
	case proto.OpImportResolve:
		return d.opImportResolve(creds, req)
	case proto.OpImportMap:
		return d.opImportMap(creds, req)
	case proto.OpImportDone:
		return d.opImportDone(creds, req)
	case proto.OpStat:
		return &proto.Response{Stats: d.Stats()}
	case proto.OpMigrateBegin:
		return d.opMigrateBegin(creds, req)
	case proto.OpMigrateChunk, proto.OpMigrateDelta:
		return d.opMigrateFrame(creds, req)
	case proto.OpMigrateCommit:
		return d.opMigrateCommit(creds, req)
	case proto.OpMigrateAbort:
		return d.opMigrateAbort(creds, req)
	default:
		return fail("unknown op %v", req.Op)
	}
}

// opRecoverNow forces a recovery pass (tests). It quiesces the daemon
// the same way boot-time recovery has the machine to itself, then
// checkpoints the updated recovery counters (ckptMu before opMu, the
// checkpoint lock order).
func (d *Daemon) opRecoverNow() *proto.Response {
	d.ckptMu.Lock()
	d.opMu.Lock()
	if d.closed.Load() {
		d.opMu.Unlock()
		d.ckptMu.Unlock()
		return fail("daemon is shut down")
	}
	d.runRecovery()
	if err := d.checkpointSync(); err != nil {
		d.logf("recovery checkpoint: %v", err)
	}
	d.opMu.Unlock()
	d.ckptMu.Unlock()
	return &proto.Response{Stats: d.Stats()}
}

// persistOrFail appends one atomic journal batch; on failure the
// operation's metadata is not durable, so the client gets an error
// response instead of an ack (the counter is bumped inside the append
// path). Callers hold the locks of every entity in recs.
func (d *Daemon) persistOrFail(recs ...entRec) *proto.Response {
	if err := d.appendBatch(recs); err != nil {
		return fail("persisting metadata: %v", err)
	}
	return nil
}

// adopt installs pool, its member puddles and its log spaces in one
// journal batch together with extra, the caller's own records — how
// creation, import and migration all hand a pool to this
// daemon. It re-checks the name, so two racing adopters cannot both
// win. The registry is published first under pool.mu, so no op on the
// new pool can journal ahead of this batch (apply runs under poolsMu
// for extra's in-memory side), and rolled back if the batch does not
// persist (undo, likewise); reservations stay with the caller. A moved
// tombstone under the pool's name retires in the same batch: the pool
// lives here again.
func (d *Daemon) adopt(pool *PoolRec, pus []*PuddleRec, lss []*LogSpaceRec, extra []entRec, apply, undo func()) *proto.Response {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	recs := make([]entRec, 0, len(pus)+len(lss)+len(extra)+2)
	d.poolsMu.Lock()
	if _, ok := d.st.Pools[pool.Name]; ok {
		d.poolsMu.Unlock()
		return fail("pool %q already exists", pool.Name)
	}
	for _, rec := range pus {
		d.st.Puddles[rec.UUID] = rec
		pool.Puddles = append(pool.Puddles, rec.UUID)
		recs = append(recs, putRec(recPuddle, uuidKey(rec.UUID), rec))
	}
	d.st.Pools[pool.Name] = pool
	moved := d.st.Moved[pool.Name]
	if moved != nil {
		delete(d.st.Moved, pool.Name)
		extra = append(extra, delRec(recMoved, pool.Name))
	}
	apply()
	d.poolsMu.Unlock()
	d.lsMu.Lock()
	for _, ls := range lss {
		d.st.LogSpaces[ls.UUID] = ls
		recs = append(recs, putRec(recLogSpace, uuidKey(ls.UUID), ls))
	}
	d.lsMu.Unlock()
	resp := d.persistOrFail(append(append(recs, pool.rec()), extra...)...)
	if resp == nil {
		return nil
	}
	d.poolsMu.Lock()
	delete(d.st.Pools, pool.Name)
	for _, rec := range pus {
		delete(d.st.Puddles, rec.UUID)
	}
	if moved != nil {
		d.st.Moved[pool.Name] = moved
	}
	undo()
	d.poolsMu.Unlock()
	d.lsMu.Lock()
	for _, ls := range lss {
		delete(d.st.LogSpaces, ls.UUID)
	}
	d.lsMu.Unlock()
	return resp
}

func (d *Daemon) opCreatePool(creds Creds, req *proto.Request) *proto.Response {
	if req.Name == "" {
		return fail("pool name required")
	}
	if d.poolByName(req.Name) != nil {
		return fail("pool %q already exists", req.Name)
	}
	// A moved tombstone reserves the name: creating a fresh pool under
	// it would fork the identity.
	if resp := d.movedResp(req.Name); resp != nil {
		return resp
	}
	mode := req.Mode
	if mode == 0 {
		mode = 0o600
	}
	size := req.Size
	if size == 0 {
		size = puddle.DefaultSize
	}
	pool := &PoolRec{
		Name:     req.Name,
		UUID:     uid.New(),
		OwnerUID: creds.UID,
		OwnerGID: creds.GID,
		Mode:     mode,
	}
	root, err := d.formPuddle(pool.UUID, size, puddle.KindData)
	if err != nil {
		return fail("allocating root puddle: %v", err)
	}
	pool.Root = root.UUID
	// adopt re-checks the name, so racing creators don't both win.
	if resp := d.adopt(pool, []*PuddleRec{root}, nil, nil, func() {}, func() {}); resp != nil {
		d.space.Release(pmem.Addr(root.Addr))
		return resp
	}
	return &proto.Response{
		Pool:     pool.UUID,
		UUID:     root.UUID,
		Addr:     root.Addr,
		Size:     root.Size,
		Writable: true,
		Puddles:  []proto.PuddleInfo{{UUID: root.UUID, Addr: root.Addr, Size: root.Size, Kind: root.Kind}},
	}
}

func (d *Daemon) opOpenPool(creds Creds, req *proto.Request) *proto.Response {
	pool := d.poolByName(req.Name)
	if pool == nil {
		// Ceded pools answer with the typed pool-moved refusal so
		// clients re-dial the new owner transparently.
		if resp := d.movedResp(req.Name); resp != nil {
			return resp
		}
		return fail("pool %q not found", req.Name)
	}
	if resp := d.unresolvedResp(req.Name); resp != nil {
		return resp
	}
	if !checkPerm(creds, pool, false) {
		return fail("permission denied reading pool %q", req.Name)
	}
	return d.poolResp(pool, checkPerm(creds, pool, true))
}

// poolResp describes pool to the client that opened or imported it:
// its root and every member puddle.
func (d *Daemon) poolResp(pool *PoolRec, writable bool) *proto.Response {
	members := pool.memberIDs()
	d.poolsMu.RLock()
	root := d.st.Puddles[pool.Root]
	infos := make([]proto.PuddleInfo, 0, len(members))
	for _, pu := range members {
		if rec := d.st.Puddles[pu]; rec != nil {
			infos = append(infos, proto.PuddleInfo{UUID: rec.UUID, Addr: rec.Addr, Size: rec.Size, Kind: rec.Kind})
		}
	}
	d.poolsMu.RUnlock()
	if root == nil {
		return fail("pool %q has no root puddle", pool.Name)
	}
	return &proto.Response{
		Pool:     pool.UUID,
		UUID:     root.UUID,
		Addr:     root.Addr,
		Size:     root.Size,
		Writable: writable,
		Puddles:  infos,
	}
}

func (d *Daemon) opDeletePool(creds Creds, req *proto.Request) *proto.Response {
	pool := d.poolByName(req.Name)
	if pool == nil {
		if resp := d.movedResp(req.Name); resp != nil {
			return resp
		}
		return fail("pool %q not found", req.Name)
	}
	if !checkPerm(creds, pool, true) {
		return fail("permission denied deleting pool %q", req.Name)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	d.poolsMu.RLock()
	current := d.st.Pools[req.Name] == pool
	d.poolsMu.RUnlock()
	if !current {
		return fail("pool %q not found", req.Name)
	}
	// Inside pool.mu: totally ordered against beginOutbound's manifest
	// snapshot + MigOutRec publication.
	if resp := d.migBlocked(req.Name); resp != nil {
		return resp
	}
	// Persist the tombstones FIRST, then remove from the maps. While
	// pool.mu is held no same-pool mutation (puddle create/free,
	// log-space registration) can interleave, and the name stays
	// reserved in st.Pools until the deletion is durable — so a failed
	// persist needs no unwind, and never clobbers a pool another client
	// raced to create under the same name.
	recs := make([]entRec, 0, len(pool.Puddles)+2)
	released := make([]pmem.Addr, 0, len(pool.Puddles))
	d.poolsMu.RLock()
	for _, pu := range pool.Puddles {
		if rec := d.st.Puddles[pu]; rec != nil {
			released = append(released, pmem.Addr(rec.Addr))
			recs = append(recs, delRec(recPuddle, uuidKey(pu)))
		}
	}
	d.poolsMu.RUnlock()
	// Registered log spaces die with their puddles, in the same batch.
	d.lsMu.Lock()
	for _, pu := range pool.Puddles {
		if _, ok := d.st.LogSpaces[pu]; ok {
			recs = append(recs, delRec(recLogSpace, uuidKey(pu)))
		}
	}
	d.lsMu.Unlock()
	recs = append(recs, delRec(recPool, req.Name))
	if resp := d.persistOrFail(recs...); resp != nil {
		return resp
	}
	d.poolsMu.Lock()
	for _, pu := range pool.Puddles {
		delete(d.st.Puddles, pu)
	}
	delete(d.st.Pools, req.Name)
	d.poolsMu.Unlock()
	d.lsMu.Lock()
	for _, pu := range pool.Puddles {
		delete(d.st.LogSpaces, pu)
	}
	d.lsMu.Unlock()
	for _, addr := range released {
		d.space.Release(addr)
	}
	return &proto.Response{}
}

// opChmodPool changes a pool's mode; only the owner (or superuser)
// may. Revoking write access also revokes what recovery may replay
// (paper §4.6) — see TestRecoveryHonoursWritePermission.
func (d *Daemon) opChmodPool(creds Creds, req *proto.Request) *proto.Response {
	pool := d.poolByName(req.Name)
	if pool == nil {
		return fail("pool %q not found", req.Name)
	}
	if creds != Superuser && creds.UID != pool.OwnerUID {
		return fail("permission denied: only the owner may chmod %q", req.Name)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if resp := d.migBlocked(req.Name); resp != nil {
		return resp
	}
	old := pool.Mode
	pool.Mode = req.Mode
	if resp := d.persistOrFail(pool.rec()); resp != nil {
		pool.Mode = old
		return resp
	}
	return &proto.Response{}
}

func (d *Daemon) opListPools(creds Creds) *proto.Response {
	d.poolsMu.RLock()
	pools := make([]*PoolRec, 0, len(d.st.Pools))
	for _, pool := range d.st.Pools {
		pools = append(pools, pool)
	}
	d.poolsMu.RUnlock()
	names := make([]string, 0, len(pools))
	for _, pool := range pools {
		if checkPerm(creds, pool, false) {
			names = append(names, pool.Name)
		}
	}
	return &proto.Response{Names: names}
}

func (d *Daemon) opGetNewPuddle(creds Creds, req *proto.Request) *proto.Response {
	pool := d.poolByUUID(req.Pool)
	if pool == nil {
		return fail("pool %v not found", req.Pool)
	}
	if !checkPerm(creds, pool, true) {
		return fail("permission denied on pool %q", pool.Name)
	}
	size := req.Size
	if size == 0 {
		size = puddle.DefaultSize
	}
	kind := puddle.Kind(req.Kind)
	if kind == 0 {
		kind = puddle.KindData
	}
	// Reserve and format outside all locks — the expensive part of
	// puddle creation no longer blocks any other client.
	rec, err := d.formPuddle(pool.UUID, size, kind)
	if err != nil {
		return fail("allocating puddle: %v", err)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	d.poolsMu.Lock()
	if d.st.Pools[pool.Name] != pool { // deleted while we formatted
		d.poolsMu.Unlock()
		d.space.Release(pmem.Addr(rec.Addr))
		return fail("pool %q not found", pool.Name)
	}
	d.poolsMu.Unlock()
	// Membership is frozen while the pool migrates: the manifest the
	// target reserved against must stay complete (checked under
	// pool.mu, totally ordered with beginOutbound).
	if resp := d.migBlocked(pool.Name); resp != nil {
		d.space.Release(pmem.Addr(rec.Addr))
		return resp
	}
	d.poolsMu.Lock()
	d.st.Puddles[rec.UUID] = rec
	d.poolsMu.Unlock()
	pool.Puddles = append(pool.Puddles, rec.UUID)
	// A membership delta, not the whole pool record: the journal write
	// stays O(operation) however many puddles the pool has.
	if resp := d.persistOrFail(putRec(recPuddle, uuidKey(rec.UUID), rec), linkRec(pool.Name, rec)); resp != nil {
		pool.Puddles = pool.Puddles[:len(pool.Puddles)-1]
		d.poolsMu.Lock()
		delete(d.st.Puddles, rec.UUID)
		d.poolsMu.Unlock()
		d.space.Release(pmem.Addr(rec.Addr))
		return resp
	}
	return &proto.Response{UUID: rec.UUID, Addr: rec.Addr, Size: rec.Size, Writable: true}
}

func (d *Daemon) opGetExistPuddle(creds Creds, req *proto.Request) *proto.Response {
	rec := d.puddleRec(req.UUID)
	if rec == nil {
		return fail("puddle %v not found", req.UUID)
	}
	pool := d.poolByUUID(rec.Pool)
	if pool == nil {
		return fail("puddle %v has no pool", req.UUID)
	}
	if !checkPerm(creds, pool, false) {
		return fail("permission denied on pool %q", pool.Name)
	}
	return &proto.Response{
		UUID: rec.UUID, Addr: rec.Addr, Size: rec.Size,
		Writable: checkPerm(creds, pool, true),
	}
}

func (d *Daemon) opFreePuddle(creds Creds, req *proto.Request) *proto.Response {
	rec := d.puddleRec(req.UUID)
	if rec == nil {
		return fail("puddle %v not found", req.UUID)
	}
	pool := d.poolByUUID(rec.Pool)
	if pool == nil || !checkPerm(creds, pool, true) {
		return fail("permission denied")
	}
	if pool.Root == rec.UUID {
		return fail("cannot free a pool's root puddle")
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	// Re-check under the pool lock: a racing free or pool delete may
	// have beaten us here.
	d.poolsMu.RLock()
	current := d.st.Puddles[rec.UUID] == rec
	d.poolsMu.RUnlock()
	if !current {
		return fail("puddle %v not found", req.UUID)
	}
	if resp := d.migBlocked(pool.Name); resp != nil {
		return resp
	}
	// Persist first, remove after (see opDeletePool): pool.mu keeps any
	// same-pool mutation out until the free is durable, so the failure
	// path needs no unwind.
	recs := []entRec{delRec(recPuddle, uuidKey(rec.UUID)), unlinkRec(pool.Name, rec)}
	// A registered log space on this puddle dies with it, atomically.
	d.lsMu.Lock()
	_, hadLS := d.st.LogSpaces[rec.UUID]
	d.lsMu.Unlock()
	if hadLS {
		recs = append(recs, delRec(recLogSpace, uuidKey(rec.UUID)))
	}
	if resp := d.persistOrFail(recs...); resp != nil {
		return resp
	}
	d.poolsMu.Lock()
	delete(d.st.Puddles, rec.UUID)
	d.poolsMu.Unlock()
	for i, pu := range pool.Puddles {
		if pu == rec.UUID {
			pool.Puddles = append(pool.Puddles[:i], pool.Puddles[i+1:]...)
			break
		}
	}
	if hadLS {
		d.lsMu.Lock()
		delete(d.st.LogSpaces, rec.UUID)
		d.lsMu.Unlock()
	}
	d.space.Release(pmem.Addr(rec.Addr))
	return &proto.Response{}
}

func (d *Daemon) opRegLogSpace(creds Creds, req *proto.Request) *proto.Response {
	rec := d.puddleRec(req.UUID)
	if rec == nil {
		return fail("log-space puddle %v not found", req.UUID)
	}
	pool := d.poolByUUID(rec.Pool)
	if pool == nil || !checkPerm(creds, pool, true) {
		return fail("permission denied")
	}
	if puddle.Kind(rec.Kind) != puddle.KindLogSpace {
		return fail("puddle %v is kind %v, not a log space", req.UUID, puddle.Kind(rec.Kind))
	}
	shards := req.Shards
	if shards == 0 {
		shards = 1 // omitted: one shard
	}
	if shards > plog.MaxLogShards {
		return fail("log space %v declares %d shards (max %d)", req.UUID, shards, plog.MaxLogShards)
	}
	// Cross-check the claim against the on-media directory when it is
	// already formatted (clients format before registering; tests may
	// register bare puddles, which recovery tolerates as unreadable).
	if p, err := puddle.Open(d.dev, pmem.Addr(rec.Addr)); err == nil {
		if space, err := plog.OpenShardedLogSpace(p); err == nil && space.Shards() != int(shards) {
			return fail("log space %v is formatted with %d shards, not %d", req.UUID, space.Shards(), shards)
		}
	}
	ls := &LogSpaceRec{UUID: rec.UUID, Addr: rec.Addr, Creds: creds, Shards: shards}
	// Registration serializes on the owning pool's lock, like the free
	// path does: otherwise a concurrent FreePuddle/DeletePool could
	// complete between our existence check and the insert, leaving a
	// durable log space that references a deleted puddle. Under
	// pool.mu, re-check the puddle is still registered.
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if d.puddleRec(req.UUID) != rec {
		return fail("log-space puddle %v not found", req.UUID)
	}
	d.lsMu.Lock()
	defer d.lsMu.Unlock()
	d.st.LogSpaces[rec.UUID] = ls
	if resp := d.persistOrFail(putRec(recLogSpace, uuidKey(rec.UUID), ls)); resp != nil {
		delete(d.st.LogSpaces, rec.UUID)
		return resp
	}
	return &proto.Response{}
}

func (d *Daemon) opUnregLogSpace(creds Creds, req *proto.Request) *proto.Response {
	d.lsMu.Lock()
	defer d.lsMu.Unlock()
	ls, ok := d.st.LogSpaces[req.UUID]
	if !ok {
		return fail("log space %v not registered", req.UUID)
	}
	if creds != Superuser && creds != ls.Creds {
		return fail("permission denied")
	}
	delete(d.st.LogSpaces, req.UUID)
	if resp := d.persistOrFail(delRec(recLogSpace, uuidKey(req.UUID))); resp != nil {
		d.st.LogSpaces[req.UUID] = ls
		return resp
	}
	return &proto.Response{}
}

func (d *Daemon) opRegisterType(req *proto.Request) *proto.Response {
	if err := d.types.Put(req.Type); err != nil {
		return fail("registering type: %v", err)
	}
	if resp := d.persistTypes(); resp != nil {
		return resp
	}
	return &proto.Response{}
}

// persistTypes journals the registry's current type list and, only on
// success, adopts it as st.Types (what checkpoints snapshot) — so a
// type the client was told failed never becomes durable. The volatile
// registry may briefly run ahead of the durable list; a reboot forgets
// the unacked type, which is the correct semantics. Returns the error
// response, or nil.
func (d *Daemon) persistTypes() *proto.Response {
	d.typesMu.Lock()
	defer d.typesMu.Unlock()
	merged := d.types.All()
	if resp := d.persistOrFail(putRec(recTypes, "", typeList(merged))); resp != nil {
		return resp
	}
	d.st.Types = merged
	return nil
}

func (d *Daemon) opGetType(req *proto.Request) *proto.Response {
	ti, ok := d.types.Lookup(ptypes.TypeID(req.TypeID))
	if !ok {
		return fail("type %#x not registered", req.TypeID)
	}
	return &proto.Response{Type: ti}
}

// --- export / import (paper §4.2) ---

func (d *Daemon) opExportPool(creds Creds, req *proto.Request) *proto.Response {
	pool := d.poolByName(req.Name)
	if pool == nil {
		return fail("pool %q not found", req.Name)
	}
	if !checkPerm(creds, pool, false) {
		return fail("permission denied reading pool %q", req.Name)
	}
	pool.mu.Lock()
	members := append([]uid.UUID(nil), pool.Puddles...)
	rootID := pool.Root
	pool.mu.Unlock()
	c := reloc.Container{
		Version:  reloc.ContainerVersion,
		PoolName: pool.Name,
		PoolUUID: pool.UUID,
		RootUUID: rootID,
		Types:    d.types.All(),
	}
	for _, pu := range members {
		if rec := d.puddleRec(pu); rec != nil {
			c.Puddles = append(c.Puddles, reloc.PuddleImage{UUID: rec.UUID, Addr: rec.Addr, Size: rec.Size, Kind: rec.Kind})
		}
	}
	blob := c.EncodeFrom(func(i int, dst []byte) { d.dev.Load(pmem.Addr(c.Puddles[i].Addr), dst) })
	return &proto.Response{Blob: blob}
}

// Import sessions are cold-path: every import op serializes on sessMu
// (which also covers the staging area manager and NextSession), then
// takes the pool/puddle locks it needs in the usual order.

func (d *Daemon) opImportPool(creds Creds, req *proto.Request) *proto.Response {
	if req.Name == "" {
		return fail("target pool name required")
	}
	if d.poolByName(req.Name) != nil {
		return fail("pool %q already exists", req.Name)
	}
	c, err := reloc.DecodeBytes(req.Blob)
	if err != nil {
		return fail("decoding container: %v", err)
	}
	for _, ti := range c.Types {
		if err := d.types.Put(ti); err != nil {
			return fail("importing type %q: %v", ti.Name, err)
		}
	}
	// Persist the merged type list in its own batch, under typesMu, so
	// its journal record cannot be reordered against a concurrent
	// RegisterType (types only ever grow, so a crash between this batch
	// and the session batch stays consistent).
	if resp := d.persistTypes(); resp != nil {
		return resp
	}

	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	sess := &ImportSession{
		ID:       d.st.NextSession,
		PoolName: req.Name,
		PoolUUID: uid.New(),
		Creds:    creds,
		Mode:     req.Mode,
	}
	if sess.Mode == 0 {
		sess.Mode = 0o600
	}
	d.st.NextSession++
	// Stage every image durably; identity is refreshed so clones can
	// coexist with their originals.
	rootIdx := -1
	for i, img := range c.Puddles {
		stage, err := d.staging.Reserve(img.Size, "import")
		if err != nil {
			d.releaseSession(sess)
			return fail("staging import: %v", err)
		}
		d.dev.Store(stage.Start, img.Content)
		d.dev.Persist(stage.Start, len(img.Content))
		ip := ImportPuddle{
			UUID:     uid.New(),
			OldAddr:  img.Addr,
			Size:     img.Size,
			Kind:     img.Kind,
			StagedAt: uint64(stage.Start),
		}
		if img.UUID == c.RootUUID {
			rootIdx = i
		}
		sess.Puddles = append(sess.Puddles, ip)
	}
	if rootIdx < 0 {
		d.releaseSession(sess)
		return fail("container has no root puddle")
	}
	sess.RootUUID = sess.Puddles[rootIdx].UUID
	// Map the root immediately: prefer its old address (the common,
	// conflict-free case); otherwise relocate it.
	root := &sess.Puddles[rootIdx]
	if err := d.resolveImport(sess, root); err != nil {
		d.releaseSession(sess)
		return fail("placing root puddle: %v", err)
	}
	d.mapImport(sess, root)
	d.st.Sessions[sess.ID] = sess
	atomic.AddUint64(&d.st.Imports, 1)
	if resp := d.persistOrFail(sessRec(sess), d.countersRec()); resp != nil {
		atomic.AddUint64(&d.st.Imports, ^uint64(0)) // the import did not happen
		delete(d.st.Sessions, sess.ID)
		d.releaseSession(sess)
		return resp
	}
	infos := make([]proto.PuddleInfo, len(sess.Puddles))
	for i, ip := range sess.Puddles {
		infos[i] = proto.PuddleInfo{UUID: ip.UUID, Addr: ip.OldAddr, Size: ip.Size, Kind: ip.Kind}
	}
	return &proto.Response{
		Session: sess.ID,
		Pool:    sess.PoolUUID,
		UUID:    root.UUID,
		Addr:    root.NewAddr,
		Size:    root.Size,
		Puddles: infos,
		Types:   c.Types,
	}
}

// sessRec builds an import session's journal record — of a copy: the
// session keeps mutating under sessMu. Caller holds sessMu.
func sessRec(s *ImportSession) entRec {
	return putRec(recSession, strconv.FormatUint(s.ID, 10), s.clone())
}

// resolveImport assigns a global-space address to ip: its old address
// when free, a fresh range on conflict. Caller holds sessMu.
func (d *Daemon) resolveImport(sess *ImportSession, ip *ImportPuddle) error {
	if ip.NewAddr != 0 {
		return nil
	}
	if r, err := d.space.ReserveAt(pmem.Addr(ip.OldAddr), ip.Size, ip.UUID.String()); err == nil {
		ip.NewAddr = uint64(r.Start)
		return nil
	} else if err != addrspace.ErrConflict && err != addrspace.ErrOutside {
		return err
	}
	r, err := d.space.Reserve(ip.Size, ip.UUID.String())
	if err != nil {
		return err
	}
	ip.NewAddr = uint64(r.Start)
	return nil
}

// mapImport copies the staged image to its assigned address and
// refreshes the puddle's identity. Caller holds sessMu.
func (d *Daemon) mapImport(sess *ImportSession, ip *ImportPuddle) {
	if ip.Mapped {
		return
	}
	d.dev.Copy(pmem.Addr(ip.NewAddr), pmem.Addr(ip.StagedAt), int(ip.Size))
	d.dev.Persist(pmem.Addr(ip.NewAddr), int(ip.Size))
	if p, err := puddle.Open(d.dev, pmem.Addr(ip.NewAddr)); err == nil {
		p.SetUUID(ip.UUID)
		p.SetPoolUUID(sess.PoolUUID)
	}
	ip.Mapped = true
}

func (d *Daemon) releaseSession(sess *ImportSession) {
	for i := range sess.Puddles {
		ip := &sess.Puddles[i]
		if ip.StagedAt != 0 {
			d.staging.Release(pmem.Addr(ip.StagedAt))
		}
		if ip.NewAddr != 0 && !ip.Mapped {
			d.space.Release(pmem.Addr(ip.NewAddr))
		}
	}
}

// session resolves an import session. Caller holds sessMu.
func (d *Daemon) session(creds Creds, id uint64) (*ImportSession, *proto.Response) {
	sess, ok := d.st.Sessions[id]
	if !ok {
		return nil, fail("import session %d not found", id)
	}
	if creds != Superuser && creds != sess.Creds {
		return nil, fail("permission denied on import session %d", id)
	}
	return sess, nil
}

func (d *Daemon) opImportResolve(creds Creds, req *proto.Request) *proto.Response {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	sess, errResp := d.session(creds, req.Session)
	if errResp != nil {
		return errResp
	}
	for i := range sess.Puddles {
		ip := &sess.Puddles[i]
		if req.Addr >= ip.OldAddr && req.Addr < ip.OldAddr+ip.Size {
			if err := d.resolveImport(sess, ip); err != nil {
				return fail("resolving: %v", err)
			}
			// The frontier reservation must survive a crash.
			if resp := d.persistOrFail(sessRec(sess)); resp != nil {
				return resp
			}
			return &proto.Response{UUID: ip.UUID, Addr: ip.NewAddr, Size: ip.Size, Mapped: ip.Mapped}
		}
	}
	return fail("address %#x not in import session %d", req.Addr, req.Session)
}

func (d *Daemon) opImportMap(creds Creds, req *proto.Request) *proto.Response {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	sess, errResp := d.session(creds, req.Session)
	if errResp != nil {
		return errResp
	}
	for i := range sess.Puddles {
		ip := &sess.Puddles[i]
		if ip.UUID == req.UUID {
			if ip.NewAddr == 0 {
				if err := d.resolveImport(sess, ip); err != nil {
					return fail("resolving: %v", err)
				}
			}
			d.mapImport(sess, ip)
			if resp := d.persistOrFail(sessRec(sess)); resp != nil {
				return resp
			}
			return &proto.Response{UUID: ip.UUID, Addr: ip.NewAddr, Size: ip.Size, Mapped: true}
		}
	}
	return fail("puddle %v not in import session %d", req.UUID, req.Session)
}

func (d *Daemon) opImportDone(creds Creds, req *proto.Request) *proto.Response {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	sess, errResp := d.session(creds, req.Session)
	if errResp != nil {
		return errResp
	}
	for i := range sess.Puddles {
		if !sess.Puddles[i].Mapped {
			return fail("import session %d has unmapped puddles (map or rewrite them first)", req.Session)
		}
	}
	pool := &PoolRec{
		Name:     sess.PoolName,
		UUID:     sess.PoolUUID,
		Root:     sess.RootUUID,
		OwnerUID: sess.Creds.UID,
		OwnerGID: sess.Creds.GID,
		Mode:     sess.Mode,
	}
	pus := make([]*PuddleRec, len(sess.Puddles))
	for i, ip := range sess.Puddles {
		pus[i] = &PuddleRec{UUID: ip.UUID, Addr: ip.NewAddr, Size: ip.Size, Kind: ip.Kind, Pool: pool.UUID}
	}
	// A failed batch restores the session, which still owns the puddles'
	// reservations.
	if resp := d.adopt(pool, pus, nil, []entRec{delRec(recSession, strconv.FormatUint(sess.ID, 10))},
		func() { delete(d.st.Sessions, sess.ID) },
		func() { d.st.Sessions[sess.ID] = sess }); resp != nil {
		return resp
	}
	for i := range sess.Puddles {
		d.staging.Release(pmem.Addr(sess.Puddles[i].StagedAt))
	}
	return d.poolResp(pool, true)
}
