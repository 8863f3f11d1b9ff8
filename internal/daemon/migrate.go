// Live pool migration and warm-standby replication (paper §4.2
// applied across machines: location-independent data means a pool can
// change owners while applications keep writing).
//
// The engine is iterative pre-copy, the classic live-VM-migration
// shape recast for puddles:
//
//  1. The source arms dirty-chunk tracking on every member puddle and
//     streams a full snapshot to the target while clients keep
//     writing (the writes land in the dirty maps).
//  2. Dirty chunks are re-shipped in rounds until a round is small.
//  3. The pool's root freeze word is set to FreezeQuiesce; new
//     transactions on the pool park, in-flight ones drain (the
//     on-media active-transaction count reaches zero), and the final
//     delta — bounded by one round's dirt, not by pool size — ships
//     inside the only stop-the-world window.
//  4. OpMigrateCommit makes the target the owner: it rewrites
//     pointers if any puddle changed address (reloc.AddrMap, the same
//     translation the import cascade uses) and adopts the pool in one
//     journal batch. The source cedes — persistently — and leaves a
//     FreezeMoved tombstone behind so attached clients redirect.
//
// Crash safety is anchored in two persistent records. The source
// journals a MigOutRec before any byte leaves and flips it to
// migCommitSent before sending the commit; the target journals a
// MigDoneRec in the same batch that adopts the pool. Rebooting either
// side resolves to exactly one owner: a streaming-phase source aborts
// locally (the target's volatile transfer state is gone, so nothing
// adopted); a commitSent source re-sends the commit — answered
// idempotently from MigDoneRec if the adopt landed, or with the typed
// "unknown migration" refusal if it did not — and cedes or aborts
// accordingly. Until that resolution the pool answers only the typed
// "migration unresolved" refusal; it is never writable in two places.
//
// Warm standby runs the chunk pipe in reverse after handoff: the new
// owner keeps dirty tracking armed and ships quiesced delta rounds
// back to the source, which retains its copy (StandbyRec) and can be
// promoted with OpFailover when the owner dies.
package daemon

import (
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/reloc"
	"puddles/internal/uid"
)

// Transfer tuning.
const (
	// migChunkBytes is the payload size of one snapshot/delta frame.
	migChunkBytes = 256 << 10
	// migMaxRounds bounds the pre-copy delta rounds before the engine
	// quiesces regardless of convergence.
	migMaxRounds = 8
	// migConvergedBytes: a delta round at or below this is "converged"
	// — the final quiesced round will be at most this plus one round's
	// new dirt, keeping the pause independent of pool size.
	migConvergedBytes = migChunkBytes
	// migQuiesceTimeout bounds how long the source waits for in-flight
	// transactions to drain before aborting the migration.
	migQuiesceTimeout = 5 * time.Second
	// migDialTimeout bounds the peer dial.
	migDialTimeout = 5 * time.Second
	// defaultReplicaInterval paces the warm-standby replicator.
	defaultReplicaInterval = 250 * time.Millisecond
)

// Source-side migration phases (MigOutRec.Phase).
const (
	migStreaming  uint32 = 1 // pre-copy in progress; nothing adopted remotely
	migCommitSent uint32 = 2 // commit may have landed; must ask the target
)

// MigOutRec is the source's persistent record of one outbound
// migration. It exists from before the first byte is streamed until
// ownership is ceded or the migration aborted, and is what boot-time
// resolution drives from.
type MigOutRec struct {
	ID      uid.UUID // migration id (the wire key for every frame)
	Pool    string
	Target  string // destination daemon URL
	Phase   uint32 // migStreaming or migCommitSent
	Standby bool   // retain a warm-standby copy after ceding
}

// MovedRec is the tombstone a ceded pool leaves behind: requests for
// the pool are refused with the typed pool-moved error carrying the
// new owner's URL, which clients follow transparently.
type MovedRec struct {
	Pool   string
	Target string
}

// MigDoneRec marks an adopted migration at the target, persisted in
// the same journal batch as the adoption itself — a re-sent commit
// (crashed source resolving) is answered idempotently from it.
type MigDoneRec struct {
	ID   uid.UUID
	Pool string
}

// StandbyRec is a warm-standby copy retained on this daemon after
// ceding (or installed by a replica attach). The puddle records hold
// LOCAL addresses (still reserved in the address space); OwnerAddrs
// are the owner's addresses, parallel to Puddles, so a failover can
// rewrite owner-space pointers back into local space when they
// differ. Epoch counts acked replication rounds.
type StandbyRec struct {
	Pool       string
	UUID       uid.UUID // pool UUID
	Root       uid.UUID
	OwnerUID   uint32
	OwnerGID   uint32
	Mode       uint32
	Puddles    []PuddleRec   // local copies (Addr = local address)
	OwnerAddrs []uint64      // owner-space addresses, parallel to Puddles
	LogSpaces  []LogSpaceRec // re-registered on failover
	Epoch      uint64        // last acked replication round
	Owner      string        // current owner's URL (for pool-moved answers)
}

// ReplicaRec is the owner's persistent obligation to keep feeding a
// standby: rebooting the owner restarts the replication stream (with
// a full resync, since dirty state is volatile).
type ReplicaRec struct {
	Pool   string
	Target string // the standby's URL
	Epoch  uint64
}

// MigPuddle is one member puddle in the wire manifest.
type MigPuddle struct {
	UUID uid.UUID
	Addr uint64 // source-space address
	Size uint64
	Kind uint64
}

// MigLogSpace carries a registered log space's registration so the
// target re-registers it under the same credentials.
type MigLogSpace struct {
	UUID   uid.UUID
	Creds  Creds
	Shards uint32
}

// MigManifest is the OpMigrateBegin payload: everything the target
// needs to reserve space, register types, and later adopt the pool.
// SourceURL, when non-empty, asks the target to replicate back to the
// source after adoption (warm standby).
type MigManifest struct {
	ID        uid.UUID
	Pool      string
	PoolUUID  uid.UUID
	Root      uid.UUID
	OwnerUID  uint32
	OwnerGID  uint32
	Mode      uint32
	Types     []ptypes.TypeInfo
	Puddles   []MigPuddle
	LogSpaces []MigLogSpace
	SourceURL string
}

// migIn is the target's volatile state for one inbound migration:
// manifest plus assigned addresses. Deliberately not persisted — a
// target crash before commit simply loses it, the source's commit
// gets the typed "unknown migration" answer, and the source aborts.
type migIn struct {
	man   *MigManifest
	addrs map[uid.UUID]uint64 // puddle UUID -> assigned local address
	sizes map[uid.UUID]uint64
}

// Journal records of the migration entities that change after they are
// first journaled (phase flips, epoch bumps, owner-address updates):
// a record's value must never be written again (entRec), so these
// carry a copy. The slices inside a StandbyRec are only ever replaced
// whole, so a shallow copy is enough.
func migOutRec(m *MigOutRec) entRec {
	cp := *m
	return putRec(recMigOut, uuidKey(m.ID), &cp)
}

func standbyRec(s *StandbyRec) entRec {
	cp := *s
	return putRec(recStandby, s.Pool, &cp)
}

func replicaRec(r *ReplicaRec) entRec {
	cp := *r
	return putRec(recReplica, r.Pool, &cp)
}

// The manifest travels as the Blob of OpMigrateBegin and, with only
// Pool, PoolUUID and Puddles set, of OpReplicaAttach, in codec.go's
// grammar; it is part of the wire format, so a change to it bumps
// proto.ProtocolVersion.
//
// manifest: id:uuid pool:bytes poolUUID:uuid root:uuid ownerUID:uv ownerGID:uv mode:uv
// types (as recTypes) n:uv n×{uuid addr:uv size:uv kind:uv}
// k:uv k×{uuid uid:uv gid:uv shards:uv} sourceURL:bytes
func (m *MigManifest) encode() []byte {
	b := appendStr(append([]byte(nil), m.ID[:]...), m.Pool)
	b = append(append(b, m.PoolUUID[:]...), m.Root[:]...)
	b = uvs(b, uint64(m.OwnerUID), uint64(m.OwnerGID), uint64(m.Mode))
	b = typeList(m.Types).appendBody(b)
	b = binary.AppendUvarint(b, uint64(len(m.Puddles)))
	for i := range m.Puddles {
		p := &m.Puddles[i]
		b = uvs(append(b, p.UUID[:]...), p.Addr, p.Size, p.Kind)
	}
	b = binary.AppendUvarint(b, uint64(len(m.LogSpaces)))
	for i := range m.LogSpaces {
		ls := &m.LogSpaces[i]
		b = uvs(append(b, ls.UUID[:]...), uint64(ls.Creds.UID), uint64(ls.Creds.GID), uint64(ls.Shards))
	}
	return appendStr(b, m.SourceURL)
}

func decodeManifest(blob []byte) (*MigManifest, error) {
	d := dec{b: blob}
	m := &MigManifest{
		ID: d.uuid(), Pool: d.str(), PoolUUID: d.uuid(), Root: d.uuid(),
		OwnerUID: d.u32(), OwnerGID: d.u32(), Mode: d.u32(), Types: d.types(),
	}
	if n := d.count(len(uid.UUID{}) + 3); n > 0 {
		m.Puddles = make([]MigPuddle, n)
		for i := range m.Puddles {
			m.Puddles[i] = MigPuddle{UUID: d.uuid(), Addr: d.uv(), Size: d.uv(), Kind: d.uv()}
		}
	}
	if n := d.count(len(uid.UUID{}) + 3); n > 0 {
		m.LogSpaces = make([]MigLogSpace, n)
		for i := range m.LogSpaces {
			m.LogSpaces[i] = MigLogSpace{UUID: d.uuid(), Creds: Creds{d.u32(), d.u32()}, Shards: d.u32()}
		}
	}
	m.SourceURL = d.str()
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// --- options ---

// WithAdvertiseURL sets the URL peers should use to reach this daemon
// — what pool-moved refusals carry and what a warm standby's owner
// field records. Required for standby-retaining migrations (the
// target must know where to ship deltas back to).
func WithAdvertiseURL(url string) Option {
	return func(d *Daemon) { d.advertise = url }
}

// WithMigrationHook installs a test hook fired at named migration
// phases on the source ("snapshot", "delta", "pre-commit",
// "post-commit") — the chaos harness kills daemons inside it.
func WithMigrationHook(fn func(phase string)) Option {
	return func(d *Daemon) { d.migHook = fn }
}

// WithReplicaInterval paces the warm-standby replicator (default
// 250ms). Tests set it large and drive rounds via SyncReplica.
func WithReplicaInterval(iv time.Duration) Option {
	return func(d *Daemon) {
		if iv > 0 {
			d.replEvery = iv
		}
	}
}

func (d *Daemon) migPhase(phase string) {
	if d.migHook != nil {
		d.migHook(phase)
	}
}

// --- peer dialing ---

// dialPeer connects to another daemon as superuser. The daemon cannot
// reuse internal/core's dialer (core imports daemon), so the small
// scheme switch is repeated here: unix://path, tcp://host:port,
// tcps://host:port (TLS; peers verify by private network, not PKI, so
// certificate verification is off exactly as in core.ParseURL), or a
// bare host:port meaning tcp.
func dialPeer(target string) (*proto.Conn, error) {
	var (
		nc  net.Conn
		err error
	)
	switch {
	case strings.HasPrefix(target, "unix://"):
		nc, err = net.DialTimeout("unix", strings.TrimPrefix(target, "unix://"), migDialTimeout)
	case strings.HasPrefix(target, "tcp://"):
		nc, err = net.DialTimeout("tcp", strings.TrimPrefix(target, "tcp://"), migDialTimeout)
	case strings.HasPrefix(target, "tcps://"):
		dialer := &net.Dialer{Timeout: migDialTimeout}
		nc, err = tls.DialWithDialer(dialer, "tcp", strings.TrimPrefix(target, "tcps://"),
			&tls.Config{InsecureSkipVerify: true})
	default:
		nc, err = net.DialTimeout("tcp", target, migDialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("dialing peer %s: %w", target, err)
	}
	c := proto.NewConnHello(nc, proto.Hello{}) // daemon-to-daemon: superuser
	if err := c.Handshake(); err != nil {
		c.Close()
		return nil, fmt.Errorf("peer handshake %s: %w", target, err)
	}
	return c, nil
}

// rtOK round-trips req and folds a remote error into err.
func rtOK(c *proto.Conn, req *proto.Request) (*proto.Response, error) {
	resp, err := c.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &proto.RemoteError{Msg: resp.Err}
	}
	return resp, nil
}

// --- refusal helpers ---

// movedResp answers for a pool this daemon no longer owns: a ceded
// pool's tombstone or a standby copy both refuse with the typed
// pool-moved error carrying the owner's URL. Returns nil when the
// name is unclaimed here.
func (d *Daemon) movedResp(name string) *proto.Response {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	if m := d.st.Moved[name]; m != nil {
		return fail("%s%s", proto.PoolMovedMsg, m.Target)
	}
	if s := d.st.Standbys[name]; s != nil && s.Owner != "" {
		return fail("%s%s", proto.PoolMovedMsg, s.Owner)
	}
	return nil
}

// migOutFor returns the in-flight outbound migration for pool name,
// or nil.
func (d *Daemon) migOutFor(name string) *MigOutRec {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	for _, m := range d.st.MigsOut {
		if m.Pool == name {
			return m
		}
	}
	return nil
}

// migBlocked refuses structural mutations on a migrating pool: while
// streaming, membership must stay what the manifest promised (reads
// and data writes continue — that is the point of live migration);
// once the commit is in flight the pool may already belong to the
// target, so everything is refused until resolution.
func (d *Daemon) migBlocked(name string) *proto.Response {
	switch m := d.migOutFor(name); {
	case m == nil:
		return nil
	case m.Phase >= migCommitSent:
		return fail("%s (pool %q, ask again after recovery)", proto.MigUnresolvedMsg, name)
	default:
		return fail("pool %q is migrating", name)
	}
}

// unresolvedResp refuses every op on a pool whose migration reached
// commitSent (ownership ambiguous until ResolveMigrations).
func (d *Daemon) unresolvedResp(name string) *proto.Response {
	if m := d.migOutFor(name); m != nil && m.Phase >= migCommitSent {
		return fail("%s (pool %q, ask again after recovery)", proto.MigUnresolvedMsg, name)
	}
	return nil
}

// --- source engine ---

// opMigratePool runs the whole source-side engine. It is dispatched
// BEFORE the shared opMu (a migration spans seconds; holding RLock
// throughout would block checkpoints and shutdown), and instead takes
// opMu.RLock around each registry mutation + journal append.
func (d *Daemon) opMigratePool(creds Creds, req *proto.Request) *proto.Response {
	if req.Name == "" || req.Target == "" {
		return fail("migrate: pool name and target URL required")
	}
	standby := req.Kind&1 != 0
	if standby && d.advertise == "" {
		return fail("migrate: standby retention requires this daemon to advertise a URL (-advertise)")
	}
	if resp := d.movedResp(req.Name); resp != nil {
		return resp
	}
	pool := d.poolByName(req.Name)
	if pool == nil {
		return fail("pool %q not found", req.Name)
	}
	if !checkPerm(creds, pool, true) {
		return fail("permission denied migrating pool %q", req.Name)
	}

	start := time.Now()
	mig := &MigOutRec{ID: uid.New(), Pool: req.Name, Target: req.Target, Phase: migStreaming, Standby: standby}

	// Build the manifest and publish the MigOutRec under pool.mu: every
	// structural op re-checks migration status under the same lock, so
	// membership cannot change between the snapshot of it and the
	// refusals taking effect.
	man, members, logSpaces, resp := d.beginOutbound(creds, pool, mig, standby)
	if resp != nil {
		return resp
	}

	// Dirty tracking must be armed before the first snapshot byte is
	// read: a write racing the snapshot lands in the map and is
	// re-shipped in a delta round.
	maps := make([]*pmem.DirtyMap, len(members))
	for i, m := range members {
		maps[i] = d.dev.TrackDirty(pmem.Range{Start: pmem.Addr(m.Addr), End: pmem.Addr(m.Addr) + pmem.Addr(m.Size)})
	}
	d.dev.ArmQuiesce()

	var report proto.MigReport
	peer, err := dialPeer(req.Target)
	if err != nil {
		return d.abortOutbound(nil, mig, members, maps, fail("migrate: %v", err))
	}
	defer peer.Close()

	if _, err := rtOK(peer, &proto.Request{Op: proto.OpMigrateBegin, UUID: mig.ID, Blob: man.encode()}); err != nil {
		return d.abortOutbound(peer, mig, members, maps, fail("migrate: begin refused: %v", err))
	}

	// Full snapshot, streamed chunk-wise off the device while clients
	// keep writing.
	for _, m := range members {
		n, err := d.shipRange(peer, mig.ID, m, pmem.Range{Start: pmem.Addr(m.Addr), End: pmem.Addr(m.Addr) + pmem.Addr(m.Size)}, proto.OpMigrateChunk)
		report.SnapshotBytes += n
		if err != nil {
			return d.abortOutbound(peer, mig, members, maps, fail("migrate: snapshot: %v", err))
		}
	}
	d.migPhase("snapshot")

	// Delta rounds until converged (or bounded).
	for round := 0; round < migMaxRounds; round++ {
		var roundBytes uint64
		for i, m := range members {
			for _, r := range maps[i].CollectClear() {
				n, err := d.shipRange(peer, mig.ID, m, r, proto.OpMigrateDelta)
				roundBytes += n
				if err != nil {
					return d.abortOutbound(peer, mig, members, maps, fail("migrate: delta: %v", err))
				}
			}
		}
		report.Rounds = round + 1
		report.DeltaBytes += roundBytes
		if round == 0 {
			d.migPhase("delta")
		}
		if roundBytes <= migConvergedBytes {
			break
		}
	}

	// Final quiesce: park new transactions, drain in-flight ones, ship
	// one last (small) delta. This is the only stop-the-world window;
	// its length depends on one round's dirt, not on pool size.
	root, err := puddle.Open(d.dev, d.rootAddr(members, man.Root))
	if err != nil {
		return d.abortOutbound(peer, mig, members, maps, fail("migrate: opening root: %v", err))
	}
	pauseStart := time.Now()
	root.SetFreeze(puddle.FreezeQuiesce)
	if !d.drainActiveTx(root) {
		root.SetFreeze(puddle.FreezeNone)
		return d.abortOutbound(peer, mig, members, maps, fail("migrate: transactions did not drain within %v", migQuiesceTimeout))
	}
	for i, m := range members {
		for _, r := range maps[i].CollectClear() {
			n, err := d.shipRange(peer, mig.ID, m, r, proto.OpMigrateDelta)
			report.FinalBytes += n
			if err != nil {
				root.SetFreeze(puddle.FreezeNone)
				return d.abortOutbound(peer, mig, members, maps, fail("migrate: final delta: %v", err))
			}
		}
	}
	report.DeltaBytes += report.FinalBytes

	// Point of no return: persist commitSent BEFORE the commit can
	// possibly reach the target, so a crash from here on knows it must
	// ask the target who owns the pool.
	mig.Phase = migCommitSent
	if resp := d.persistMigOut(mig); resp != nil {
		root.SetFreeze(puddle.FreezeNone)
		return d.abortOutbound(peer, mig, members, maps, resp)
	}
	d.migPhase("pre-commit")
	if _, err := rtOK(peer, &proto.Request{Op: proto.OpMigrateCommit, UUID: mig.ID}); err != nil {
		// The commit may or may not have landed (a transport error hides
		// the answer). Leave the commitSent record for ResolveMigrations;
		// the pool stays frozen and answers "unresolved".
		return fail("migrate: commit did not complete: %v (pool frozen; resolve after reboot)", err)
	}
	d.migPhase("post-commit")

	// Cede: one journal batch removes the pool, leaves the tombstone
	// (and the standby record), and retires the MigOutRec.
	if resp := d.cedePool(pool, mig, members, logSpaces, man); resp != nil {
		// Adoption landed but the cede batch failed to persist: the
		// commitSent record survives, ResolveMigrations re-sends the
		// (idempotent) commit and re-cedes.
		return resp
	}
	root.SetFreeze(puddle.FreezeMoved)
	report.PauseNs = uint64(time.Since(pauseStart).Nanoseconds())
	report.TotalNs = uint64(time.Since(start).Nanoseconds())
	for _, m := range maps {
		d.dev.Untrack(m)
	}
	// The quiesce arm deliberately stays: the FreezeMoved tombstone is
	// what redirects still-attached clients, and they only check it
	// while the device is armed.
	d.migsOutN.Add(1)
	d.logf("migrate: pool %q ceded to %s (%d rounds, %d B snapshot, %d B delta, pause %v)",
		req.Name, req.Target, report.Rounds, report.SnapshotBytes, report.DeltaBytes,
		time.Duration(report.PauseNs))
	return &proto.Response{Report: report}
}

// beginOutbound snapshots the pool's membership into a manifest and
// durably publishes the MigOutRec, all under pool.mu so no structural
// op can slip between the snapshot and the refusals taking effect.
func (d *Daemon) beginOutbound(creds Creds, pool *PoolRec, mig *MigOutRec, standby bool) (*MigManifest, []*PuddleRec, []*LogSpaceRec, *proto.Response) {
	d.opMu.RLock()
	defer d.opMu.RUnlock()
	if d.closed.Load() {
		return nil, nil, nil, fail("daemon is shut down")
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	d.poolsMu.RLock()
	current := d.st.Pools[pool.Name] == pool
	d.poolsMu.RUnlock()
	if !current {
		return nil, nil, nil, fail("pool %q not found", pool.Name)
	}
	if m := d.migOutFor(pool.Name); m != nil {
		return nil, nil, nil, fail("pool %q is already migrating", pool.Name)
	}
	man := &MigManifest{
		ID: mig.ID, Pool: pool.Name, PoolUUID: pool.UUID, Root: pool.Root,
		OwnerUID: pool.OwnerUID, OwnerGID: pool.OwnerGID, Mode: pool.Mode,
		Types: d.types.All(),
	}
	if standby {
		man.SourceURL = d.advertise
	}
	var members []*PuddleRec
	d.poolsMu.RLock()
	for _, pu := range pool.Puddles {
		rec := d.st.Puddles[pu]
		if rec == nil {
			continue
		}
		members = append(members, rec)
		man.Puddles = append(man.Puddles, MigPuddle{UUID: rec.UUID, Addr: rec.Addr, Size: rec.Size, Kind: rec.Kind})
	}
	d.poolsMu.RUnlock()
	var logSpaces []*LogSpaceRec
	d.lsMu.Lock()
	for _, pu := range pool.Puddles {
		if ls := d.st.LogSpaces[pu]; ls != nil {
			logSpaces = append(logSpaces, ls)
			man.LogSpaces = append(man.LogSpaces, MigLogSpace{UUID: ls.UUID, Creds: ls.Creds, Shards: ls.Shards})
		}
	}
	d.lsMu.Unlock()
	d.poolsMu.Lock()
	d.st.MigsOut[mig.ID] = mig
	d.poolsMu.Unlock()
	if resp := d.persistOrFail(migOutRec(mig)); resp != nil {
		d.poolsMu.Lock()
		delete(d.st.MigsOut, mig.ID)
		d.poolsMu.Unlock()
		return nil, nil, nil, resp
	}
	return man, members, logSpaces, nil
}

// persistMigOut re-journals an updated MigOutRec (phase flip).
func (d *Daemon) persistMigOut(mig *MigOutRec) *proto.Response {
	d.opMu.RLock()
	defer d.opMu.RUnlock()
	if d.closed.Load() {
		return fail("daemon is shut down")
	}
	d.poolsMu.Lock()
	defer d.poolsMu.Unlock()
	return d.persistOrFail(migOutRec(mig))
}

// rootAddr finds the root puddle's address among members.
func (d *Daemon) rootAddr(members []*PuddleRec, root uid.UUID) pmem.Addr {
	for _, m := range members {
		if m.UUID == root {
			return pmem.Addr(m.Addr)
		}
	}
	return 0
}

// drainActiveTx waits for the root's on-media active-transaction
// count to reach zero (bounded). The freeze word is already set, so
// the count only decreases.
func (d *Daemon) drainActiveTx(root *puddle.Puddle) bool {
	deadline := time.Now().Add(migQuiesceTimeout)
	for d.dev.LoadU64(root.ActiveTxAddr()) != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// shipRange streams one range of puddle m, a frame per chunk.
// Returns the bytes shipped.
func (d *Daemon) shipRange(peer *proto.Conn, migID uid.UUID, m *PuddleRec, r pmem.Range, op proto.Op) (uint64, error) {
	var shipped uint64
	buf := make([]byte, migChunkBytes)
	for addr := r.Start; addr < r.End; {
		n := uint64(r.End - addr)
		if n > migChunkBytes {
			n = migChunkBytes
		}
		b := buf[:n]
		d.dev.Load(addr, b)
		req := &proto.Request{
			Op: op, UUID: migID, Pool: m.UUID,
			Addr: uint64(addr) - m.Addr, // offset within the puddle
			Blob: b,
		}
		if _, err := rtOK(peer, req); err != nil {
			return shipped, err
		}
		shipped += n
		addr += pmem.Addr(n)
	}
	return shipped, nil
}

// abortOutbound unwinds a failed (pre-commit) migration: best-effort
// remote abort, retire the MigOutRec, disarm tracking.
func (d *Daemon) abortOutbound(peer *proto.Conn, mig *MigOutRec, members []*PuddleRec, maps []*pmem.DirtyMap, resp *proto.Response) *proto.Response {
	if peer != nil {
		peer.RoundTrip(&proto.Request{Op: proto.OpMigrateAbort, UUID: mig.ID})
	}
	d.opMu.RLock()
	d.poolsMu.Lock()
	delete(d.st.MigsOut, mig.ID)
	d.appendBatch([]entRec{delRec(recMigOut, uuidKey(mig.ID))})
	d.poolsMu.Unlock()
	d.opMu.RUnlock()
	for _, m := range maps {
		if m != nil {
			d.dev.Untrack(m)
		}
	}
	d.dev.DisarmQuiesce()
	d.migAborts.Add(1)
	return resp
}

// cedePool durably transfers ownership away: persist FIRST (one
// batch: puddle + log-space + pool tombstones, the MovedRec, the
// MigOutRec retirement, and the StandbyRec when retaining a copy),
// then mutate the maps and release reservations. While pool.mu is
// held nothing else can touch the pool, so a failed persist needs no
// unwind — exactly the opDeletePool idiom.
func (d *Daemon) cedePool(pool *PoolRec, mig *MigOutRec, members []*PuddleRec, logSpaces []*LogSpaceRec, man *MigManifest) *proto.Response {
	d.opMu.RLock()
	defer d.opMu.RUnlock()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	moved := &MovedRec{Pool: pool.Name, Target: mig.Target}
	recs := make([]entRec, 0, len(members)+len(logSpaces)+4)
	for _, m := range members {
		recs = append(recs, delRec(recPuddle, uuidKey(m.UUID)))
	}
	for _, ls := range logSpaces {
		recs = append(recs, delRec(recLogSpace, uuidKey(ls.UUID)))
	}
	recs = append(recs,
		delRec(recPool, pool.Name),
		putRec(recMoved, pool.Name, moved),
		delRec(recMigOut, uuidKey(mig.ID)))
	var standby *StandbyRec
	if mig.Standby {
		standby = &StandbyRec{
			Pool: pool.Name, UUID: pool.UUID, Root: pool.Root,
			OwnerUID: pool.OwnerUID, OwnerGID: pool.OwnerGID, Mode: pool.Mode,
			Epoch: 0, Owner: mig.Target,
		}
		for _, m := range members {
			standby.Puddles = append(standby.Puddles, *m)
			standby.OwnerAddrs = append(standby.OwnerAddrs, m.Addr) // updated on attach if the owner relocated
		}
		for _, ls := range logSpaces {
			standby.LogSpaces = append(standby.LogSpaces, *ls)
		}
		recs = append(recs, standbyRec(standby))
	}
	if resp := d.persistOrFail(recs...); resp != nil {
		return resp
	}
	d.poolsMu.Lock()
	for _, m := range members {
		delete(d.st.Puddles, m.UUID)
	}
	delete(d.st.Pools, pool.Name)
	d.st.Moved[pool.Name] = moved
	delete(d.st.MigsOut, mig.ID)
	if standby != nil {
		d.st.Standbys[pool.Name] = standby
	}
	d.poolsMu.Unlock()
	d.lsMu.Lock()
	for _, ls := range logSpaces {
		delete(d.st.LogSpaces, ls.UUID)
	}
	d.lsMu.Unlock()
	if standby == nil {
		// A standby keeps its copies, so their reservations stay.
		for _, m := range members {
			d.space.Release(pmem.Addr(m.Addr))
		}
	}
	return nil
}

// --- target handlers (dispatched under opMu.RLock) ---

// requireSuper guards the daemon-to-daemon ops.
func requireSuper(creds Creds) *proto.Response {
	if creds != Superuser {
		return fail("permission denied (migration transfer ops are daemon-to-daemon)")
	}
	return nil
}

func (d *Daemon) opMigrateBegin(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	man, err := decodeManifest(req.Blob)
	if err != nil {
		return fail("migrate: decoding manifest: %v", err)
	}
	if man.Pool == "" || len(man.Puddles) == 0 {
		return fail("migrate: empty manifest")
	}
	if d.poolByName(man.Pool) != nil {
		return fail("migrate: pool %q already exists here", man.Pool)
	}
	d.poolsMu.RLock()
	_, isStandby := d.st.Standbys[man.Pool]
	d.poolsMu.RUnlock()
	if isStandby {
		return fail("migrate: a standby copy of %q is held here; fail over or drop it first", man.Pool)
	}
	for _, ti := range man.Types {
		if err := d.types.Put(ti); err != nil {
			return fail("migrate: importing type %q: %v", ti.Name, err)
		}
	}
	d.migMu.Lock()
	defer d.migMu.Unlock()
	if d.migsIn == nil {
		d.migsIn = make(map[uid.UUID]*migIn)
	}
	if _, ok := d.migsIn[req.UUID]; ok {
		return fail("migrate: migration %v already begun", req.UUID)
	}
	in := &migIn{man: man, addrs: make(map[uid.UUID]uint64), sizes: make(map[uid.UUID]uint64)}
	release := func() {
		for _, a := range in.addrs {
			d.space.Release(pmem.Addr(a))
		}
	}
	infos := make([]proto.PuddleInfo, 0, len(man.Puddles))
	for _, p := range man.Puddles {
		// Prefer the source address — identity placement means no pointer
		// rewriting at all; fall back to a fresh range on conflict.
		r, err := d.space.ReserveAt(pmem.Addr(p.Addr), p.Size, p.UUID.String())
		if err != nil {
			r, err = d.space.Reserve(p.Size, p.UUID.String())
		}
		if err != nil {
			release()
			return fail("migrate: reserving space for %v: %v", p.UUID, err)
		}
		in.addrs[p.UUID] = uint64(r.Start)
		in.sizes[p.UUID] = p.Size
		infos = append(infos, proto.PuddleInfo{UUID: p.UUID, Addr: uint64(r.Start), Size: p.Size, Kind: p.Kind})
	}
	d.migsIn[req.UUID] = in
	return &proto.Response{Puddles: infos}
}

// opMigrateFrame lands one snapshot or delta frame. Replication
// frames (standby side) arrive on the same op, keyed by pool name
// with a nil migration id.
func (d *Daemon) opMigrateFrame(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	if req.UUID == uid.Nil && req.Name != "" {
		return d.standbyFrame(req)
	}
	d.migMu.Lock()
	in := d.migsIn[req.UUID]
	d.migMu.Unlock()
	if in == nil {
		return fail("%s %v", proto.MigUnknownMsg, req.UUID)
	}
	base, ok := in.addrs[req.Pool]
	if !ok {
		return fail("migrate: frame for unknown puddle %v", req.Pool)
	}
	if req.Addr+uint64(len(req.Blob)) > in.sizes[req.Pool] {
		return fail("migrate: frame overruns puddle %v (%d+%d > %d)", req.Pool, req.Addr, len(req.Blob), in.sizes[req.Pool])
	}
	d.dev.Store(pmem.Addr(base+req.Addr), req.Blob)
	d.dev.Persist(pmem.Addr(base+req.Addr), len(req.Blob))
	return &proto.Response{}
}

// standbyFrame lands one replication delta into a retained standby
// copy.
func (d *Daemon) standbyFrame(req *proto.Request) *proto.Response {
	d.poolsMu.RLock()
	s := d.st.Standbys[req.Name]
	d.poolsMu.RUnlock()
	if s == nil {
		return fail("pool %q is not a standby here", req.Name)
	}
	for i := range s.Puddles {
		p := &s.Puddles[i]
		if p.UUID != req.Pool {
			continue
		}
		if req.Addr+uint64(len(req.Blob)) > p.Size {
			return fail("replica: frame overruns puddle %v", req.Pool)
		}
		d.dev.Store(pmem.Addr(p.Addr+req.Addr), req.Blob)
		d.dev.Persist(pmem.Addr(p.Addr+req.Addr), len(req.Blob))
		return &proto.Response{}
	}
	return fail("replica: unknown puddle %v in standby %q", req.Pool, req.Name)
}

func (d *Daemon) opMigrateCommit(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	// Idempotent: a crashed source re-sends its commit; if the adopt
	// batch landed, the answer is yes no matter how many times it asks.
	d.poolsMu.RLock()
	done := d.st.MigsDone[req.UUID]
	d.poolsMu.RUnlock()
	if done != nil {
		return &proto.Response{}
	}
	d.migMu.Lock()
	in := d.migsIn[req.UUID]
	delete(d.migsIn, req.UUID)
	d.migMu.Unlock()
	if in == nil {
		return fail("%s %v", proto.MigUnknownMsg, req.UUID)
	}
	man := in.man

	// Relocation: if any puddle changed address, rewrite every pointer
	// field of every live object through the same AddrMap translation
	// the import cascade uses (paper §4.2).
	var moves []reloc.Move
	for _, p := range man.Puddles {
		moves = append(moves, reloc.Move{
			Old: pmem.Range{Start: pmem.Addr(p.Addr), End: pmem.Addr(p.Addr + p.Size)},
			New: pmem.Addr(in.addrs[p.UUID]),
		})
	}
	amap := reloc.NewAddrMap(moves)
	if !amap.Identity() {
		if err := d.rewritePool(man, in, amap); err != nil {
			return fail("migrate: pointer rewrite: %v", err)
		}
	}
	// The copied root carries the source's quiesce state; the pool is
	// open for business here.
	if rootAddr, ok := in.addrs[man.Root]; ok {
		if rp, err := puddle.Open(d.dev, pmem.Addr(rootAddr)); err == nil {
			d.dev.StoreU64(rp.ActiveTxAddr(), 0)
			d.dev.Persist(rp.ActiveTxAddr(), 8)
			rp.SetFreeze(puddle.FreezeNone)
		}
	}
	if resp := d.persistTypes(); resp != nil {
		return resp
	}

	// Adopt in one journal batch: pool + puddles + log spaces + the
	// MigDoneRec (and the replica obligation / tombstone retirement),
	// published-then-rolled-back like opImportDone.
	pool := &PoolRec{
		Name: man.Pool, UUID: man.PoolUUID, Root: man.Root,
		OwnerUID: man.OwnerUID, OwnerGID: man.OwnerGID, Mode: man.Mode,
	}
	doneRec := &MigDoneRec{ID: req.UUID, Pool: man.Pool}
	var replica *ReplicaRec
	if man.SourceURL != "" {
		replica = &ReplicaRec{Pool: man.Pool, Target: man.SourceURL}
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	recs := make([]entRec, 0, len(man.Puddles)+len(man.LogSpaces)+4)
	d.poolsMu.Lock()
	if _, ok := d.st.Pools[man.Pool]; ok {
		d.poolsMu.Unlock()
		return fail("migrate: pool %q already exists here", man.Pool)
	}
	var newRecs []*PuddleRec
	for _, p := range man.Puddles {
		rec := &PuddleRec{UUID: p.UUID, Addr: in.addrs[p.UUID], Size: p.Size, Kind: p.Kind, Pool: pool.UUID}
		d.st.Puddles[p.UUID] = rec
		pool.Puddles = append(pool.Puddles, p.UUID)
		newRecs = append(newRecs, rec)
		recs = append(recs, putRec(recPuddle, uuidKey(p.UUID), rec))
	}
	d.st.Pools[man.Pool] = pool
	d.st.MigsDone[req.UUID] = doneRec
	hadMoved := d.st.Moved[man.Pool] != nil // the pool is coming back home
	if hadMoved {
		delete(d.st.Moved, man.Pool)
	}
	if replica != nil {
		d.st.Replicas[man.Pool] = replica
	}
	d.poolsMu.Unlock()
	var lsRecs []*LogSpaceRec
	d.lsMu.Lock()
	for _, mls := range man.LogSpaces {
		ls := &LogSpaceRec{UUID: mls.UUID, Addr: in.addrs[mls.UUID], Creds: mls.Creds, Shards: mls.Shards}
		d.st.LogSpaces[mls.UUID] = ls
		lsRecs = append(lsRecs, ls)
		recs = append(recs, putRec(recLogSpace, uuidKey(mls.UUID), ls))
	}
	d.lsMu.Unlock()
	recs = append(recs, pool.rec(), putRec(recMigDone, uuidKey(req.UUID), doneRec))
	if hadMoved {
		recs = append(recs, delRec(recMoved, man.Pool))
	}
	if replica != nil {
		recs = append(recs, replicaRec(replica))
	}
	if resp := d.persistOrFail(recs...); resp != nil {
		d.poolsMu.Lock()
		delete(d.st.Pools, man.Pool)
		delete(d.st.MigsDone, req.UUID)
		delete(d.st.Replicas, man.Pool)
		for _, p := range man.Puddles {
			delete(d.st.Puddles, p.UUID)
		}
		d.poolsMu.Unlock()
		d.lsMu.Lock()
		for _, ls := range lsRecs {
			delete(d.st.LogSpaces, ls.UUID)
		}
		d.lsMu.Unlock()
		// Reservations stay with the (still-registered) migIn? No — the
		// migIn was consumed; put it back so an abort or retry can see it.
		d.migMu.Lock()
		d.migsIn[req.UUID] = in
		d.migMu.Unlock()
		return resp
	}
	_ = newRecs
	d.migsInN.Add(1)
	if replica != nil {
		d.startReplicator(man.Pool, !amap.Identity())
	}
	d.logf("migrate: adopted pool %q (migration %v, identity=%v)", man.Pool, req.UUID, amap.Identity())
	return &proto.Response{}
}

// rewritePool walks every live object of every data puddle and
// translates its pointer fields into the target address space.
func (d *Daemon) rewritePool(man *MigManifest, in *migIn, amap *reloc.AddrMap) error {
	for _, mp := range man.Puddles {
		if puddle.Kind(mp.Kind) != puddle.KindData {
			continue
		}
		p, err := puddle.Open(d.dev, pmem.Addr(in.addrs[mp.UUID]))
		if err != nil {
			return fmt.Errorf("opening relocated puddle %v: %w", mp.UUID, err)
		}
		h := alloc.NewHeap(p)
		// Collect first: the heap lock is held during Objects and the
		// callback must not reenter the heap.
		var objs []alloc.Object
		h.Objects(func(o alloc.Object) bool {
			objs = append(objs, o)
			return true
		})
		for _, o := range objs {
			ti, ok := d.types.Lookup(o.TypeID)
			if !ok {
				continue // untyped allocation: no declared pointers
			}
			for _, pf := range ti.Ptrs {
				slot := o.Addr + pmem.Addr(pf.Offset)
				old := d.dev.LoadU64(slot)
				if old == 0 {
					continue
				}
				if nw, ok := amap.Translate(pmem.Addr(old)); ok {
					d.dev.StoreU64(slot, uint64(nw))
					d.dev.Persist(slot, 8)
				}
			}
		}
	}
	return nil
}

func (d *Daemon) opMigrateAbort(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	d.migMu.Lock()
	in := d.migsIn[req.UUID]
	delete(d.migsIn, req.UUID)
	d.migMu.Unlock()
	if in == nil {
		return &proto.Response{} // already gone — aborting is idempotent
	}
	for _, a := range in.addrs {
		d.space.Release(pmem.Addr(a))
	}
	return &proto.Response{}
}

// --- warm-standby replication ---

// opReplicaAttach (owner → standby) opens or refreshes a replication
// stream: verify the standby exists and matches the pool identity,
// record the owner's current addresses (failover needs them to
// rewrite pointers), and answer the acked epoch so the owner knows
// whether a full resync is needed. Blob carries the owner's manifest
// of (uuid, addr) pairs: a MigManifest with only Pool, PoolUUID and
// Puddles populated.
func (d *Daemon) opReplicaAttach(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	man, err := decodeManifest(req.Blob)
	if err != nil {
		return fail("replica: decoding attach manifest: %v", err)
	}
	d.poolsMu.Lock()
	defer d.poolsMu.Unlock()
	s := d.st.Standbys[req.Name]
	if s == nil {
		return fail("pool %q is not a standby here", req.Name)
	}
	if s.UUID != man.PoolUUID {
		return fail("replica: standby %q is pool %v, not %v", req.Name, s.UUID, man.PoolUUID)
	}
	ownerAddrs := make([]uint64, len(s.Puddles))
	for i := range s.Puddles {
		found := false
		for _, p := range man.Puddles {
			if p.UUID == s.Puddles[i].UUID {
				ownerAddrs[i] = p.Addr
				found = true
				break
			}
		}
		if !found {
			return fail("replica: owner manifest missing puddle %v", s.Puddles[i].UUID)
		}
	}
	s.OwnerAddrs = ownerAddrs
	if req.Target != "" {
		s.Owner = req.Target
	}
	if resp := d.persistOrFail(standbyRec(s)); resp != nil {
		return resp
	}
	return &proto.Response{Size: s.Epoch}
}

// opReplicaAck (owner → standby) persists the epoch barrier after a
// completed delta round: everything up to Size is durable here.
func (d *Daemon) opReplicaAck(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	d.poolsMu.Lock()
	defer d.poolsMu.Unlock()
	s := d.st.Standbys[req.Name]
	if s == nil {
		return fail("pool %q is not a standby here", req.Name)
	}
	if req.Size > s.Epoch {
		s.Epoch = req.Size
		if resp := d.persistOrFail(standbyRec(s)); resp != nil {
			return resp
		}
	}
	return &proto.Response{}
}

// opFailover promotes a retained standby copy to owner. The owner is
// presumed dead (or is giving the pool back); if it is alive it will
// keep refusing conflicting ops only by operator discipline — the
// single-owner invariant the daemons themselves can enforce is the
// migration protocol's, and failover is the explicit override.
func (d *Daemon) opFailover(creds Creds, req *proto.Request) *proto.Response {
	d.poolsMu.RLock()
	s := d.st.Standbys[req.Name]
	d.poolsMu.RUnlock()
	if s == nil {
		return fail("pool %q is not a standby here", req.Name)
	}
	if creds != Superuser && creds.UID != s.OwnerUID {
		return fail("permission denied: only the owner may fail over %q", req.Name)
	}
	if d.poolByName(req.Name) != nil {
		return fail("pool %q already exists here", req.Name)
	}

	// Owner-space pointers entered this copy with the replication
	// deltas; translate them back into local space when the owner's
	// addresses differ. An epoch of zero means no delta ever landed —
	// the bytes are the original local copy and need no rewrite.
	if s.Epoch > 0 {
		var moves []reloc.Move
		identity := true
		for i := range s.Puddles {
			oa := s.OwnerAddrs[i]
			moves = append(moves, reloc.Move{
				Old: pmem.Range{Start: pmem.Addr(oa), End: pmem.Addr(oa + s.Puddles[i].Size)},
				New: pmem.Addr(s.Puddles[i].Addr),
			})
			if oa != s.Puddles[i].Addr {
				identity = false
			}
		}
		if !identity {
			man := &MigManifest{Root: s.Root}
			in := &migIn{addrs: make(map[uid.UUID]uint64)}
			for i := range s.Puddles {
				man.Puddles = append(man.Puddles, MigPuddle{UUID: s.Puddles[i].UUID, Size: s.Puddles[i].Size, Kind: s.Puddles[i].Kind})
				in.addrs[s.Puddles[i].UUID] = s.Puddles[i].Addr
			}
			if err := d.rewritePool(man, in, reloc.NewAddrMap(moves)); err != nil {
				return fail("failover: pointer rewrite: %v", err)
			}
		}
	}

	pool := &PoolRec{
		Name: s.Pool, UUID: s.UUID, Root: s.Root,
		OwnerUID: s.OwnerUID, OwnerGID: s.OwnerGID, Mode: s.Mode,
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	recs := make([]entRec, 0, len(s.Puddles)+len(s.LogSpaces)+3)
	d.poolsMu.Lock()
	if _, ok := d.st.Pools[s.Pool]; ok {
		d.poolsMu.Unlock()
		return fail("pool %q already exists here", s.Pool)
	}
	var newRecs []*PuddleRec
	for i := range s.Puddles {
		rec := new(PuddleRec)
		*rec = s.Puddles[i]
		rec.Pool = pool.UUID
		d.st.Puddles[rec.UUID] = rec
		pool.Puddles = append(pool.Puddles, rec.UUID)
		newRecs = append(newRecs, rec)
		recs = append(recs, putRec(recPuddle, uuidKey(rec.UUID), rec))
	}
	d.st.Pools[s.Pool] = pool
	delete(d.st.Standbys, s.Pool)
	hadMoved := d.st.Moved[s.Pool] != nil
	if hadMoved {
		delete(d.st.Moved, s.Pool)
	}
	d.poolsMu.Unlock()
	var lsRecs []*LogSpaceRec
	d.lsMu.Lock()
	for i := range s.LogSpaces {
		ls := new(LogSpaceRec)
		*ls = s.LogSpaces[i]
		// The puddle's local address may differ from where the owner had
		// it; the standby's puddle record is authoritative.
		for _, pr := range newRecs {
			if pr.UUID == ls.UUID {
				ls.Addr = pr.Addr
				break
			}
		}
		d.st.LogSpaces[ls.UUID] = ls
		lsRecs = append(lsRecs, ls)
		recs = append(recs, putRec(recLogSpace, uuidKey(ls.UUID), ls))
	}
	d.lsMu.Unlock()
	recs = append(recs, pool.rec(), delRec(recStandby, s.Pool))
	if hadMoved {
		recs = append(recs, delRec(recMoved, s.Pool))
	}
	if resp := d.persistOrFail(recs...); resp != nil {
		d.poolsMu.Lock()
		delete(d.st.Pools, s.Pool)
		d.st.Standbys[s.Pool] = s
		for _, pr := range newRecs {
			delete(d.st.Puddles, pr.UUID)
		}
		d.poolsMu.Unlock()
		d.lsMu.Lock()
		for _, ls := range lsRecs {
			delete(d.st.LogSpaces, ls.UUID)
		}
		d.lsMu.Unlock()
		return resp
	}
	// Reservations were already held for the standby copies; nothing to
	// reserve. Unfreeze the root so transactions may enter.
	if rp, err := puddle.Open(d.dev, pmem.Addr(d.rootAddr(newRecs, s.Root))); err == nil {
		d.dev.StoreU64(rp.ActiveTxAddr(), 0)
		d.dev.Persist(rp.ActiveTxAddr(), 8)
		rp.SetFreeze(puddle.FreezeNone)
	}
	d.failovers.Add(1)
	d.logf("failover: promoted standby %q to owner", s.Pool)
	return &proto.Response{}
}

// --- replicator (owner side) ---

// startReplicator launches the background delta shipper for one
// replicated pool. fullResync forces MarkAll on the first round
// (adoption relocated the pool, or the owner rebooted and lost its
// dirty maps — either way the standby's bytes cannot be trusted to
// match).
func (d *Daemon) startReplicator(name string, fullResync bool) {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	if d.replStop == nil {
		d.replStop = make(map[string]chan struct{})
	}
	if _, running := d.replStop[name]; running {
		return
	}
	stop := make(chan struct{})
	d.replStop[name] = stop
	iv := d.replEvery
	if iv <= 0 {
		iv = defaultReplicaInterval
	}
	go func() {
		// Armed for the replicator's whole lifetime, not just during
		// rounds: a transaction that starts between rounds must still
		// register in the pool's active count, or the next round's
		// quiesce would not see it and could collect a torn write.
		d.dev.ArmQuiesce()
		defer d.dev.DisarmQuiesce()
		first := fullResync
		t := time.NewTicker(iv)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-d.doneCh:
				return
			case <-t.C:
			}
			if err := d.syncReplica(name, first); err != nil {
				d.logf("replica %q: %v", name, err)
				if strings.Contains(err.Error(), "not a standby") {
					d.dropReplica(name)
					return
				}
				continue
			}
			first = false
		}
	}()
}

// stopReplicator halts the background shipper for one pool.
func (d *Daemon) stopReplicator(name string) {
	d.replMu.Lock()
	if ch, ok := d.replStop[name]; ok {
		close(ch)
		delete(d.replStop, name)
	}
	d.replMu.Unlock()
}

// dropReplica retires a replication obligation (the standby was
// promoted or dropped).
func (d *Daemon) dropReplica(name string) {
	d.stopReplicator(name)
	d.opMu.RLock()
	d.poolsMu.Lock()
	if d.st.Replicas[name] != nil {
		delete(d.st.Replicas, name)
		d.appendBatch([]entRec{delRec(recReplica, name)})
	}
	d.poolsMu.Unlock()
	d.opMu.RUnlock()
}

// SyncReplica runs one synchronous replication round for a pool this
// daemon owns and replicates (tests drive rounds deterministically
// with this; production rounds come from the background ticker).
func (d *Daemon) SyncReplica(name string) error {
	return d.syncReplica(name, false)
}

// replTracks returns (creating on first use) the dirty maps backing
// replication for one pool. Guarded by replMu.
func (d *Daemon) replTracks(name string, members []*PuddleRec, markAll bool) []*pmem.DirtyMap {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	if d.replMaps == nil {
		d.replMaps = make(map[string][]*pmem.DirtyMap)
	}
	maps, ok := d.replMaps[name]
	if !ok {
		maps = make([]*pmem.DirtyMap, len(members))
		for i, m := range members {
			maps[i] = d.dev.TrackDirty(pmem.Range{Start: pmem.Addr(m.Addr), End: pmem.Addr(m.Addr) + pmem.Addr(m.Size)})
			maps[i].MarkAll() // fresh tracker: everything is unshipped
		}
		d.replMaps[name] = maps
		return maps
	}
	if markAll {
		for _, m := range maps {
			m.MarkAll()
		}
	}
	return maps
}

// dropReplTracks releases a pool's replication dirty maps.
func (d *Daemon) dropReplTracks(name string) {
	d.replMu.Lock()
	maps := d.replMaps[name]
	delete(d.replMaps, name)
	d.replMu.Unlock()
	for _, m := range maps {
		d.dev.Untrack(m)
	}
}

// syncReplica ships one quiesced delta round to the standby: freeze
// the pool briefly, drain in-flight transactions, collect the dirty
// ranges into RAM, unfreeze, then ship and ack. Copying before the
// unfreeze makes each round a transaction-consistent snapshot — the
// stop window is proportional to the round's dirt, exactly like the
// migration's final delta.
func (d *Daemon) syncReplica(name string, fullResync bool) error {
	d.opMu.RLock()
	if d.closed.Load() {
		d.opMu.RUnlock()
		return fmt.Errorf("daemon is shut down")
	}
	d.poolsMu.RLock()
	rep := d.st.Replicas[name]
	d.poolsMu.RUnlock()
	if rep == nil {
		d.opMu.RUnlock()
		return fmt.Errorf("pool %q has no replica obligation", name)
	}
	pool := d.poolByName(name)
	if pool == nil {
		d.opMu.RUnlock()
		return fmt.Errorf("pool %q not found", name)
	}
	pool.mu.Lock()
	memberIDs := append([]uid.UUID(nil), pool.Puddles...)
	rootID := pool.Root
	pool.mu.Unlock()
	var members []*PuddleRec
	d.poolsMu.RLock()
	for _, pu := range memberIDs {
		if rec := d.st.Puddles[pu]; rec != nil {
			members = append(members, rec)
		}
	}
	d.poolsMu.RUnlock()
	maps := d.replTracks(name, members, fullResync)
	d.dev.ArmQuiesce()
	defer d.dev.DisarmQuiesce()

	// Quiesce, collect, unfreeze.
	type chunk struct {
		pud  *PuddleRec
		off  uint64
		data []byte
	}
	var chunks []chunk
	root, err := puddle.Open(d.dev, d.rootAddr(members, rootID))
	if err != nil {
		d.opMu.RUnlock()
		return fmt.Errorf("opening root: %w", err)
	}
	root.SetFreeze(puddle.FreezeQuiesce)
	if !d.drainActiveTx(root) {
		root.SetFreeze(puddle.FreezeNone)
		d.opMu.RUnlock()
		return fmt.Errorf("transactions did not drain")
	}
	var roundBytes uint64
	for i, m := range members {
		if i >= len(maps) {
			break
		}
		for _, r := range maps[i].CollectClear() {
			for addr := r.Start; addr < r.End; {
				n := uint64(r.End - addr)
				if n > migChunkBytes {
					n = migChunkBytes
				}
				b := make([]byte, n)
				d.dev.Load(addr, b)
				chunks = append(chunks, chunk{pud: m, off: uint64(addr) - m.Addr, data: b})
				roundBytes += n
				addr += pmem.Addr(n)
			}
		}
	}
	root.SetFreeze(puddle.FreezeNone)
	d.opMu.RUnlock()

	if len(chunks) == 0 && !fullResync {
		return nil // nothing changed; no round, no epoch bump
	}

	// Ship outside every daemon lock.
	peer, err := dialPeer(rep.Target)
	if err != nil {
		return err
	}
	defer peer.Close()
	// (Re-)attach: the standby learns our current addresses and tells
	// us its acked epoch.
	attach := &MigManifest{Pool: name, PoolUUID: pool.UUID}
	for _, m := range members {
		attach.Puddles = append(attach.Puddles, MigPuddle{UUID: m.UUID, Addr: m.Addr, Size: m.Size, Kind: m.Kind})
	}
	if _, err := rtOK(peer, &proto.Request{Op: proto.OpReplicaAttach, Name: name, Blob: attach.encode(), Target: d.advertise}); err != nil {
		return err
	}
	for _, c := range chunks {
		req := &proto.Request{
			Op: proto.OpMigrateDelta, Name: name, Pool: c.pud.UUID,
			Addr: c.off, Blob: c.data,
		}
		if _, err := rtOK(peer, req); err != nil {
			// Undelivered dirt must be re-shipped: re-mark everything (a
			// partial round at the standby is harmless; frames are
			// idempotent whole-chunk writes).
			d.replTracks(name, members, true)
			return err
		}
	}
	// Epoch barrier.
	d.opMu.RLock()
	d.poolsMu.Lock()
	rep.Epoch++
	epoch := rep.Epoch
	err = d.appendBatch([]entRec{replicaRec(rep)})
	d.poolsMu.Unlock()
	d.opMu.RUnlock()
	if err != nil {
		return err
	}
	if _, err := rtOK(peer, &proto.Request{Op: proto.OpReplicaAck, Name: name, Size: epoch}); err != nil {
		return err
	}
	d.replSyncs.Add(1)
	d.replBytes.Add(roundBytes)
	return nil
}

// --- boot-time resolution ---

// armIfMigrating arms the device quiesce gate at boot when any moved
// tombstone or in-flight migration exists: attached clients must
// check freeze words before entering transactions. Called from boot.
func (d *Daemon) armIfMigrating() {
	if len(d.st.MigsOut) > 0 || len(d.st.Moved) > 0 ||
		len(d.st.Standbys) > 0 || len(d.st.Replicas) > 0 {
		d.dev.ArmQuiesce()
	}
}

// reserveStandbys re-reserves the address ranges of retained standby
// copies (their puddles are not in st.Puddles). Called from boot.
func (d *Daemon) reserveStandbys() error {
	for _, s := range d.st.Standbys {
		for i := range s.Puddles {
			p := &s.Puddles[i]
			if _, err := d.space.ReserveAt(pmem.Addr(p.Addr), p.Size, p.UUID.String()); err != nil {
				return fmt.Errorf("daemon: re-reserving standby puddle %v: %w", p.UUID, err)
			}
		}
	}
	return nil
}

// ResolveMigrations drives every persisted in-flight outbound
// migration to exactly one owner, and restarts replication streams.
// It must run after boot (cmd/puddled calls it right after New; tests
// call it explicitly) — not inside boot, because resolution may need
// the journal, which initializes at boot's end.
//
//   - migStreaming: nothing can have been adopted (the target's
//     transfer state was volatile), so abort locally.
//   - migCommitSent: ask the target. An idempotent "yes" means the
//     adopt batch landed — cede (without the standby retention the
//     original request may have asked for: the copy's freshness is
//     unknowable after a crash). The typed "unknown migration" answer
//     means it did not land — abort locally. A transport error leaves
//     the record (and the pool's "unresolved" refusals) for a later
//     call.
//
// Returns the number of migrations still unresolved.
func (d *Daemon) ResolveMigrations() int {
	d.poolsMu.RLock()
	migs := make([]*MigOutRec, 0, len(d.st.MigsOut))
	for _, m := range d.st.MigsOut {
		migs = append(migs, m)
	}
	replicas := make([]string, 0, len(d.st.Replicas))
	for name := range d.st.Replicas {
		replicas = append(replicas, name)
	}
	d.poolsMu.RUnlock()
	unresolved := 0
	for _, mig := range migs {
		if mig.Phase < migCommitSent {
			d.resolveAbort(mig)
			continue
		}
		switch ok, err := d.askTargetCommitted(mig); {
		case err != nil:
			d.logf("resolve: migration %v of %q unresolved (%v); pool stays frozen", mig.ID, mig.Pool, err)
			unresolved++
		case ok:
			d.resolveCede(mig)
		default:
			d.resolveAbort(mig)
		}
	}
	for _, name := range replicas {
		// The owner rebooted: its dirty maps are gone, so the first round
		// is a full resync.
		d.startReplicator(name, true)
	}
	return unresolved
}

// askTargetCommitted re-sends the idempotent commit. (true, nil) =
// adopted; (false, nil) = definitively not adopted; err = unknowable.
func (d *Daemon) askTargetCommitted(mig *MigOutRec) (bool, error) {
	peer, err := dialPeer(mig.Target)
	if err != nil {
		return false, err
	}
	defer peer.Close()
	_, err = rtOK(peer, &proto.Request{Op: proto.OpMigrateCommit, UUID: mig.ID})
	if err == nil {
		return true, nil
	}
	if proto.IsMigUnknown(err) {
		return false, nil
	}
	return false, err
}

// resolveAbort retires a migration that definitively did not happen:
// the pool stays owned here; unfreeze it.
func (d *Daemon) resolveAbort(mig *MigOutRec) {
	peer, err := dialPeer(mig.Target)
	if err == nil {
		peer.RoundTrip(&proto.Request{Op: proto.OpMigrateAbort, UUID: mig.ID})
		peer.Close()
	}
	d.opMu.RLock()
	d.poolsMu.Lock()
	delete(d.st.MigsOut, mig.ID)
	d.appendBatch([]entRec{delRec(recMigOut, uuidKey(mig.ID))})
	d.poolsMu.Unlock()
	d.opMu.RUnlock()
	if pool := d.poolByName(mig.Pool); pool != nil {
		d.poolsMu.RLock()
		rootRec := d.st.Puddles[pool.Root]
		d.poolsMu.RUnlock()
		if rootRec != nil {
			if rp, err := puddle.Open(d.dev, pmem.Addr(rootRec.Addr)); err == nil {
				d.dev.StoreU64(rp.ActiveTxAddr(), 0)
				d.dev.Persist(rp.ActiveTxAddr(), 8)
				rp.SetFreeze(puddle.FreezeNone)
			}
		}
	}
	d.migAborts.Add(1)
	d.logf("resolve: migration %v of %q aborted; pool stays here", mig.ID, mig.Pool)
}

// resolveCede finishes a migration whose adoption landed at the
// target: cede ownership exactly as the live path would have.
func (d *Daemon) resolveCede(mig *MigOutRec) {
	pool := d.poolByName(mig.Pool)
	if pool == nil {
		// The pool is already gone (the cede batch landed before the
		// crash but the MigOutRec retirement did not — impossible in one
		// batch, but be defensive); just retire the record.
		d.opMu.RLock()
		d.poolsMu.Lock()
		delete(d.st.MigsOut, mig.ID)
		d.appendBatch([]entRec{delRec(recMigOut, uuidKey(mig.ID))})
		d.poolsMu.Unlock()
		d.opMu.RUnlock()
		return
	}
	var members []*PuddleRec
	var logSpaces []*LogSpaceRec
	pool.mu.Lock()
	ids := append([]uid.UUID(nil), pool.Puddles...)
	pool.mu.Unlock()
	d.poolsMu.RLock()
	for _, pu := range ids {
		if rec := d.st.Puddles[pu]; rec != nil {
			members = append(members, rec)
		}
	}
	d.poolsMu.RUnlock()
	d.lsMu.Lock()
	for _, pu := range ids {
		if ls := d.st.LogSpaces[pu]; ls != nil {
			logSpaces = append(logSpaces, ls)
		}
	}
	d.lsMu.Unlock()
	// Crash recovery cannot retain a standby: the copy's staleness
	// relative to the adopted pool is unknowable here (the owner's
	// replicator would resync it, but only if it knows to attach —
	// which the manifest's SourceURL already told it; still, drop the
	// local retention unless it was requested, and let the attach
	// recreate addresses).
	mig.Standby = false
	man := &MigManifest{Root: pool.Root}
	if resp := d.cedePool(pool, mig, members, logSpaces, man); resp != nil {
		d.logf("resolve: ceding %q: %s", mig.Pool, resp.Err)
		return
	}
	if rootRec := d.rootAddr(members, pool.Root); rootRec != 0 {
		if rp, err := puddle.Open(d.dev, rootRec); err == nil {
			rp.SetFreeze(puddle.FreezeMoved)
		}
	}
	d.migsOutN.Add(1)
	d.logf("resolve: migration %v of %q committed at target; ceded", mig.ID, mig.Pool)
}
