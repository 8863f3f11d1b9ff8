// Live pool migration (paper §4.2 applied across machines:
// location-independent data means a pool can change owners while
// applications keep writing).
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
// Migration is the one way a live pool changes owner; export/import is
// the other way its bytes move. Both share adopt, which installs a pool
// in one journal batch, and reloc.RewritePointers, which fixes its
// pointers.
package daemon

import (
	"crypto/tls"
	"fmt"
	"net"
	"strings"
	"time"

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
	ID     uid.UUID // migration id (the wire key for every frame)
	Pool   string
	Target string // destination daemon URL
	Phase  uint32 // migStreaming or migCommitSent
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
}

// migIn is the target's volatile state for one inbound migration: the
// manifest and each puddle's record at its assigned local address.
// Deliberately not persisted — a target crash before commit simply
// loses it, the source's commit gets the typed "unknown migration"
// answer, and the source aborts.
type migIn struct {
	man  *MigManifest
	recs map[uid.UUID]*PuddleRec
}

// migOutRec journals a MigOutRec, which changes after it is first
// journaled (its phase flips): a record's value must never be written
// again (entRec), so the record carries a copy.
func migOutRec(m *MigOutRec) entRec {
	cp := *m
	return putRec(recMigOut, uuidKey(m.ID), &cp)
}

// migPuddles lists members as manifest entries (source-space addresses).
func migPuddles(members []*PuddleRec) []MigPuddle {
	out := make([]MigPuddle, len(members))
	for i, m := range members {
		out[i] = MigPuddle{UUID: m.UUID, Addr: m.Addr, Size: m.Size, Kind: m.Kind}
	}
	return out
}

// --- options ---

// WithMigrationHook installs a test hook fired at named migration
// phases on the source ("snapshot", "delta", "pre-commit",
// "post-commit") — the chaos harness kills daemons inside it.
func WithMigrationHook(fn func(phase string)) Option {
	return func(d *Daemon) { d.migHook = fn }
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

// --- refusal helpers ---

// movedResp answers for a pool this daemon ceded: its tombstone
// refuses with the typed pool-moved error carrying the new owner's URL.
// Returns nil when the name is unclaimed here.
func (d *Daemon) movedResp(name string) *proto.Response {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	if m := d.st.Moved[name]; m != nil {
		return fail("%s%s", proto.PoolMovedMsg, m.Target)
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

// --- the steps every move shares ---

// frameSink takes one frame of a drained tracked copy: the member
// puddle, the frame's offset in it, and its bytes, which are only valid
// during the call.
type frameSink func(m *PuddleRec, off uint64, b []byte) error

// trackedCopy is the copy-under-dirt engine: dirty maps over a pool's
// member puddles, drained a frame at a time through a sink with one
// reused buffer. Migration drains it straight to the target round by
// round. It is the only thing that arms and releases those maps.
type trackedCopy struct {
	dev     *pmem.Device
	members []*PuddleRec
	maps    []*pmem.DirtyMap
	buf     []byte
}

// trackCopy arms tracking over members with every chunk dirty, so the
// first drain is a full snapshot. A write racing a drain lands in the
// maps and goes out with the next one.
func (d *Daemon) trackCopy(members []*PuddleRec) *trackedCopy {
	tc := &trackedCopy{dev: d.dev, members: members, maps: make([]*pmem.DirtyMap, len(members))}
	for i, m := range members {
		tc.maps[i] = d.dev.TrackDirty(pmem.Range{Start: pmem.Addr(m.Addr), End: pmem.Addr(m.Addr + m.Size)})
		tc.maps[i].MarkAll()
	}
	return tc
}

// drain collects and clears the dirt of every member and hands it to
// sink in frames of at most migChunkBytes. It returns the bytes sunk
// before the first sink error.
func (tc *trackedCopy) drain(sink frameSink) (uint64, error) {
	if tc.buf == nil {
		tc.buf = make([]byte, migChunkBytes)
	}
	var sunk uint64
	for i, m := range tc.members {
		for _, r := range tc.maps[i].CollectClear() {
			for addr := r.Start; addr < r.End; {
				b := tc.buf[:min(uint64(r.End-addr), migChunkBytes)]
				tc.dev.Load(addr, b)
				if err := sink(m, uint64(addr)-m.Addr, b); err != nil {
					return sunk, err
				}
				sunk += uint64(len(b))
				addr += pmem.Addr(len(b))
			}
		}
	}
	return sunk, nil
}

// release disarms tracking.
func (tc *trackedCopy) release() {
	for _, m := range tc.maps {
		tc.dev.Untrack(m)
	}
}

// rewriteMembers translates the pointers of every live object in the
// data puddles among pus through amap (paper §4.2) and persists each
// puddle it changed, once. An identity map has nothing to translate.
func (d *Daemon) rewriteMembers(pus []*PuddleRec, amap *reloc.AddrMap) error {
	if amap.Identity() {
		return nil
	}
	for _, p := range pus {
		if puddle.Kind(p.Kind) != puddle.KindData {
			continue
		}
		n, err := reloc.RewritePointers(d.dev, pmem.Addr(p.Addr), d.types, amap.Translate)
		if err != nil {
			return fmt.Errorf("opening relocated puddle %v: %w", p.UUID, err)
		}
		if n > 0 {
			d.dev.Persist(pmem.Addr(p.Addr), int(p.Size))
		}
	}
	return nil
}

// memberAddr finds puddle id's address among members, or 0.
func memberAddr(members []*PuddleRec, id uid.UUID) pmem.Addr {
	for _, m := range members {
		if m.UUID == id {
			return pmem.Addr(m.Addr)
		}
	}
	return 0
}

// unfreezeRoot opens a pool whose root carries a quiesce freeze and a
// stale active-transaction count — copied from the source, or left by a
// migration that did not happen — for transactions here.
func (d *Daemon) unfreezeRoot(addr pmem.Addr) {
	if rp, err := puddle.Open(d.dev, addr); err == nil {
		d.dev.StoreU64(rp.ActiveTxAddr(), 0)
		d.dev.Persist(rp.ActiveTxAddr(), 8)
		rp.SetFreeze(puddle.FreezeNone)
	}
}

// retireMigOut forgets an outbound migration, durably.
func (d *Daemon) retireMigOut(mig *MigOutRec) {
	d.opMu.RLock()
	d.poolsMu.Lock()
	delete(d.st.MigsOut, mig.ID)
	d.appendBatch([]entRec{delRec(recMigOut, uuidKey(mig.ID))})
	d.poolsMu.Unlock()
	d.opMu.RUnlock()
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

// --- source engine ---

// opMigratePool runs the whole source-side engine. It is dispatched
// BEFORE the shared opMu (a migration spans seconds; holding RLock
// throughout would block checkpoints and shutdown), and instead takes
// opMu.RLock around each registry mutation + journal append.
func (d *Daemon) opMigratePool(creds Creds, req *proto.Request) *proto.Response {
	if req.Name == "" || req.Target == "" {
		return fail("migrate: pool name and target URL required")
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
	mig := &MigOutRec{ID: uid.New(), Pool: req.Name, Target: req.Target, Phase: migStreaming}

	// Build the manifest and publish the MigOutRec under pool.mu: every
	// structural op re-checks migration status under the same lock, so
	// membership cannot change between the snapshot of it and the
	// refusals taking effect.
	man, members, logSpaces, resp := d.beginOutbound(pool, mig)
	if resp != nil {
		return resp
	}

	// Tracking is armed before the first snapshot byte is read.
	tc := d.trackCopy(members)
	defer tc.release()
	d.dev.ArmQuiesce()

	var (
		report proto.MigReport
		peer   *proto.Conn
		root   *puddle.Puddle // set once the pool is frozen
	)
	abort := func(resp *proto.Response) *proto.Response {
		if root != nil {
			root.SetFreeze(puddle.FreezeNone)
		}
		if peer != nil {
			peer.RoundTrip(&proto.Request{Op: proto.OpMigrateAbort, UUID: mig.ID})
		}
		d.retireMigOut(mig)
		d.dev.DisarmQuiesce()
		d.migAborts.Add(1)
		return resp
	}
	peer, err := dialPeer(req.Target)
	if err != nil {
		return abort(fail("migrate: %v", err))
	}
	defer peer.Close()
	if _, err := peer.RoundTrip(&proto.Request{Op: proto.OpMigrateBegin, UUID: mig.ID, Blob: man.encode()}); err != nil {
		return abort(fail("migrate: begin refused: %v", err))
	}
	// The migration's sink: every frame is one round trip to the target.
	ship := func(op proto.Op) frameSink {
		return func(m *PuddleRec, off uint64, b []byte) error {
			_, err := peer.RoundTrip(&proto.Request{Op: op, UUID: mig.ID, Pool: m.UUID, Addr: off, Blob: b})
			return err
		}
	}

	// Full snapshot, streamed chunk-wise off the device while clients
	// keep writing.
	if report.SnapshotBytes, err = tc.drain(ship(proto.OpMigrateChunk)); err != nil {
		return abort(fail("migrate: snapshot: %v", err))
	}
	d.migPhase("snapshot")

	// Delta rounds until converged (or bounded).
	for round := 0; round < migMaxRounds; round++ {
		n, err := tc.drain(ship(proto.OpMigrateDelta))
		report.DeltaBytes += n
		if err != nil {
			return abort(fail("migrate: delta: %v", err))
		}
		report.Rounds = round + 1
		if round == 0 {
			d.migPhase("delta")
		}
		if n <= migConvergedBytes {
			break
		}
	}

	// Final quiesce: park new transactions, drain in-flight ones, ship
	// one last (small) delta. This is the only stop-the-world window;
	// its length depends on one round's dirt, not on pool size.
	if root, err = puddle.Open(d.dev, memberAddr(members, man.Root)); err != nil {
		return abort(fail("migrate: opening root: %v", err))
	}
	pauseStart := time.Now()
	root.SetFreeze(puddle.FreezeQuiesce)
	if !d.drainActiveTx(root) {
		return abort(fail("migrate: transactions did not drain within %v", migQuiesceTimeout))
	}
	if report.FinalBytes, err = tc.drain(ship(proto.OpMigrateDelta)); err != nil {
		return abort(fail("migrate: final delta: %v", err))
	}
	report.DeltaBytes += report.FinalBytes

	// Point of no return: persist commitSent BEFORE the commit can
	// possibly reach the target, so a crash from here on knows it must
	// ask the target who owns the pool.
	mig.Phase = migCommitSent
	if resp := d.persistMigOut(mig); resp != nil {
		return abort(resp)
	}
	d.migPhase("pre-commit")
	if _, err := peer.RoundTrip(&proto.Request{Op: proto.OpMigrateCommit, UUID: mig.ID}); err != nil {
		// The commit may or may not have landed (a transport error hides
		// the answer). Leave the commitSent record for ResolveMigrations;
		// the pool stays frozen and answers "unresolved".
		return fail("migrate: commit did not complete: %v (pool frozen; resolve after reboot)", err)
	}
	d.migPhase("post-commit")

	// Cede: one journal batch removes the pool, leaves the tombstone
	// and retires the MigOutRec.
	if resp := d.cedePool(pool, mig, members, logSpaces); resp != nil {
		// Adoption landed but the cede batch failed to persist: the
		// commitSent record survives, ResolveMigrations re-sends the
		// (idempotent) commit and re-cedes.
		return resp
	}
	report.PauseNs = uint64(time.Since(pauseStart).Nanoseconds())
	report.TotalNs = uint64(time.Since(start).Nanoseconds())
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
func (d *Daemon) beginOutbound(pool *PoolRec, mig *MigOutRec) (*MigManifest, []*PuddleRec, []*LogSpaceRec, *proto.Response) {
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
	members, logSpaces := d.poolMembers(pool.Puddles)
	man := &MigManifest{
		ID: mig.ID, Pool: pool.Name, PoolUUID: pool.UUID, Root: pool.Root,
		OwnerUID: pool.OwnerUID, OwnerGID: pool.OwnerGID, Mode: pool.Mode,
		Types: d.types.All(), Puddles: migPuddles(members),
	}
	for _, ls := range logSpaces {
		man.LogSpaces = append(man.LogSpaces, MigLogSpace{UUID: ls.UUID, Creds: ls.Creds, Shards: ls.Shards})
	}
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

// cedePool durably transfers ownership away: persist FIRST (one
// batch: puddle + log-space + pool tombstones, the MovedRec and the
// MigOutRec retirement), then mark the root moved, mutate the maps and
// release reservations. While pool.mu is held nothing else can touch
// the pool, so a failed persist needs no unwind — exactly the
// opDeletePool idiom.
func (d *Daemon) cedePool(pool *PoolRec, mig *MigOutRec, members []*PuddleRec, logSpaces []*LogSpaceRec) *proto.Response {
	d.opMu.RLock()
	defer d.opMu.RUnlock()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	moved := &MovedRec{Pool: pool.Name, Target: mig.Target}
	recs := make([]entRec, 0, len(members)+len(logSpaces)+3)
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
	if resp := d.persistOrFail(recs...); resp != nil {
		return resp
	}
	// The root's tombstone is what redirects still-attached clients.
	if rp, err := puddle.Open(d.dev, memberAddr(members, pool.Root)); err == nil {
		rp.SetFreeze(puddle.FreezeMoved)
	}
	d.poolsMu.Lock()
	for _, m := range members {
		delete(d.st.Puddles, m.UUID)
	}
	delete(d.st.Pools, pool.Name)
	d.st.Moved[pool.Name] = moved
	delete(d.st.MigsOut, mig.ID)
	d.poolsMu.Unlock()
	d.lsMu.Lock()
	for _, ls := range logSpaces {
		delete(d.st.LogSpaces, ls.UUID)
	}
	d.lsMu.Unlock()
	for _, m := range members {
		d.space.Release(pmem.Addr(m.Addr))
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
	in := &migIn{man: man, recs: make(map[uid.UUID]*PuddleRec)}
	release := func() {
		for _, rec := range in.recs {
			d.space.Release(pmem.Addr(rec.Addr))
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
		in.recs[p.UUID] = &PuddleRec{UUID: p.UUID, Addr: uint64(r.Start), Size: p.Size, Kind: p.Kind, Pool: man.PoolUUID}
		infos = append(infos, proto.PuddleInfo{UUID: p.UUID, Addr: uint64(r.Start), Size: p.Size, Kind: p.Kind})
	}
	for _, ls := range man.LogSpaces {
		if in.recs[ls.UUID] == nil {
			release()
			return fail("migrate: log space %v is not a member puddle", ls.UUID)
		}
	}
	d.migsIn[req.UUID] = in
	return &proto.Response{Puddles: infos}
}

// opMigrateFrame lands one snapshot or delta frame of an inbound
// migration, keyed by its id. The bounds check cannot wrap, so a frame
// lands wholly inside the puddle it names or not at all.
func (d *Daemon) opMigrateFrame(creds Creds, req *proto.Request) *proto.Response {
	if resp := requireSuper(creds); resp != nil {
		return resp
	}
	d.migMu.Lock()
	in := d.migsIn[req.UUID]
	var rec *PuddleRec
	if in != nil {
		rec = in.recs[req.Pool]
	}
	d.migMu.Unlock()
	switch n := uint64(len(req.Blob)); {
	case in == nil:
		return fail("%s %v", proto.MigUnknownMsg, req.UUID)
	case rec == nil:
		return fail("migrate: frame for unknown puddle %v", req.Pool)
	case req.Addr > rec.Size || n > rec.Size-req.Addr:
		return fail("frame overruns puddle %v (%d+%d > %d)", req.Pool, req.Addr, n, rec.Size)
	}
	d.dev.Store(pmem.Addr(rec.Addr+req.Addr), req.Blob)
	d.dev.Persist(pmem.Addr(rec.Addr+req.Addr), len(req.Blob))
	return &proto.Response{}
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
	pus := make([]*PuddleRec, len(man.Puddles))
	moves := make([]reloc.Move, len(man.Puddles))
	for i, p := range man.Puddles {
		pus[i] = in.recs[p.UUID]
		moves[i] = reloc.Move{Old: pmem.Range{Start: pmem.Addr(p.Addr), End: pmem.Addr(p.Addr + p.Size)}, New: pmem.Addr(pus[i].Addr)}
	}
	amap := reloc.NewAddrMap(moves)
	if err := d.rewriteMembers(pus, amap); err != nil {
		return fail("migrate: pointer rewrite: %v", err)
	}
	// The copied root carries the source's quiesce state; the pool is
	// open for business here.
	d.unfreezeRoot(memberAddr(pus, man.Root))
	if resp := d.persistTypes(); resp != nil {
		return resp
	}

	// Adopt in one journal batch with the MigDoneRec.
	pool := &PoolRec{
		Name: man.Pool, UUID: man.PoolUUID, Root: man.Root,
		OwnerUID: man.OwnerUID, OwnerGID: man.OwnerGID, Mode: man.Mode,
	}
	lss := make([]*LogSpaceRec, len(man.LogSpaces))
	for i, mls := range man.LogSpaces {
		lss[i] = &LogSpaceRec{UUID: mls.UUID, Addr: in.recs[mls.UUID].Addr, Creds: mls.Creds, Shards: mls.Shards}
	}
	done = &MigDoneRec{ID: req.UUID, Pool: man.Pool}
	extra := []entRec{putRec(recMigDone, uuidKey(req.UUID), done)}
	if resp := d.adopt(pool, pus, lss, extra,
		func() { d.st.MigsDone[req.UUID] = done },
		func() { delete(d.st.MigsDone, req.UUID) }); resp != nil {
		// Put the transfer back so an abort can release its reservations.
		d.migMu.Lock()
		d.migsIn[req.UUID] = in
		d.migMu.Unlock()
		return resp
	}
	d.migsInN.Add(1)
	d.logf("migrate: adopted pool %q (migration %v, identity=%v)", man.Pool, req.UUID, amap.Identity())
	return &proto.Response{}
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
	for _, rec := range in.recs {
		d.space.Release(pmem.Addr(rec.Addr))
	}
	return &proto.Response{}
}

// --- boot-time resolution ---

// armIfMigrating arms the device quiesce gate at boot when any moved
// tombstone or in-flight migration exists: attached clients must
// check freeze words before entering transactions. Called from boot.
func (d *Daemon) armIfMigrating() {
	if len(d.st.MigsOut) > 0 || len(d.st.Moved) > 0 {
		d.dev.ArmQuiesce()
	}
}

// ResolveMigrations drives every persisted in-flight outbound
// migration to exactly one owner.
// It must run after boot (cmd/puddled calls it right after New; tests
// call it explicitly) — not inside boot, because resolution may need
// the journal, which initializes at boot's end.
//
//   - migStreaming: nothing can have been adopted (the target's
//     transfer state was volatile), so abort locally.
//   - migCommitSent: ask the target. An idempotent "yes" means the
//     adopt batch landed — cede. The typed "unknown migration" answer
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
	_, err = peer.RoundTrip(&proto.Request{Op: proto.OpMigrateCommit, UUID: mig.ID})
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
	d.retireMigOut(mig)
	if pool := d.poolByName(mig.Pool); pool != nil {
		if rec := d.puddleRec(pool.Root); rec != nil {
			d.unfreezeRoot(pmem.Addr(rec.Addr))
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
		d.retireMigOut(mig)
		return
	}
	members, logSpaces := d.poolMembers(pool.memberIDs())
	if resp := d.cedePool(pool, mig, members, logSpaces); resp != nil {
		d.logf("resolve: ceding %q: %s", mig.Pool, resp.Err)
		return
	}
	d.migsOutN.Add(1)
	d.logf("resolve: migration %v of %q committed at target; ceded", mig.ID, mig.Pool)
}
