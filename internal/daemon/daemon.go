// Package daemon implements Puddled, the privileged daemon that
// manages access to all puddles in a machine (paper §3.2, §4.6).
//
// Puddled owns the global puddle address space, allocates and formats
// puddles, enforces a UNIX-like permission model on pools, registers
// application log spaces, and — the paper's headline property —
// replays crash-consistency logs after a dirty shutdown before any
// application can map the data, making recovery a property of the
// stored data rather than of the program that wrote it.
//
// Daemon metadata (pool and puddle registries, log-space
// registrations, pointer maps, import sessions) persists in a reserved
// meta region via a per-entity journal compacted into streamed,
// chunked, incremental checkpoints (metastore.go, ckpt.go), so the
// daemon itself recovers from crashes without depending on the logging
// machinery it is responsible for replaying.
package daemon

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/addrspace"
	"puddles/internal/alloc"
	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// Meta region geometry (below the global puddle space, DESIGN.md §4.4).
// The addresses are a device property shared by every daemon
// generation, so they are owned by internal/pmem (see pmem/meta.go);
// the superblock format and the legacy v1 slot format live here.
const (
	metaBase  = pmem.MetaBase // superblock at 1 MiB
	slotBytes = pmem.MetaSlotBytes
	slotA     = pmem.MetaSlotA // legacy whole-state snapshot slots (v1)
	slotB     = pmem.MetaSlotB

	sbMagic   = 0x4445_4c44_4455_50 // "PUDDLED"
	sbOffMag  = 0
	sbOffDirt = 8 // 0 = clean shutdown, 1 = in use

	// StagingBase is where imported puddle images are staged before
	// they are mapped into the global space.
	StagingBase pmem.Addr = 1 << 30
	stagingSize uint64    = 255 << 30

	// VolatileBase is a device region treated as DRAM: transactions may
	// log volatile locations here; the daemon never recovers them.
	VolatileBase pmem.Addr = 257 << 30
	// VolatileSize is the extent of the volatile region.
	VolatileSize uint64 = 16 << 30
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Creds identify a client (SO_PEERCRED-verified on UNIX sockets,
// client-asserted elsewhere; DESIGN.md §2).
type Creds struct{ UID, GID uint32 }

// Superuser credentials bypass permission checks.
var Superuser = Creds{0, 0}

// PuddleRec is the registry entry for one puddle.
type PuddleRec struct {
	UUID uid.UUID
	Addr uint64
	Size uint64
	Kind uint64
	Pool uid.UUID
}

// PoolRec is the registry entry for one pool.
//
// mu is the pool's shard of the old global daemon lock: it guards the
// mutable fields (Mode, Puddles) and, held across a mutation plus its
// journal append, keeps this pool's per-entity records in the same
// order in the journal as in memory. It is volatile (no encoder
// sees it) and springs back to life zero-valued on boot.
type PoolRec struct {
	Name     string
	UUID     uid.UUID
	Root     uid.UUID
	OwnerUID uint32 // immutable after creation
	OwnerGID uint32 // immutable after creation
	Mode     uint32 // UNIX-style permission bits (e.g. 0o660)
	Puddles  []uid.UUID

	mu sync.Mutex
}

// snapshot returns a copy safe to encode outside mu and to publish in
// a registry image (the Puddles slice is otherwise shared with
// concurrent appends). Caller holds mu.
func (p *PoolRec) snapshot() *PoolRec {
	cp := &PoolRec{
		Name: p.Name, UUID: p.UUID, Root: p.Root,
		OwnerUID: p.OwnerUID, OwnerGID: p.OwnerGID, Mode: p.Mode,
		Puddles: append([]uid.UUID(nil), p.Puddles...),
	}
	return cp
}

// rec builds this pool's journal record. Caller holds p.mu.
func (p *PoolRec) rec() entRec { return putRec(recPool, p.Name, p.snapshot()) }

// LogSpaceRec records a registered log space and the credentials it
// was registered under; recovery is confined to what those credentials
// could write (paper §4.6, "Recovery"). Shards is the directory shard
// count the client declared at registration: recovery fans its worker
// pool out over the shards of one crashed application, not just
// across applications. Records persisted by earlier daemon
// generations decode with Shards == 0, which reads as a legacy
// single-directory space (one shard).
type LogSpaceRec struct {
	UUID   uid.UUID
	Addr   uint64
	Creds  Creds
	Shards uint32
}

// ImportPuddle tracks one puddle of an import session.
type ImportPuddle struct {
	UUID     uid.UUID // fresh identity assigned at import
	OldAddr  uint64   // address in the exporting machine's space
	Size     uint64
	Kind     uint64
	StagedAt uint64 // staging copy location
	NewAddr  uint64 // assigned address in this machine's space; 0 = unresolved
	Mapped   bool   // content copied to NewAddr
}

// ImportSession is the persistent state of one in-progress import; a
// crash mid-import resumes from it (paper §4.2: Puddled "persistently
// tracks puddles that were part of a frontier").
type ImportSession struct {
	ID       uint64
	PoolName string
	PoolUUID uid.UUID
	RootUUID uid.UUID
	Creds    Creds
	Mode     uint32
	Puddles  []ImportPuddle
}

// state is the daemon's metadata registry: live as Daemon.st,
// immutable inside a regImage, and (gob-encoded whole) the payload of a
// legacy v1 snapshot slot.
type state struct {
	Seq         uint64
	Pools       map[string]*PoolRec
	Puddles     map[uid.UUID]*PuddleRec
	LogSpaces   map[uid.UUID]*LogSpaceRec
	Types       []ptypes.TypeInfo
	Sessions    map[uint64]*ImportSession
	NextSession uint64

	// Live-migration registries (migrate.go). All five maps may be nil
	// on images written by older daemon generations; loadMeta and
	// newState materialize them.
	MigsOut  map[uid.UUID]*MigOutRec  // source-side in-flight migrations
	Moved    map[string]*MovedRec     // ceded pools -> new owner URL
	MigsDone map[uid.UUID]*MigDoneRec // adopted migrations (idempotent commit)
	Standbys map[string]*StandbyRec   // warm-standby copies held here
	Replicas map[string]*ReplicaRec   // pools owned here with a standby to feed

	Recoveries     uint64
	LogsReplayed   uint64
	EntriesApplied uint64
	Imports        uint64
}

// Daemon is a Puddled instance bound to one device.
//
// Locking (PR 3 killed the single global d.mu): request handlers take
// opMu.RLock — shared, so independent requests never serialize on it —
// while checkpointing, recovery and shutdown take opMu.Lock to quiesce
// every in-flight mutation. Underneath, each registry map has its own
// short-hold lock (poolsMu for Pools+Puddles, lsMu for LogSpaces,
// sessMu for Sessions+staging, typesMu for the persisted type list)
// and each PoolRec carries its own mutex for pool-local state. The
// lock order is
//
//	ckptMu > opMu.RLock > sessMu > PoolRec.mu > poolsMu > lsMu > typesMu > jgMu > jMu
//
// (any prefix/suffix may be skipped, never reordered). ckptMu
// serializes checkpoint writers and is taken before opMu — compaction
// try-locks it, then quiesces briefly, then streams with the request
// path running (ckpt.go). jgMu guards only the group-commit queue and
// is never held across device writes; jMu serializes only the journal
// slot reservation — payload copies and fences run outside it; see
// metastore.go.
type Daemon struct {
	dev *pmem.Device

	opMu    sync.RWMutex // handlers shared; checkpoint/recovery/shutdown exclusive
	poolsMu sync.RWMutex // st.Pools + st.Puddles map membership
	lsMu    sync.Mutex   // st.LogSpaces
	sessMu  sync.Mutex   // st.Sessions, st.NextSession, st.Imports, staging
	typesMu sync.Mutex   // st.Types (the persisted mirror of the registry)
	jMu     sync.Mutex   // journal tail + seq (metastore.go)

	st        state
	seq       uint64        // monotonic metadata sequence (under jMu, or exclusive opMu)
	jBase     pmem.Addr     // active journal region (under jMu; retargeted under exclusive opMu)
	jBaseSeq  uint64        // checkpoint seq the active journal builds on
	jTail     uint64        // journal append offset (under jMu)
	jPrevDone chan struct{} // durability ticket of the last reserved group (under jMu)
	jgMu      sync.Mutex    // journal group-commit queue (metastore.go)
	jgQueue   []*jreq       // entries awaiting the group leader
	jgLeader  bool          // a leader lap is between queue grab and handoff

	// Checkpoint state (ckpt.go). ckptMu serializes checkpoint writers
	// and is acquired BEFORE opMu (maybeCompact try-locks it, then
	// quiesces); chain and forceFull are guarded by it. img is the
	// committed copy-on-write registry generation (immutable once
	// stored — the PR 6 range-index pattern applied to the daemon);
	// pending holds the pre-encoded journal records appended since the
	// image's generation, in per-entity journal order.
	ckptMu    sync.Mutex
	chain     chainState
	forceFull bool
	img       atomic.Pointer[regImage]
	pendMu    sync.Mutex
	pending   []entRec
	// chainCounters is the counter block the committed chain covers —
	// set when a commit lands and when a chain is composed at boot.
	// Counters mutate without journal appends, so sequence equality
	// alone cannot prove a checkpoint would be redundant; this can
	// (the counters-only fast path, counterOnlyQuiescent).
	chainCounters counters

	space   *addrspace.Manager // global puddle space
	staging *addrspace.Manager // import staging area
	types   *ptypes.Registry
	logger  *log.Logger

	jTailApprox atomic.Uint64 // journal tail mirror for the compaction check
	needCompact atomic.Bool   // set when an append failed for space
	persistErrs atomic.Uint64 // metadata appends/checkpoints that failed
	jDecodeErrs atomic.Uint64 // CRC-valid journal entries/chunks that did not decode (boot)
	panics      atomic.Uint64 // request handlers that panicked (recovered)
	closed      atomic.Bool

	ckptCount      atomic.Uint64 // committed checkpoints (full + incremental)
	ckptChunks     atomic.Uint64 // chunks streamed into the arena
	ckptBytes      atomic.Uint64 // bytes streamed into the arena
	ckptSpills     atomic.Uint64 // full images that crossed into the other half
	ckptSeq        atomic.Uint64 // seq of the last committed checkpoint
	ckptPauseTotal atomic.Uint64 // cumulative exclusive quiesce ns
	ckptPauseMax   atomic.Uint64 // worst single quiesce ns

	recoveryWorkers int    // 0 = default pool size (see workerCount)
	connWorkers     int    // per-connection dispatch workers (see server.go)
	legacyCkpt      bool   // WithLegacyCheckpoints: write v1 whole-state slots
	journalCap      uint64 // active-journal byte budget (tests shrink it)
	ckptChunk       int    // target checkpoint chunk payload bytes
	ckptHalf        uint64 // arena half size (tests shrink it)
	legacySlotCap   uint64 // legacy slot byte budget (tests shrink it)
	legacySlot      pmem.Addr

	// Where boot time went; written once by boot, before New returns.
	bootLoadNs   uint64 // checkpoint selection and composition (loadMeta)
	bootReplayNs uint64 // journal replay on top of it
	bootReplayed uint64 // journal entries that replay applied

	// Transport session layer (session.go). tenMu guards the tenant
	// session registry; it nests like sessMu in the lock order (taken
	// from the connection path with no other daemon lock held).
	tenMu              sync.Mutex
	tenants            map[uint64]*Session
	connsMu            sync.Mutex // live + pre-handshake connection sets
	conns              map[*connState]struct{}
	hsConns            map[*proto.ServerConn]struct{} // accepted, handshake not yet done
	connsDown          bool                           // closeConns ran; late arrivals hang up
	lsnMu              sync.Mutex                     // listeners Serve is accepting on
	listeners          []net.Listener
	connWg             sync.WaitGroup // every handleConn in flight
	stopAccept         atomic.Bool    // Serve loops return instead of accepting
	activeConns        atomic.Int64   // post-handshake connections
	acceptErrs         atomic.Uint64  // accept errors survived (EMFILE etc.)
	hsRejects          atomic.Uint64  // handshakes refused
	wireErrs           atomic.Uint64  // frames refused on accepted connections
	sessResumes        atomic.Uint64  // sessions re-attached by token
	poolCapRejects     atomic.Uint64  // pool opens refused by the per-session cap
	maxConns           int            // 0 = defaultMaxConns
	maxSessions        int            // 0 = defaultMaxSessions
	maxPoolsPerSession int            // 0 = unlimited
	sessIdle           time.Duration  // 0 = defaultSessionIdle
	hsTimeout          time.Duration  // 0 = defaultHandshakeTimeout
	doneCh             chan struct{}  // closed once the daemon is down
	doneOnce           sync.Once

	// Live migration + warm-standby replication (migrate.go).
	migMu     sync.Mutex          // inbound transfer registry
	migsIn    map[uid.UUID]*migIn // in-flight inbound migrations (volatile)
	advertise string              // this daemon's URL, as peers should dial it
	migHook   func(phase string)  // test hook: fire at migration phases
	replMu    sync.Mutex          // replicator goroutine + dirty-map registry
	replStop  map[string]chan struct{}
	replMaps  map[string][]*pmem.DirtyMap
	replEvery time.Duration // replication round interval; 0 = default

	migsOutN        atomic.Uint64 // pools migrated away
	migsInN         atomic.Uint64 // pools adopted
	migAborts       atomic.Uint64 // migrations aborted
	replSyncs       atomic.Uint64 // standby delta rounds shipped
	replBytes       atomic.Uint64 // bytes shipped to standbys
	failovers       atomic.Uint64 // standbys promoted
	grantCapRejects atomic.Uint64 // grants refused by the per-session grant cap
	byteCapRejects  atomic.Uint64 // grants refused by the per-session byte cap

	maxGrantsPerSession int    // 0 = unlimited
	maxBytesPerSession  uint64 // 0 = unlimited

	panicHook func(*proto.Request) // test hook: provoke handler panics
}

// Option configures a Daemon.
type Option func(*Daemon)

// WithLogger directs daemon diagnostics to l.
func WithLogger(l *log.Logger) Option { return func(d *Daemon) { d.logger = l } }

// WithLegacyCheckpoints makes the daemon write v1 whole-state A/B
// snapshot slots instead of chunked checkpoint chains. Migration
// tests use it to generate old-generation images and the ckpt
// benchmark to measure the old compaction pause; it is not meant for
// production images (the v2 boot path reads both formats).
func WithLegacyCheckpoints() Option {
	return func(d *Daemon) { d.legacyCkpt = true }
}

// WithJournalCapacity caps the active metadata journal at n bytes
// (default and maximum pmem.MetaJournalSize). Crash-injection sweeps
// shrink it so a short workload crosses many compaction cycles.
func WithJournalCapacity(n uint64) Option {
	return func(d *Daemon) {
		if n > 0 && n <= pmem.MetaJournalSize {
			d.journalCap = n
		}
	}
}

// WithCheckpointChunkBytes sets the target payload size of one
// streamed checkpoint chunk (default 256 KiB). Tests shrink it to
// force multi-chunk checkpoints out of small registries.
func WithCheckpointChunkBytes(n int) Option {
	return func(d *Daemon) {
		if n > 0 {
			d.ckptChunk = n
		}
	}
}

// WithCheckpointArena caps the checkpoint arena at n bytes — two
// halves of n/2 (default and maximum pmem.MetaCkptSize). Tests shrink
// it so a modest registry exercises the cross-half spill path that a
// production image only hits past 32 MiB of metadata.
func WithCheckpointArena(n uint64) Option {
	return func(d *Daemon) {
		if n >= 4<<10 && n <= pmem.MetaCkptSize {
			d.ckptHalf = n / 2
		}
	}
}

// New boots a daemon on dev: it restores the metadata snapshot,
// replays registered logs if the previous run ended in a dirty
// shutdown, and marks the device in-use. It must run before any
// application touches the data — the essence of application-
// independent recovery.
func New(dev *pmem.Device, opts ...Option) (*Daemon, error) {
	d := &Daemon{
		dev:           dev,
		space:         addrspace.NewManager(),
		staging:       addrspace.NewManagerRange(StagingBase, stagingSize),
		types:         ptypes.NewRegistry(),
		jBase:         pmem.MetaJournal0,
		chain:         chainState{half: -1},
		journalCap:    pmem.MetaJournalSize,
		ckptChunk:     defaultCkptChunk,
		ckptHalf:      pmem.MetaCkptSize / 2,
		legacySlotCap: slotBytes,
		tenants:       make(map[uint64]*Session),
		conns:         make(map[*connState]struct{}),
		doneCh:        make(chan struct{}),
	}
	d.jPrevDone = make(chan struct{})
	close(d.jPrevDone) // the ticket chain starts settled
	for _, o := range opts {
		o(d)
	}
	if d.maxConns == 0 {
		d.maxConns = defaultMaxConns
	}
	if d.maxSessions == 0 {
		d.maxSessions = defaultMaxSessions
	}
	if err := d.boot(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.logger != nil {
		d.logger.Printf(format, args...)
	}
}

func (d *Daemon) boot() error {
	magic := d.dev.LoadU64(metaBase + sbOffMag)
	firstBoot := magic != sbMagic
	if firstBoot {
		d.chain = chainState{half: -1} // no committed chain yet
		d.st = *newState()
		d.st.NextSession = 1
		d.dev.StoreU64(metaBase+sbOffMag, sbMagic)
		d.dev.StoreU64(metaBase+sbOffDirt, 0)
		d.dev.Persist(metaBase, 16)
	} else {
		// Checkpoint first — the best chunked chain, or a legacy v1
		// whole-state slot (images written by old daemon generations
		// boot unchanged) — then fold in the per-entity journal batches
		// appended since, from both journal regions in base order.
		t0 := time.Now()
		if err := d.loadMeta(); err != nil {
			return fmt.Errorf("daemon: restoring metadata: %w", err)
		}
		t1 := time.Now()
		// The freshly composed state is exactly what the winning chain
		// covers; journal replay and recovery mutate it from here.
		d.chainCounters = *d.countersVal()
		d.seq = d.st.Seq
		n, err := d.replayJournals(d.st.Seq)
		if err != nil {
			return fmt.Errorf("daemon: restoring metadata: %w", err)
		}
		load, replay := t1.Sub(t0), time.Since(t1)
		d.bootLoadNs, d.bootReplayNs, d.bootReplayed = uint64(load), uint64(replay), uint64(n)
		d.logf("boot: checkpoint %d loaded in %v, %d journal batches replayed in %v", d.st.Seq, load, n, replay)
	}
	// Seed the COW registry image with the composed state. Every
	// mutation from here on (recovery included) journals through
	// appendBatch, whose records accumulate in d.pending as the deltas
	// on top of this generation — so checkpoints never have to read
	// live records again.
	d.img.Store(&regImage{st: cloneState(&d.st), gen: d.chain.gen})
	// Rebuild the in-memory reservation indexes.
	for _, p := range d.st.Puddles {
		if _, err := d.space.ReserveAt(pmem.Addr(p.Addr), p.Size, p.UUID.String()); err != nil {
			return fmt.Errorf("daemon: re-reserving puddle %v: %w", p.UUID, err)
		}
	}
	for _, s := range d.st.Sessions {
		for i := range s.Puddles {
			ip := &s.Puddles[i]
			if _, err := d.staging.ReserveAt(pmem.Addr(ip.StagedAt), ip.Size, ip.UUID.String()); err != nil {
				return fmt.Errorf("daemon: re-reserving staging for %v: %w", ip.UUID, err)
			}
			if ip.NewAddr != 0 {
				if _, err := d.space.ReserveAt(pmem.Addr(ip.NewAddr), ip.Size, ip.UUID.String()); err != nil {
					return fmt.Errorf("daemon: re-reserving frontier %v: %w", ip.UUID, err)
				}
			}
		}
	}
	// Standby copies are not in st.Puddles but own real address ranges.
	if err := d.reserveStandbys(); err != nil {
		return err
	}
	// Moved tombstones and in-flight migrations mean attached clients
	// must check freeze words; arm the quiesce gate before serving.
	d.armIfMigrating()
	for _, ti := range d.st.Types {
		if err := d.types.Put(ti); err != nil {
			return fmt.Errorf("daemon: restoring type %q: %w", ti.Name, err)
		}
	}
	// Application-independent recovery: replay before serving anyone.
	dirty := !firstBoot && d.dev.LoadU64(metaBase+sbOffDirt) != 0
	if dirty {
		d.runRecovery()
	}
	d.dev.StoreU64(metaBase+sbOffDirt, 1)
	d.dev.Persist(metaBase+sbOffDirt, 8)
	// Full checkpoint, then fresh journals: this rotates the arena
	// halves over time and initializes the v2 regions on images
	// migrated from the old whole-state-snapshot layout. The order
	// matters — the journals reset only once the checkpoint that
	// covers their entries is durable, so a crash anywhere in boot
	// still composes the previous chain + the old journals.
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.counterOnlyQuiescent() {
		// Quiescent reboot over a committed chain: every journal entry
		// is already covered (seq equality), so resetting the journals
		// below loses nothing and the full checkpoint would only
		// re-stream state the chain already holds.
		d.initJournals()
		return nil
	}
	if err := d.checkpointSync(true); err != nil {
		if !errors.Is(err, errCkptFull) {
			return err
		}
		// The arena cannot hold the live chain AND a fresh full image —
		// the registry is near arena capacity. Not fatal: the previous
		// chain plus the intact journals (NOT reset below) still compose
		// this exact state, so serve on and retry the full once the
		// registry shrinks. forceFull stays up so no incremental streams
		// in the meantime: pending only tracks post-boot deltas, the
		// journal-replayed entries live in the boot image alone, and an
		// increment over the stale chain would miss them.
		d.forceFull = true
		d.logf("boot checkpoint deferred: %v", err)
		return nil
	}
	if !d.legacyCkpt {
		// The legacy writer reset journal 0 itself (old daemons did not
		// know the standby region exists; leaving it untouched is what
		// makes WithLegacyCheckpoints a faithful v1-image generator).
		d.initJournals()
	}
	return nil
}

// Shutdown checkpoints metadata (incrementally — only what changed
// since the last compaction) and marks the device cleanly closed.
func (d *Daemon) Shutdown() {
	if d.closed.Swap(true) {
		return
	}
	defer d.signalDone()
	d.ckptMu.Lock() // wait out any in-flight checkpoint stream
	defer d.ckptMu.Unlock()
	d.opMu.Lock() // quiesce in-flight requests; they complete first
	defer d.opMu.Unlock()
	if d.counterOnlyQuiescent() {
		// Nothing happened since the chain's last commit — writing a
		// checkpoint would stream zero entity records plus a redundant
		// counters chunk. Just mark the device clean.
		d.dev.StoreU64(metaBase+sbOffDirt, 0)
		d.dev.Persist(metaBase+sbOffDirt, 8)
		return
	}
	if err := d.checkpointSync(false); err != nil {
		d.logf("shutdown checkpoint: %v", err)
		return // leave the dirty flag set rather than losing the journal
	}
	d.dev.StoreU64(metaBase+sbOffDirt, 0)
	d.dev.Persist(metaBase+sbOffDirt, 8)
}

// Device returns the daemon's device (shared with in-process clients,
// standing in for DAX mappings).
func (d *Daemon) Device() *pmem.Device { return d.dev }

// --- checkpoint selection (chunked chains + legacy A/B slots). The
// chunked write side lives in ckpt.go; the v1 slot reader and writer
// below are the only metadata persistence still on encoding/gob ---

// readSlot decodes one legacy v1 whole-state snapshot slot.
func (d *Daemon) readSlot(slot pmem.Addr) (*state, uint64, bool) {
	seq := d.dev.LoadU64(slot)
	n := d.dev.LoadU64(slot + 8)
	if seq == 0 || n == 0 || n > slotBytes-32 {
		return nil, 0, false
	}
	data := make([]byte, n)
	d.dev.Load(slot+32, data)
	if crc64.Checksum(data, crcTable) != d.dev.LoadU64(slot+16) {
		return nil, 0, false
	}
	var st state
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, 0, false
	}
	return &st, seq, true
}

// writeCheckpointLegacy writes a whole-state v1 snapshot into a
// legacy A/B slot and resets journal 0 on top of it. The v1 write
// path is kept so migration tests and the ckpt benchmark can generate
// and measure old-generation images (WithLegacyCheckpoints) — with
// the two v1 landmines fixed:
//
//   - The slot alternates away from the last valid slot. The original
//     picked by Seq%2 parity while journal appends bump the same
//     sequence, so two consecutive checkpoints could target the SAME
//     slot; a crash mid-write then destroyed the only good snapshot,
//     boot fell back to a stale slot, and the journal-base guard
//     discarded the journal on top — silently losing acked state.
//
//   - A snapshot too large for the slot fails without side effects:
//     the original bumped d.seq before the size check, desequencing
//     the journal on every failed compaction.
//
// The caller holds opMu exclusively (or is the single boot goroutine).
func (d *Daemon) writeCheckpointLegacy() error {
	prevSeq := d.st.Seq
	d.st.Seq = d.seq + 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&d.st); err != nil {
		panic(fmt.Sprintf("daemon: encoding snapshot: %v", err)) // programming error
	}
	data := buf.Bytes()
	if uint64(len(data))+32 > d.legacySlotCap {
		d.st.Seq = prevSeq // side-effect-free failure: sequencing untouched
		d.persistErrs.Add(1)
		return fmt.Errorf("daemon: snapshot %d bytes exceeds slot", len(data))
	}
	d.seq++
	slot := slotA
	if d.legacySlot == slotA {
		slot = slotB
	}
	// Header last: a torn snapshot write is invisible because the other
	// slot still decodes and carries the highest committed seq.
	d.dev.Store(slot+32, data)
	d.dev.Flush(slot+32, len(data))
	d.dev.Fence()
	d.dev.StoreU64(slot+8, uint64(len(data)))
	d.dev.StoreU64(slot+16, crc64.Checksum(data, crcTable))
	d.dev.StoreU64(slot, d.st.Seq)
	d.dev.Persist(slot, 32)
	d.legacySlot = slot
	// Only after the checkpoint is durable may the journal restart; a
	// crash in between replays the old journal against the old slot.
	d.resetJournalRegion(pmem.MetaJournal0, d.st.Seq)
	d.ckptCount.Add(1)
	d.ckptSeq.Store(d.st.Seq)
	return nil
}

// loadMeta restores the best available checkpoint: every readable
// source — the two chunked chains and the two legacy slots — competes
// on (committed sequence, commit generation), and the highest wins.
// The generation tie-break matters because counters mutate without
// journal appends, so two commits can share a sequence number with
// different counter values — the newer commit must win. A v1 image
// has no chains, so its newest slot wins (the migration path); legacy
// slots read as generation 0 and legacy writers always bump the
// sequence, so a chain never loses a tie to a stale slot.
func (d *Daemon) loadMeta() error {
	var (
		best    *state
		bestSeq uint64
		bestGen uint64
		found   bool
	)
	better := func(seq, gen uint64) bool {
		return !found || seq > bestSeq || (seq == bestSeq && gen > bestGen)
	}
	d.chain = chainState{half: -1}
	d.legacySlot = 0
	for half := 0; half < 2; half++ {
		sr, ok, err := d.scanHalf(half)
		if err != nil {
			return err
		}
		if ok && better(sr.st.Seq, sr.gen) {
			best, bestSeq, bestGen, found = sr.st, sr.st.Seq, sr.gen, true
			d.chain = chainState{
				half: half, seq: sr.st.Seq, gen: sr.gen, tail: sr.tail,
				incs: sr.incs, headEnd: sr.headEnd,
				spilled: sr.spilled, spillStart: sr.spillStart,
			}
			d.legacySlot = 0
		}
	}
	for _, slot := range []pmem.Addr{slotA, slotB} {
		st, seq, ok := d.readSlot(slot)
		if ok && better(seq, 0) {
			best, bestSeq, bestGen, found = st, seq, 0, true
			d.chain = chainState{half: -1, seq: seq}
			d.legacySlot = slot
		}
	}
	if !found {
		return fmt.Errorf("no valid metadata checkpoint (chains and slots all unreadable)")
	}
	d.st = *best
	if d.st.Pools == nil {
		d.st.Pools = make(map[string]*PoolRec)
	}
	if d.st.Puddles == nil {
		d.st.Puddles = make(map[uid.UUID]*PuddleRec)
	}
	if d.st.LogSpaces == nil {
		d.st.LogSpaces = make(map[uid.UUID]*LogSpaceRec)
	}
	if d.st.Sessions == nil {
		d.st.Sessions = make(map[uint64]*ImportSession)
	}
	if d.st.MigsOut == nil {
		d.st.MigsOut = make(map[uid.UUID]*MigOutRec)
	}
	if d.st.Moved == nil {
		d.st.Moved = make(map[string]*MovedRec)
	}
	if d.st.MigsDone == nil {
		d.st.MigsDone = make(map[uid.UUID]*MigDoneRec)
	}
	if d.st.Standbys == nil {
		d.st.Standbys = make(map[string]*StandbyRec)
	}
	if d.st.Replicas == nil {
		d.st.Replicas = make(map[string]*ReplicaRec)
	}
	return nil
}

// --- recovery engine ---

// maxRecoveryWorkers caps the recovery pool when no explicit worker
// count is configured.
const maxRecoveryWorkers = 8

// WithRecoveryWorkers sets the number of concurrent log-space replay
// workers used during recovery. n <= 0 selects the default
// (min(GOMAXPROCS, 8)); n == 1 forces serial recovery.
func WithRecoveryWorkers(n int) Option {
	return func(d *Daemon) { d.recoveryWorkers = n }
}

// WithConnWorkers sets how many dispatch workers each client
// connection pipelines requests across. n <= 0 selects the default
// (see server.go); n == 1 restores strictly serial per-connection
// execution.
func WithConnWorkers(n int) Option {
	return func(d *Daemon) { d.connWorkers = n }
}

// workerCount resolves the recovery pool size for the given number of
// independent replay units (conflict groups of pending log spaces).
func (d *Daemon) workerCount(spaces int) int {
	n := d.recoveryWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > maxRecoveryWorkers {
			n = maxRecoveryWorkers
		}
	}
	if n > spaces {
		n = spaces
	}
	if n < 1 {
		n = 1
	}
	return n
}

// replayUnit is one schedulable piece of recovery work: either a
// single shard directory of one log space (shard >= 0, space opened
// once and shared by that space's sibling units — the handle is
// immutable and each unit touches only its own shard directory), or
// a serial chain of whole spaces — a cross-application conflict
// group whose members must not race on their shared pools
// (shard == -1, space nil).
type replayUnit struct {
	spaces []*LogSpaceRec
	shard  int
	space  *plog.ShardedLogSpace
}

// runRecovery replays every registered log space. Callers hold no
// lock (boot) or opMu exclusively (RecoverNow); the daemon is not
// serving yet or is quiesced, respectively.
//
// Recovery work is fanned out over a bounded worker pool at two
// granularities. Across applications, log spaces whose pending
// entries target a common pool are placed in one conflict group and
// replayed serially within it, in the same deterministic order serial
// recovery would use — two applications sharing a writable pool must
// not race on the same addresses. Within one application, the shards
// of its sharded log space become independent units: in-flight
// transactions of one application are thread-local and hold disjoint
// heap leases, so their pending logs touch disjoint addresses (the
// same argument that makes the client's lock sharding sound), and a
// single crashed many-worker application recovers in parallel. Each
// worker keeps the per-space credential confinement of serial
// recovery (the filter closes over that space's registered creds) and
// reads the registries without locking — nothing mutates daemon state
// while recovery runs. Replay counters are aggregated under a mutex
// and folded into the snapshot once, after the pool drains.
func (d *Daemon) runRecovery() {
	atomic.AddUint64(&d.st.Recoveries, 1)
	spaces := make([]*LogSpaceRec, 0, len(d.st.LogSpaces))
	for _, ls := range d.st.LogSpaces {
		spaces = append(spaces, ls)
	}
	// Deterministic dispatch order (map iteration is randomized).
	sort.Slice(spaces, func(i, j int) bool {
		return bytes.Compare(spaces[i].UUID[:], spaces[j].UUID[:]) < 0
	})
	units := d.replayUnits(d.conflictGroups(spaces))
	workers := d.workerCount(len(units))

	var (
		mu        sync.Mutex
		logs      uint64
		entries   uint64
		downPanic any // first panic from a worker (injected crash or bug)
		downed    atomic.Bool
	)
	work := make(chan replayUnit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				if downed.Load() {
					continue // machine already "died" mid-recovery
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if !pmem.IsCrash(r) {
								// Genuine bug, not an injected power
								// failure: capture the faulting stack
								// before it is lost to the rethrow on
								// the booting goroutine.
								d.logf("recovery: worker panic: %v\n%s", r, debug.Stack())
							}
							downed.Store(true)
							mu.Lock()
							if downPanic == nil {
								downPanic = r
							}
							mu.Unlock()
						}
					}()
					for _, ls := range u.spaces {
						if downed.Load() {
							return
						}
						var nl, ne uint64
						if u.shard < 0 {
							// Serial chain (cross-application conflict
							// group): each space still fans its shards
							// out, behind a per-space barrier.
							nl, ne = d.recoverSpaceFanout(ls, &downed)
						} else {
							nl, ne = d.recoverLogSpace(ls, u.shard, u.space, &downed)
						}
						mu.Lock()
						logs += nl
						entries += ne
						mu.Unlock()
					}
				}()
			}
		}()
	}
	for _, u := range units {
		work <- u
	}
	close(work)
	wg.Wait()
	atomic.AddUint64(&d.st.LogsReplayed, logs)
	atomic.AddUint64(&d.st.EntriesApplied, entries)
	if downPanic != nil {
		// Re-raise the worker panic on the booting goroutine so the
		// caller sees the same unwind as with serial recovery.
		panic(downPanic)
	}
	// Callers checkpoint after recovery: boot writes its full
	// checkpoint right after, opRecoverNow streams an incremental one.
}

// replayUnits turns conflict groups into schedulable units. A group
// of several spaces stays one serial unit (cross-application pool
// sharing). A group with a single space splits into one unit per
// shard directory — the space is opened and validated once here and
// the handle shared by its units, not re-opened per shard — so a
// lone crashed application fans out over the whole worker pool.
func (d *Daemon) replayUnits(groups [][]*LogSpaceRec) []replayUnit {
	var units []replayUnit
	for _, g := range groups {
		if len(g) == 1 && d.spaceShards(g[0]) > 1 {
			if space := d.openLogSpace(g[0]); space != nil && space.Shards() > 1 {
				for s := 0; s < space.Shards(); s++ {
					units = append(units, replayUnit{spaces: g, shard: s, space: space})
				}
				continue
			}
		}
		units = append(units, replayUnit{spaces: g, shard: -1})
	}
	return units
}

// recoverSpaceFanout replays one space of a serial conflict-group
// chain, fanning its shard directories out over goroutines with a
// barrier at the end. The shards of one space hold disjoint heap
// leases (thread-local in-flight transactions — the argument that
// already lets a lone space split into per-shard units), so they may
// race each other; the NEXT space in the chain may share a pool with
// this one, so it starts only after every shard goroutine joins.
// Gated off under WithRecoveryWorkers(1): that configuration is the
// serial-recovery reference the fan-out equivalence test compares
// against, and must stay strictly sequential. A shard goroutine's
// panic (an injected mid-recovery power failure, or a bug) is
// captured, halts the siblings, and is re-raised on the unit worker
// so the dispatcher's existing crash transport sees the same unwind
// serial replay would produce.
func (d *Daemon) recoverSpaceFanout(ls *LogSpaceRec, halt *atomic.Bool) (logs, entries uint64) {
	if d.recoveryWorkers == 1 {
		return d.recoverLogSpace(ls, -1, nil, halt)
	}
	space := d.openLogSpace(ls)
	if space == nil || space.Shards() <= 1 {
		// Unreadable (recoverLogSpace re-reports) or nothing to fan out.
		return d.recoverLogSpace(ls, -1, space, halt)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	for s := 0; s < space.Shards(); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if halt != nil {
						halt.Store(true)
					}
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			nl, ne := d.recoverLogSpace(ls, s, space, halt)
			mu.Lock()
			logs += nl
			entries += ne
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return logs, entries
}

// openLogSpace opens a registered space's on-media directory (nil if
// unreadable; the serial replay path re-reports the failure).
func (d *Daemon) openLogSpace(ls *LogSpaceRec) *plog.ShardedLogSpace {
	p, err := puddle.Open(d.dev, pmem.Addr(ls.Addr))
	if err != nil {
		return nil
	}
	space, err := plog.OpenShardedLogSpace(p)
	if err != nil {
		return nil
	}
	return space
}

// spaceShards resolves a registered space's shard count. The
// journaled registration record is authoritative when present —
// opRegLogSpace cross-checked it against the on-media geometry — so
// the common path costs no device reads; records persisted before
// sharding existed (Shards == 0) fall back to the media, and an
// unreadable directory reads as one shard.
func (d *Daemon) spaceShards(ls *LogSpaceRec) int {
	if ls.Shards > 0 {
		return int(ls.Shards)
	}
	p, err := puddle.Open(d.dev, pmem.Addr(ls.Addr))
	if err != nil {
		return 1
	}
	space, err := plog.OpenShardedLogSpace(p)
	if err != nil {
		return 1
	}
	return space.Shards()
}

// conflictGroups partitions spaces (already in deterministic order)
// such that any two spaces whose pending log entries target a common
// pool share a group. Groups replay serially inside one worker;
// distinct groups replay concurrently. Grouping is by actual replay
// targets, not credential capability — superuser-registered spaces
// that never touch each other's pools still run in parallel.
func (d *Daemon) conflictGroups(spaces []*LogSpaceRec) [][]*LogSpaceRec {
	n := len(spaces)
	if n <= 1 {
		if n == 0 {
			return nil
		}
		return [][]*LogSpaceRec{spaces}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	targets := make([]map[uid.UUID]bool, n)
	for i, ls := range spaces {
		targets[i] = d.replayTargets(ls)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for u := range targets[j] {
				if targets[i][u] {
					ri, rj := find(i), find(j)
					if ri != rj {
						parent[rj] = ri
					}
					break
				}
			}
		}
	}
	idx := make(map[int]int)
	var out [][]*LogSpaceRec
	for i, ls := range spaces {
		r := find(i)
		g, ok := idx[r]
		if !ok {
			g = len(out)
			idx[r] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], ls)
	}
	return out
}

// replayTargets returns the set of pools the space's pending entries
// would write to. A superset is fine (it only costs parallelism);
// entries outside any registered puddle are filtered at replay and
// cannot conflict.
func (d *Daemon) replayTargets(ls *LogSpaceRec) map[uid.UUID]bool {
	out := make(map[uid.UUID]bool)
	p, err := puddle.Open(d.dev, pmem.Addr(ls.Addr))
	if err != nil {
		return out
	}
	space, err := plog.OpenShardedLogSpace(p)
	if err != nil {
		return out
	}
	var last *PuddleRec
	bounds := d.logBounds(ls)
	for _, head := range space.Logs() {
		l, err := plog.OpenLog(d.dev, head, bounds)
		if err != nil || !l.Pending() {
			continue
		}
		for _, e := range l.Entries() {
			if last != nil && uint64(e.Addr) >= last.Addr && uint64(e.Addr) < last.Addr+last.Size {
				continue // same puddle as the previous entry
			}
			for _, rec := range d.st.Puddles {
				if uint64(e.Addr) >= rec.Addr && uint64(e.Addr) < rec.Addr+rec.Size {
					out[rec.Pool] = true
					last = rec
					break
				}
			}
		}
	}
	return out
}

// recoverLogSpace replays one registered log space — all of it when
// shard < 0, or a single shard directory — and returns the number of
// logs replayed and entries applied. space, when non-nil, is the
// directory handle the dispatcher already opened (shard units share
// one open instead of re-validating the whole geometry per shard).
// Safe to call from concurrent recovery workers: it only reads
// daemon state. halt, when set by another worker unwinding from an
// injected crash, stops the replay between logs — the machine is
// considered dead.
func (d *Daemon) recoverLogSpace(ls *LogSpaceRec, shard int, space *plog.ShardedLogSpace, halt *atomic.Bool) (logs, entries uint64) {
	if space == nil {
		p, err := puddle.Open(d.dev, pmem.Addr(ls.Addr))
		if err != nil {
			d.logf("recovery: log space %v unreadable: %v", ls.UUID, err)
			return 0, 0
		}
		if space, err = plog.OpenShardedLogSpace(p); err != nil {
			d.logf("recovery: log space %v malformed: %v", ls.UUID, err)
			return 0, 0
		}
	}
	var heads []pmem.Addr
	switch {
	case shard < 0:
		heads = space.Logs()
	case shard < space.Shards():
		heads = space.ShardLogs(shard)
	default:
		// Registration record and media disagree on the shard count
		// (e.g. a bare puddle registered with a declared count and
		// formatted differently). Replaying the whole space here would
		// hand the same logs to several workers at once; the shards
		// that do exist are covered by their own units, so this unit
		// has nothing to do.
		d.logf("recovery: log space %v has %d shards, unit wanted shard %d; skipping",
			ls.UUID, space.Shards(), shard)
		return 0, 0
	}
	// Recreate the crashed process's view: recovery may only write
	// addresses its credentials could write before the crash.
	filter := func(e plog.Entry) bool {
		return d.credsCanWriteAddr(ls.Creds, e.Addr, len(e.Data))
	}
	bounds := d.logBounds(ls)
	rewound := false
	for _, head := range heads {
		if halt != nil && halt.Load() {
			return logs, entries
		}
		l, err := plog.OpenLog(d.dev, head, bounds)
		if err != nil {
			d.logf("recovery: log at %#x unreadable: %v", uint64(head), err)
			continue
		}
		if l.AtRest() {
			continue // the common case, decided in a few loads
		}
		if !l.Pending() {
			// Off rest with nothing to replay: a crash inside Reset, a
			// log an older build reset to range (0,0), or a malformed
			// entry that ended the scan, which is worth a line. Recovery
			// leaves every log it visits at rest.
			if _, err := l.Scan(); err != nil {
				d.logf("recovery: log at %#x skipped: %v", uint64(head), err)
			}
			l.Reset()
			rewound = true
			continue
		}
		n := l.Replay(true, filter)
		rewound = true
		logs++
		entries += uint64(n)
		d.logf("recovery: replayed log at %#x (%d entries)", uint64(head), n)
	}
	if rewound {
		// Reset rewinds tail segments flush-only, for a transaction's next
		// Append to fence. Nobody appends here: one fence makes "at rest"
		// durable for every log of this pass. (A crash before it only
		// repeats the rewind.)
		d.dev.Fence()
	}
	return logs, entries
}

// logBounds is the plog.BoundsFunc recovery opens ls's logs with: a log
// segment must lie inside one registered log puddle of the pool that
// holds the log space, whatever size or next pointer the
// (application-written) headers claim. A chain led into another pool's
// puddle, or into a data puddle of the same pool, is cut there, so
// recovery neither scans nor rewinds anything but the space's own logs.
func (d *Daemon) logBounds(ls *LogSpaceRec) plog.BoundsFunc {
	home := d.puddleRec(ls.UUID)
	return func(base pmem.Addr) (pmem.Range, bool) {
		r, ok := d.space.Lookup(base)
		if !ok || home == nil {
			return pmem.Range{}, false
		}
		id, err := uid.Parse(r.Owner) // reservations are owned by their puddle's UUID
		if err != nil {
			return pmem.Range{}, false
		}
		rec := d.puddleRec(id)
		if rec == nil || puddle.Kind(rec.Kind) != puddle.KindLog || rec.Pool != home.Pool {
			return pmem.Range{}, false
		}
		return r.Range, true
	}
}

// credsCanWriteAddr reports whether creds could write [addr, addr+n):
// the range must lie within a single registered puddle whose pool
// grants write permission.
func (d *Daemon) credsCanWriteAddr(c Creds, addr pmem.Addr, n int) bool {
	for _, p := range d.st.Puddles {
		if uint64(addr) >= p.Addr && uint64(addr)+uint64(n) <= p.Addr+p.Size {
			pool := d.poolByUUID(p.Pool)
			if pool == nil {
				return false
			}
			return checkPerm(c, pool, true)
		}
	}
	return false
}

// poolByUUID resolves a pool UUID under the registry read lock.
func (d *Daemon) poolByUUID(u uid.UUID) *PoolRec {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	return d.poolByUUIDLocked(u)
}

func (d *Daemon) poolByUUIDLocked(u uid.UUID) *PoolRec {
	for _, p := range d.st.Pools {
		if p.UUID == u {
			return p
		}
	}
	return nil
}

// poolByName resolves a pool name under the registry read lock.
func (d *Daemon) poolByName(name string) *PoolRec {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	return d.st.Pools[name]
}

// puddleRec resolves a puddle UUID under the registry read lock.
func (d *Daemon) puddleRec(u uid.UUID) *PuddleRec {
	d.poolsMu.RLock()
	defer d.poolsMu.RUnlock()
	return d.st.Puddles[u]
}

// checkPerm applies the UNIX owner/group/other model (paper §4.6).
// Owner identity is immutable; Mode is read under the pool's lock
// (callers must not hold it).
func checkPerm(c Creds, pool *PoolRec, write bool) bool {
	if c == Superuser {
		return true
	}
	pool.mu.Lock()
	mode := pool.Mode
	pool.mu.Unlock()
	var triad uint32
	switch {
	case c.UID == pool.OwnerUID:
		triad = mode >> 6
	case c.GID == pool.OwnerGID:
		triad = mode >> 3
	default:
		triad = mode
	}
	if write {
		return triad&0o2 != 0
	}
	return triad&0o4 != 0
}

// Stats returns a snapshot of daemon counters.
func (d *Daemon) Stats() proto.Stats {
	d.poolsMu.RLock()
	pools := len(d.st.Pools)
	puddles := len(d.st.Puddles)
	d.poolsMu.RUnlock()
	d.lsMu.Lock()
	spaces := len(d.st.LogSpaces)
	d.lsMu.Unlock()
	devStats := d.dev.Stats()
	return proto.Stats{
		Pools:          pools,
		Puddles:        puddles,
		ReservedBytes:  d.space.ReservedBytes(),
		LogSpaces:      spaces,
		Types:          d.types.Len(),
		Recoveries:     atomic.LoadUint64(&d.st.Recoveries),
		LogsReplayed:   atomic.LoadUint64(&d.st.LogsReplayed),
		EntriesApplied: atomic.LoadUint64(&d.st.EntriesApplied),
		Imports:        atomic.LoadUint64(&d.st.Imports),
		PersistErrors:  d.persistErrs.Load(),
		DispatchPanics: d.panics.Load(),
		JournalBytes:   d.jTailApprox.Load(),

		JournalReplayed:     d.bootReplayed,
		BootLoadNs:          d.bootLoadNs,
		BootReplayNs:        d.bootReplayNs,
		JournalDecodeErrors: d.jDecodeErrs.Load(),

		Checkpoints:      d.ckptCount.Load(),
		CheckpointChunks: d.ckptChunks.Load(),
		CheckpointBytes:  d.ckptBytes.Load(),
		CheckpointSeq:    d.ckptSeq.Load(),
		CheckpointSpills: d.ckptSpills.Load(),
		RegistryGen:      d.RegistryGen(),
		CkptPauseTotalNs: d.ckptPauseTotal.Load(),
		CkptPauseMaxNs:   d.ckptPauseMax.Load(),

		CacheHits:      devStats.CacheHits,
		CacheMisses:    devStats.CacheMisses,
		CacheRefills:   devStats.CacheRefills,
		SlabDonations:  devStats.SlabDonations,
		ReclaimedSlabs: devStats.ReclaimedSlabs,

		ActiveConns:      int(d.activeConns.Load()),
		ActiveSessions:   d.SessionCount(),
		AcceptErrors:     d.acceptErrs.Load(),
		HandshakeRejects: d.hsRejects.Load(),
		WireDecodeErrors: d.wireErrs.Load(),
		SessionResumes:   d.sessResumes.Load(),
		PoolCapRejects:   d.poolCapRejects.Load(),
		GrantCapRejects:  d.grantCapRejects.Load(),
		ByteCapRejects:   d.byteCapRejects.Load(),

		MigrationsOut:   d.migsOutN.Load(),
		MigrationsIn:    d.migsInN.Load(),
		MigrationAborts: d.migAborts.Load(),
		ReplicaSyncs:    d.replSyncs.Load(),
		ReplicaBytes:    d.replBytes.Load(),
		Failovers:       d.failovers.Load(),
	}
}

// formPuddle reserves and formats a puddle without touching any
// registry — safe to run outside all daemon locks; the caller links
// the returned record into its pool under the proper locks (or
// releases the reservation on failure).
func (d *Daemon) formPuddle(poolUUID uid.UUID, size uint64, kind puddle.Kind) (*PuddleRec, error) {
	id := uid.New()
	r, err := d.space.Reserve(size, id.String())
	if err != nil {
		return nil, err
	}
	p, err := puddle.Format(d.dev, r.Start, size, id, kind, poolUUID)
	if err != nil {
		d.space.Release(r.Start)
		return nil, err
	}
	if kind == puddle.KindData {
		alloc.Format(p, alloc.Direct{Dev: d.dev})
	}
	return &PuddleRec{UUID: id, Addr: uint64(r.Start), Size: size, Kind: uint64(kind), Pool: poolUUID}, nil
}

// CheckConsistency validates the bidirectional pool<->puddle registry
// invariants and the address-space index. It quiesces the daemon, so
// it is meant for tests, tools and post-recovery audits: every pool's
// root and members must exist and point back at the pool, every puddle
// must be listed by its pool, and every registered log space must
// reference a live puddle (journal batches make the multi-entity
// operations that maintain these invariants atomic).
func (d *Daemon) CheckConsistency() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	for name, pool := range d.st.Pools {
		member := make(map[uid.UUID]bool, len(pool.Puddles))
		for _, pu := range pool.Puddles {
			rec := d.st.Puddles[pu]
			if rec == nil {
				return fmt.Errorf("pool %q lists missing puddle %v", name, pu)
			}
			if rec.Pool != pool.UUID {
				return fmt.Errorf("pool %q lists puddle %v owned by %v", name, pu, rec.Pool)
			}
			member[pu] = true
		}
		if !member[pool.Root] {
			return fmt.Errorf("pool %q root %v is not a member", name, pool.Root)
		}
	}
	for id, rec := range d.st.Puddles {
		pool := d.poolByUUIDLocked(rec.Pool)
		if pool == nil {
			return fmt.Errorf("puddle %v references missing pool %v", id, rec.Pool)
		}
		found := false
		for _, pu := range pool.Puddles {
			if pu == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("puddle %v missing from pool %q member list", id, pool.Name)
		}
	}
	for id, ls := range d.st.LogSpaces {
		rec := d.st.Puddles[id]
		if rec == nil {
			return fmt.Errorf("log space %v references missing puddle", id)
		}
		if rec.Addr != ls.Addr {
			return fmt.Errorf("log space %v at %#x but puddle at %#x", id, ls.Addr, rec.Addr)
		}
	}
	return d.space.Validate()
}
