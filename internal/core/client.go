// Package core implements Libpuddles and Libtx (paper Fig. 2): the
// application-facing library that talks to Puddled, manages pools and
// puddles, allocates objects, runs failure-atomic transactions, and
// performs incremental pointer rewriting for relocated data.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"puddles/internal/alloc"
	"puddles/internal/daemon"
	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// LogPuddleSize is the default size of a transaction-log puddle.
const LogPuddleSize = 2 << 20

// maxDefaultLogShards caps the automatic log-shard count (explicit
// SetLogShards may go up to plog.MaxLogShards).
const maxDefaultLogShards = 8

// Errors.
var (
	ErrReadOnly    = errors.New("core: pool is not writable")
	ErrNoRoot      = errors.New("core: pool has no root object (call CreateRoot)")
	ErrHasRoot     = errors.New("core: pool already has a root object")
	ErrNotImported = errors.New("core: pool is not an in-progress import")
	ErrImported    = errors.New("core: imported pool must be finalized before writing")
	// ErrRootSlotTaken: an object allocated before CreateRoot occupies
	// the fixed root offset, so Root could never find a later root.
	ErrRootSlotTaken = errors.New("core: root offset already holds an object (CreateRoot must precede every allocation)")
	// ErrLogRelease wraps a failure to return a transaction log to the
	// daemon (the cache-ablated OpFreePuddle round trip). A commit that
	// returns it is still durably committed; only log cleanup failed.
	ErrLogRelease = errors.New("core: releasing transaction log")
)

// Client is a Libpuddles instance: one application's connection to
// Puddled plus its view of the global puddle space.
//
// Locking: the client's hot-path state is split across dedicated
// locks so independent transactions proceed in parallel — a
// copy-on-write range index (heapAt does one atomic load per address
// lookup; mutators rebuild and swap under idxMu), a striped
// log-space (each shard directory and its log-puddle cache behind its
// own latch, selected by a worker-affine hint, so concurrent
// acquireLog/releaseLog never contend), an atomic bump cursor for the
// volatile arena, and mu, which now guards only the cold
// import-session and fault-hook state.
type Client struct {
	tr transport // daemon connection (+ reconnect state; dial.go)
	// devP is the device backing the CURRENT daemon: a migration
	// redirect (followMove) may swap both the connection and the device
	// when the new owner manages different "DAX-mapped" memory. Loaded
	// once per operation via device().
	devP  atomic.Pointer[pmem.Device]
	types *ptypes.Registry

	// peers maps daemon URLs to their devices, so a pool-moved
	// redirect to a registered peer can swap the client's device view
	// along with the connection (RegisterPeerDevice).
	peersMu sync.Mutex
	peers   map[string]*pmem.Device
	moves   atomic.Uint64 // pool-moved redirects followed

	mu         sync.Mutex
	imports    map[uint64]*importState
	armed      map[pmem.Addr]*importPud    // fault-range start -> frontier puddle
	armedOwner map[*importPud]*importState // frontier puddle -> owning session
	hookArmed  bool

	// Copy-on-write address→heap index. rangeIdx publishes an
	// immutable, generation-stamped snapshot; lookups are one atomic
	// load plus a binary search with zero shared-cacheline writes.
	// idxMu serializes mutators only (puddle attach) — readers never
	// touch it.
	idxMu    sync.Mutex
	rangeIdx atomic.Pointer[rangeIndex]

	// Sharded transaction-log management. logSt publishes the
	// immutable post-setup state (shard directories and their caches);
	// logInitMu serializes only the one-time setup and the
	// configuration setters.
	logSt         atomic.Pointer[logState]
	logInitMu     sync.Mutex
	logShardsWant int // SetLogShards; 0 = auto
	logCacheOff   atomic.Bool

	// Worker-affinity hints: a sync.Pool of per-worker affinity
	// records (log shard + last leased heap). See affinity.
	affPool sync.Pool
	affSeq  atomic.Uint32

	leaseConflicts atomic.Uint64 // wait-die victims (ErrTxConflict issued)
	leaseRetries   atomic.Uint64 // automatic victim re-executions by Run
	releaseErrs    atomic.Uint64 // failed log releases (see ErrLogRelease)
	volatileAt     atomic.Uint64 // bump cursor for the volatile arena
}

// logState is the client's sharded log space once set up: the hidden
// pool owning log puddles, the on-media shard directories, and one
// volatile shard (latch + log-puddle cache) per directory. It is
// immutable after publication.
type logState struct {
	pool   *Pool // hidden pool owning log and log-space puddles
	space  *plog.ShardedLogSpace
	shards []*logShard
}

// logShard is the volatile side of one shard directory: its latch and
// its slice of the per-thread log-puddle cache (§4.1). A released log
// prefers parking where it registered, but releaseLog steals toward
// empty shards — each cache holds at most one parked log, which may
// be registered in a SIBLING directory (txLog.shard records where);
// in the steady state a worker whose affinity hint maps here keeps
// reusing the same directory and the same log.
type logShard struct {
	mu   sync.Mutex
	free []*txLog
}

// affinity is a worker-affine scheduling hint. It is not tied to a
// goroutine identity (Go exposes none); instead hints live in a
// sync.Pool, whose per-P caches hand a worker back the record it
// released last — scheduler-affine in the steady state, merely
// suboptimal (never wrong) after migration or GC. A transaction holds
// one hint from first log/heap use until commit/abort.
type affinity struct {
	shard uint32 // log-shard selector (stable per worker)
	id    uint64 // nonzero worker stamp for cache-record ownership

	// NUMA-style heap affinity: the heap this worker last leased
	// successfully, tried before the rotating-start probe. lastGen is
	// the range-index generation when the hint was noted: if the index
	// republished since (pool deleted/shrunk, puddle attached), the
	// hint is revalidated before use.
	lastPool *Pool
	lastHeap *alloc.Heap
	lastGen  uint64

	// Per-worker allocation cache: one parked slab per (pool, type,
	// class). Entries can die (donated, unparked, adopted away) at any
	// commit; users validate Live() and Owner() before trusting one.
	cache map[cacheKey]*alloc.CacheEntry
}

// cacheKey identifies one worker-cache slot.
type cacheKey struct {
	pool  *Pool
	tid   ptypes.TypeID
	class uint32
}

// getAffinity fetches a worker hint (fresh hints take the next shard
// stripe, spreading workers round-robin across shard directories).
func (c *Client) getAffinity() *affinity {
	if a, _ := c.affPool.Get().(*affinity); a != nil {
		return a
	}
	v := c.affSeq.Add(1)
	return &affinity{shard: v - 1, id: uint64(v)}
}

func (c *Client) putAffinity(a *affinity) {
	if a != nil {
		c.affPool.Put(a)
	}
}

// heapFor returns the remembered heap when it belongs to pool p and is
// still reachable through the live range index. Without the generation
// check a worker whose cached heap was detached (pool removed or
// shrunk) would retry the dead heap first on every allocation; when
// the index has republished since the hint was noted, the heap must
// still resolve to itself by address or the hint is dropped.
func (a *affinity) heapFor(c *Client, p *Pool) *alloc.Heap {
	if a.lastPool != p || a.lastHeap == nil {
		return nil
	}
	if gen := c.IndexGen(); gen != a.lastGen {
		if _, h, ok := c.heapAt(a.lastHeap.P.HeapBase()); !ok || h != a.lastHeap {
			a.lastPool, a.lastHeap = nil, nil
			return nil
		}
		a.lastGen = gen
	}
	return a.lastHeap
}

// note remembers a successful lease+allocation on h.
func (a *affinity) note(c *Client, p *Pool, h *alloc.Heap) {
	a.lastPool, a.lastHeap, a.lastGen = p, h, c.IndexGen()
}

// forget drops a remembered heap that stopped serving us (full).
func (a *affinity) forget(h *alloc.Heap) {
	if a.lastHeap == h {
		a.lastPool, a.lastHeap = nil, nil
	}
}

// heapRange indexes a mapped data puddle for address->heap lookups.
type heapRange struct {
	r    pmem.Range
	pool *Pool
	heap *alloc.Heap
}

// rangeIndex is one immutable snapshot of the address→heap index,
// sorted by range start. A snapshot is frozen at construction: the
// ranges slice must never be mutated after publication (mutators copy
// and swap; TestRangeIndexImmutable lints every write site). gen
// increments with each published snapshot so observers can tell
// whether the index changed across an operation.
type rangeIndex struct {
	gen    uint64
	ranges []heapRange
}

// lookup returns the entry owning addr, if any.
func (idx *rangeIndex) lookup(addr pmem.Addr) (*heapRange, bool) {
	if idx == nil {
		return nil, false
	}
	rs := idx.ranges
	i := sort.Search(len(rs), func(i int) bool { return rs[i].r.Start > addr })
	if i > 0 && rs[i-1].r.Contains(addr) {
		return &rs[i-1], true
	}
	return nil, false
}

// txLog is a cached per-transaction log (the paper's per-thread log
// puddle cache, §4.1 "every thread caches the log puddle"). shard is
// the directory the log is registered in — release returns it there.
type txLog struct {
	log   *plog.Log
	uuid  uid.UUID
	shard int
	// old is the before-image staging buffer of Tx.Add. A log has one
	// owner at a time and Append copies the image to media before it
	// returns, so the buffer is reused from one undo range to the next
	// and from one transaction to the next.
	old []byte
}

// maxKeptImage bounds the staging buffer a parked log keeps.
const maxKeptImage = 64 << 10

// beforeImage returns an n-byte buffer, valid until the next call.
func (l *txLog) beforeImage(n int) []byte {
	if n > maxKeptImage {
		return make([]byte, n)
	}
	if cap(l.old) < n {
		l.old = make([]byte, n)
	}
	return l.old[:n]
}

// Connect wraps an established daemon connection. dev must be the
// device the daemon manages (the DAX-mapping stand-in).
func Connect(conn *proto.Conn, dev *pmem.Device) *Client {
	c := &Client{
		types:   ptypes.NewRegistry(),
		imports: make(map[uint64]*importState),
		armed:   make(map[pmem.Addr]*importPud),
	}
	c.devP.Store(dev)
	c.tr.conn = conn
	c.volatileAt.Store(uint64(daemon.VolatileBase))
	return c
}

// device returns the device backing the current daemon connection.
func (c *Client) device() *pmem.Device { return c.devP.Load() }

// RegisterPeerDevice tells the client which device a peer daemon URL
// manages, so a pool-moved redirect to that daemon can swap the
// client's memory view along with its connection. Unregistered
// targets keep the current device (correct when every daemon shares
// one physical device, e.g. daemons over the same DAX mapping).
func (c *Client) RegisterPeerDevice(url string, dev *pmem.Device) {
	c.peersMu.Lock()
	if c.peers == nil {
		c.peers = make(map[string]*pmem.Device)
	}
	c.peers[url] = dev
	c.peersMu.Unlock()
}

// MovesFollowed reports how many pool-moved redirects this client has
// followed.
func (c *Client) MovesFollowed() uint64 { return c.moves.Load() }

// ConnectLocal boots an in-process connection to d.
func ConnectLocal(d *daemon.Daemon) *Client {
	return Connect(d.SelfConn(), d.Device())
}

// Hello presents credentials to the daemon (simulated SO_PEERCRED).
// The credentials also become what a reconnect re-presents in its
// handshake, so a client that dropped privileges doesn't silently
// regain them across a daemon restart; the daemon rebinds the session
// to them as well, so the session still resumes under the new
// credentials instead of failing the resume on a credential mismatch.
func (c *Client) Hello(uid, gid uint32) error {
	_, err := c.rt(&proto.Request{Op: proto.OpHello, UID: uid, GID: gid})
	if err == nil {
		c.tr.mu.Lock()
		c.tr.hello.UID, c.tr.hello.GID = uid, gid
		c.tr.mu.Unlock()
	}
	return err
}

// Nop performs a no-op round trip (daemon-primitive benchmarks, §5.1).
func (c *Client) Nop() error {
	_, err := c.rt(&proto.Request{Op: proto.OpNop})
	return err
}

// RoundTrip issues a raw protocol request (tools and benchmarks; the
// typed methods cover normal use).
func (c *Client) RoundTrip(req *proto.Request) (*proto.Response, error) {
	return c.rt(req)
}

// Stats fetches daemon counters.
func (c *Client) Stats() (proto.Stats, error) {
	resp, err := c.rt(&proto.Request{Op: proto.OpStat})
	if err != nil {
		return proto.Stats{}, err
	}
	return resp.Stats, nil
}

// Device exposes the underlying device for raw data access — puddles
// hold native pointers, so any code (PM-aware or not) can follow them.
func (c *Client) Device() *pmem.Device { return c.device() }

// Types returns the client's type-registry mirror.
func (c *Client) Types() *ptypes.Registry { return c.types }

// Close shuts the connection (and disables reconnection).
func (c *Client) Close() error {
	c.tr.closed.Store(true)
	return c.tr.current().Close()
}

// RegisterType registers a pointer map with the daemon and mirrors it
// locally (paper §4.2 "Pointer maps").
func (c *Client) RegisterType(name string, size uint32, ptrs []ptypes.PtrField) (ptypes.TypeInfo, error) {
	ti, err := c.types.Register(name, size, ptrs)
	if err != nil {
		return ptypes.TypeInfo{}, err
	}
	if _, err := c.rt(&proto.Request{Op: proto.OpRegisterType, Type: ti}); err != nil {
		return ptypes.TypeInfo{}, err
	}
	return ti, nil
}

// RegisterLayout derives a type's pointer map from a Go struct (fields
// of type ptypes.Ptr) and registers it.
func (c *Client) RegisterLayout(name string, sample any) (ptypes.TypeInfo, error) {
	size, ptrs, err := ptypes.Layout(name, sample)
	if err != nil {
		return ptypes.TypeInfo{}, err
	}
	return c.RegisterType(name, size, ptrs)
}

// MirrorTypes pulls every registered pointer map from the daemon into
// the local registry (used after opening pools created by others).
func (c *Client) MirrorTypes() error {
	resp, err := c.rt(&proto.Request{Op: proto.OpListTypes})
	if err != nil {
		return err
	}
	for _, ti := range resp.Types {
		if err := c.types.Put(ti); err != nil {
			return err
		}
	}
	return nil
}

// VolatileAlloc hands out space in the volatile arena — the "DRAM"
// region transactions may log with FlagVolatile entries (§4.1). Its
// contents are never recovered by the daemon. The cursor is a lock-
// free atomic bump, so concurrent transactions never serialize here.
func (c *Client) VolatileAlloc(size int) pmem.Addr {
	n := uint64((size + 7) &^ 7)
	return pmem.Addr(c.volatileAt.Add(n) - n)
}

// --- pools ---

// Pool is a named collection of puddles with a designated root puddle
// (paper §4.4). Objects allocate from any member puddle with space.
//
// Locking: mu guards membership only (root, member puddles, heaps,
// the puddle→heap map, import state). Allocation is routed to the
// per-heap locks and leases in internal/alloc, with a rotating start
// heap so concurrent allocators spread across member puddles instead
// of convoying on heap 0; growth (a daemon round trip) serializes on
// growMu so racing allocators don't double-grow the pool.
type Pool struct {
	c        *Client
	Name     string
	UUID     uid.UUID
	Writable bool

	mu        sync.Mutex
	root      *puddle.Puddle
	puddles   []*puddle.Puddle
	heaps     []*alloc.Heap
	heapByPud map[*puddle.Puddle]*alloc.Heap

	imported *importState // non-nil while a lazy import is in progress

	nextHeap atomic.Uint32
	growMu   sync.Mutex
}

// CreatePool creates a pool with the given UNIX-style mode (0 means
// 0o600) and maps its root puddle.
func (c *Client) CreatePool(name string, mode uint32) (*Pool, error) {
	resp, err := c.rt(&proto.Request{Op: proto.OpCreatePool, Name: name, Mode: mode})
	if err != nil {
		return nil, err
	}
	return c.buildPool(name, resp)
}

// OpenPool opens an existing pool, mapping its puddles.
func (c *Client) OpenPool(name string) (*Pool, error) {
	resp, err := c.rt(&proto.Request{Op: proto.OpOpenPool, Name: name})
	if err != nil {
		return nil, err
	}
	return c.buildPool(name, resp)
}

func (c *Client) buildPool(name string, resp *proto.Response) (*Pool, error) {
	p := &Pool{c: c, Name: name, UUID: resp.Pool, Writable: resp.Writable}
	for _, info := range resp.Puddles {
		pd, err := puddle.Open(c.device(), pmem.Addr(info.Addr))
		if err != nil {
			return nil, fmt.Errorf("core: mapping puddle %v: %w", info.UUID, err)
		}
		p.attach(pd)
		if info.UUID == resp.UUID {
			p.root = pd
		}
	}
	if p.root == nil {
		return nil, fmt.Errorf("core: pool %q root puddle missing from grant", name)
	}
	// Recovery hook for the worker allocation caches: a crash leaves
	// parked slabs on media with no live owner; fold them back into
	// the heaps before the pool serves traffic. Read-only opens must
	// not write — their orphans stay pending until a writable open.
	if resp.Writable {
		m := alloc.Direct{Dev: c.device()}
		reclaimed := 0
		for _, h := range p.snapshotHeaps() {
			reclaimed += h.ReclaimParked(m)
		}
		if reclaimed > 0 {
			c.device().NoteReclaimedSlabs(uint64(reclaimed))
		}
	}
	return p, nil
}

// attach maps a data puddle into the pool (heap scan, puddle→heap
// map, range index).
func (p *Pool) attach(pd *puddle.Puddle) {
	var h *alloc.Heap
	if pd.Kind() == puddle.KindData {
		h = alloc.NewHeap(pd)
	}
	p.mu.Lock()
	p.puddles = append(p.puddles, pd)
	if h != nil {
		p.heaps = append(p.heaps, h)
		if p.heapByPud == nil {
			p.heapByPud = make(map[*puddle.Puddle]*alloc.Heap)
		}
		p.heapByPud[pd] = h
	}
	p.mu.Unlock()
	if h != nil {
		p.c.indexHeap(pd.Range(), p, h)
	}
}

// indexHeap publishes a new index snapshot: given a pool and heap it
// inserts r (fresh sorted copy, next generation, swap); given nils it
// removes r (pool delete), bumping the generation so stale affinity
// hints revalidate. The old snapshot stays valid for readers
// mid-lookup.
func (c *Client) indexHeap(r pmem.Range, p *Pool, h *alloc.Heap) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	var (
		prev []heapRange
		gen  uint64 = 1
	)
	if old := c.rangeIdx.Load(); old != nil {
		prev = old.ranges
		gen = old.gen + 1
	}
	var next []heapRange
	if h == nil {
		next = make([]heapRange, 0, len(prev))
		for _, hr := range prev {
			if hr.r != r {
				next = append(next, hr)
			}
		}
		if len(next) == len(prev) {
			return // nothing removed: keep the published generation
		}
	} else {
		i := sort.Search(len(prev), func(i int) bool { return prev[i].r.Start >= r.Start })
		next = make([]heapRange, 0, len(prev)+1)
		next = append(next, prev[:i]...)
		next = append(next, heapRange{r: r, pool: p, heap: h})
		next = append(next, prev[i:]...)
	}
	c.rangeIdx.Store(&rangeIndex{gen: gen, ranges: next})
}

// heapAt returns the pool and heap owning addr. It is on the path of
// every transactional free and alloc bookkeeping lookup: one atomic
// load of the published snapshot plus a binary search — no locks, no
// shared-cacheline writes.
func (c *Client) heapAt(addr pmem.Addr) (*Pool, *alloc.Heap, bool) {
	if hr, ok := c.rangeIdx.Load().lookup(addr); ok {
		return hr.pool, hr.heap, true
	}
	return nil, nil, false
}

// IndexGen reports the generation of the published range index (0
// before the first heap is indexed). Tests use it to observe
// copy-on-write republication.
func (c *Client) IndexGen() uint64 {
	if idx := c.rangeIdx.Load(); idx != nil {
		return idx.gen
	}
	return 0
}

// Delete removes the pool from the daemon and drops its heaps from
// the client's address index, so stale worker-affinity hints can't
// keep steering allocations at the detached heaps.
func (p *Pool) Delete() error {
	if _, err := p.c.rt(&proto.Request{Op: proto.OpDeletePool, Name: p.Name}); err != nil {
		return err
	}
	p.mu.Lock()
	puds := make([]*puddle.Puddle, 0, len(p.heapByPud))
	for pd := range p.heapByPud {
		puds = append(puds, pd)
	}
	p.mu.Unlock()
	for _, pd := range puds {
		p.c.indexHeap(pd.Range(), nil, nil)
	}
	return nil
}

// Refresh re-resolves the pool against the (possibly new) daemon and
// rebuilds every member handle on the current device: after a live
// migration the pool's puddles live at new addresses on a new owner,
// and the rt gateway has already re-pointed the client there. Old
// index ranges are dropped first so stale affinity hints and cache
// entries can't steer writes at the abandoned copy.
func (p *Pool) Refresh() error {
	// growMu serializes concurrent refreshes (several transactions can
	// trip over the same move at once); each rebuild is idempotent, so
	// losers simply redo the work against the same grant.
	p.growMu.Lock()
	defer p.growMu.Unlock()
	resp, err := p.c.rt(&proto.Request{Op: proto.OpOpenPool, Name: p.Name})
	if err != nil {
		return err
	}
	p.mu.Lock()
	oldPuds := p.puddles
	p.mu.Unlock()
	for _, pd := range oldPuds {
		if pd.Kind() == puddle.KindData {
			p.c.indexHeap(pd.Range(), nil, nil)
		}
	}
	p.mu.Lock()
	p.puddles, p.heaps, p.heapByPud, p.root = nil, nil, nil, nil
	p.UUID = resp.Pool
	p.Writable = resp.Writable
	p.mu.Unlock()
	for _, info := range resp.Puddles {
		pd, err := puddle.Open(p.c.device(), pmem.Addr(info.Addr))
		if err != nil {
			return fmt.Errorf("core: re-mapping puddle %v: %w", info.UUID, err)
		}
		p.attach(pd)
		if info.UUID == resp.UUID {
			p.mu.Lock()
			p.root = pd
			p.mu.Unlock()
		}
	}
	p.mu.Lock()
	ok := p.root != nil
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: pool %q root puddle missing from refresh grant", p.Name)
	}
	// The migrated copy can carry parked cache slabs whose owners died
	// with the source daemon; fold them back in exactly like a fresh
	// writable open does.
	if resp.Writable {
		m := alloc.Direct{Dev: p.c.device()}
		reclaimed := 0
		for _, h := range p.snapshotHeaps() {
			reclaimed += h.ReclaimParked(m)
		}
		if reclaimed > 0 {
			p.c.device().NoteReclaimedSlabs(uint64(reclaimed))
		}
	}
	return nil
}

// ownsHeap reports whether h is currently one of the pool's member
// heaps. Cache entries and affinity hints can outlive a Refresh; this
// is the validity check that keeps them from allocating into a heap
// the pool no longer owns.
func (p *Pool) ownsHeap(h *alloc.Heap) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heapByPud != nil && h != nil && p.heapByPud[h.P] == h
}

// rootPuddle snapshots the pool's current root handle (nil only
// transiently while Refresh rebuilds membership).
func (p *Pool) rootPuddle() *puddle.Puddle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root
}

// Export serializes the pool into a relocatable container blob.
func (p *Pool) Export() ([]byte, error) {
	resp, err := p.c.rt(&proto.Request{Op: proto.OpExportPool, Name: p.Name})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// CreateRoot allocates the pool's root object at the fixed root offset
// of the root puddle (paper §4.5) and records its type. The root
// heap's lease serializes this against concurrent transactions (and a
// racing CreateRoot). It fails with ErrRootSlotTaken, allocating
// nothing, if an earlier allocation already occupies that offset.
func (p *Pool) CreateRoot(typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	if err := p.writableCheck(); err != nil {
		return 0, err
	}
	p.mu.Lock()
	root := p.root
	p.mu.Unlock()
	h := p.heapFor(root)
	if h == nil {
		return 0, fmt.Errorf("core: root puddle has no heap")
	}
	h.Lease()
	defer h.Unlease()
	if tid, _ := root.RootType(); tid != 0 {
		return 0, ErrHasRoot
	}
	m := alloc.Direct{Dev: p.c.device()}
	addr, err := h.AllocLarge(m, typeID, size)
	if err != nil {
		return 0, err
	}
	if addr != root.HeapBase()+alloc.ObjHdrSize {
		if err := h.Free(m, addr); err != nil {
			return 0, err
		}
		return 0, ErrRootSlotTaken
	}
	p.c.device().Zero(addr, int(size))
	p.c.device().Persist(addr, int(size))
	root.SetRootType(uint64(typeID), size)
	return addr, nil
}

// Root returns the address of the pool's root object.
func (p *Pool) Root() (pmem.Addr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tid, _ := p.root.RootType(); tid == 0 {
		return 0, ErrNoRoot
	}
	return p.root.HeapBase() + alloc.ObjHdrSize, nil
}

// RootPuddle returns the pool's root puddle handle.
func (p *Pool) RootPuddle() *puddle.Puddle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root
}

// heapFor resolves a member puddle to its heap via the puddle→heap
// map (O(1); this replaced a pair of nested linear scans).
func (p *Pool) heapFor(pd *puddle.Puddle) *alloc.Heap {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heapByPud[pd]
}

func (p *Pool) writableCheck() error {
	p.mu.Lock()
	imported := p.imported != nil
	writable := p.Writable
	p.mu.Unlock()
	if imported {
		return ErrImported
	}
	if !writable {
		return ErrReadOnly
	}
	return nil
}

// snapshotHeaps returns the current member heaps. The slice is a
// private copy; heaps are append-only so iterating it outside p.mu is
// safe.
func (p *Pool) snapshotHeaps() []*alloc.Heap {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*alloc.Heap, len(p.heaps))
	copy(out, p.heaps)
	return out
}

// rotation returns the starting heap offset for one allocation
// attempt, advancing the cursor so concurrent allocators start on
// different member heaps.
func (p *Pool) rotation() int { return int(p.nextHeap.Add(1) - 1) }

// Malloc allocates outside a transaction (setup paths). Contents are
// zeroed and persisted. Prefer Tx.Alloc inside transactions.
func (p *Pool) Malloc(typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	if err := p.writableCheck(); err != nil {
		return 0, err
	}
	return p.allocDirect(typeID, size, true)
}

// allocDirect allocates outside any transaction. The worker's
// remembered heap is tried first (NUMA-style affinity: the heap this
// worker last leased is warm and, with per-worker convergence, likely
// uncontended), then heaps are tried from a rotating start; each
// attempt briefly takes the heap's lease, so a direct allocation can
// never interleave with an in-flight transaction's undo-logged
// metadata on the same heap. Heaps whose lease another transaction
// holds are skipped, never waited on — a Malloc must not convoy
// behind (or deadlock with) a long-running transaction when a sibling
// heap can serve it.
func (p *Pool) allocDirect(typeID ptypes.TypeID, size uint32, zero bool) (pmem.Addr, error) {
	m := alloc.Direct{Dev: p.c.device()}
	finish := func(a pmem.Addr) pmem.Addr {
		if zero {
			p.c.device().Zero(a, int(size))
			p.c.device().Persist(a, int(size))
		}
		return a
	}
	aff := p.c.getAffinity()
	defer p.c.putAffinity(aff)
	if h := aff.heapFor(p.c, p); h != nil && h.TryLease() {
		a, err := h.Alloc(m, typeID, size)
		h.Unlease()
		if err == nil {
			return finish(a), nil
		}
		if err != alloc.ErrNoSpace && err != alloc.ErrTooLarge {
			return 0, err
		}
		aff.forget(h)
	}
	for {
		heaps := p.snapshotHeaps()
		start := p.rotation()
		for i := range heaps {
			h := heaps[(start+i)%len(heaps)]
			if !h.TryLease() {
				continue // owned by an in-flight transaction
			}
			a, err := h.Alloc(m, typeID, size)
			h.Unlease()
			if err == nil {
				aff.note(p.c, p, h)
				return finish(a), nil
			}
			if err != alloc.ErrNoSpace && err != alloc.ErrTooLarge {
				return 0, err
			}
		}
		// Pools automatically acquire new memory (paper §3.1).
		grown, err := p.grow(len(heaps), size)
		if err != nil {
			return 0, err
		}
		if grown == nil || !grown.TryLease() {
			continue // racing allocator grew (or stole the new heap)
		}
		// An allocation that fails on a puddle grown for it can never
		// succeed: return that error rather than growing forever.
		a, err := grown.Alloc(m, typeID, size)
		grown.Unlease()
		if err != nil {
			return 0, err
		}
		aff.note(p.c, p, grown)
		return finish(a), nil
	}
}

// grow adds a data puddle to the pool unless another allocator
// already did (heapsSeen is the member count the caller last
// observed; nil is returned in that case and the caller retries).
// Growth serializes on growMu, never on p.mu, so the daemon round
// trip blocks no address lookups or sibling-heap allocations.
func (p *Pool) grow(heapsSeen int, size uint32) (*alloc.Heap, error) {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	p.mu.Lock()
	n := len(p.heaps)
	p.mu.Unlock()
	if n > heapsSeen {
		return nil, nil
	}
	need := uint64(puddle.DefaultSize)
	for need < uint64(size)*2+puddle.BlockSize {
		need *= 2
	}
	pd, err := p.acquirePuddle(need)
	if err != nil {
		return nil, err
	}
	return p.heapFor(pd), nil
}

func (p *Pool) acquirePuddle(size uint64) (*puddle.Puddle, error) {
	resp, err := p.c.rt(&proto.Request{
		Op: proto.OpGetNewPuddle, Pool: p.UUID, Size: size, Kind: uint64(puddle.KindData),
	})
	if err != nil {
		return nil, err
	}
	pd, err := puddle.Open(p.c.device(), pmem.Addr(resp.Addr))
	if err != nil {
		return nil, err
	}
	p.attach(pd)
	return pd, nil
}

// Free releases an object outside a transaction, holding the owning
// heap's lease for the duration. Unlike allocation it cannot pick a
// different heap, so it waits for any in-flight transaction that owns
// this one — do not call it from a goroutine that is itself
// mid-transaction on the same heap (use Tx.Free there).
func (p *Pool) Free(addr pmem.Addr) error {
	if err := p.writableCheck(); err != nil {
		return err
	}
	_, h, ok := p.c.heapAt(addr)
	if !ok {
		return alloc.ErrBadFree
	}
	m := alloc.Direct{Dev: p.c.device()}
	// The object may sit in a slab parked in some worker's allocation
	// cache: free through the owning entry then (entry lease, not heap
	// lease). The entry can die — or the slab park — between lookup
	// and lease, so both paths revalidate and retry; the loop is
	// bounded because each park/unpark transition needs a full foreign
	// commit in between.
	for attempt := 0; attempt < 4; attempt++ {
		if e := h.ParkedAt(addr); e != nil {
			e.Lease()
			if !e.Live() {
				e.Unlease()
				continue
			}
			err := e.Free(m, addr)
			e.Unlease()
			return err
		}
		h.Lease()
		err := h.Free(m, addr)
		h.Unlease()
		if err != alloc.ErrParked {
			return err
		}
	}
	return alloc.ErrParked
}

// Puddles returns the pool's member puddle handles.
func (p *Pool) Puddles() []*puddle.Puddle {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*puddle.Puddle, len(p.puddles))
	copy(out, p.puddles)
	return out
}

// Heaps returns the pool's member heaps (diagnostics and tests).
func (p *Pool) Heaps() []*alloc.Heap { return p.snapshotHeaps() }

// LiveObjects sums live allocations across member heaps.
func (p *Pool) LiveObjects() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, h := range p.heaps {
		n += h.LiveObjects()
	}
	return n
}

// --- transaction log acquisition (paper §4.1) ---

// SetLogShards fixes the number of shard directories the client's log
// space stripes registrations over. It must be called before the
// first transaction (the directory geometry is persistent); 0
// restores the default of min(GOMAXPROCS, 8).
func (c *Client) SetLogShards(n int) error {
	if n < 0 || n > plog.MaxLogShards {
		return fmt.Errorf("core: log shard count %d out of range [0,%d]", n, plog.MaxLogShards)
	}
	c.logInitMu.Lock()
	defer c.logInitMu.Unlock()
	if c.logSt.Load() != nil {
		return errors.New("core: log space already initialized (call SetLogShards before the first transaction)")
	}
	c.logShardsWant = n
	return nil
}

// LogShards reports the number of shard directories in use (0 before
// the first transaction initializes the log space).
func (c *Client) LogShards() int {
	if st := c.logSt.Load(); st != nil {
		return len(st.shards)
	}
	return 0
}

// ensureLogSpace lazily creates the client's hidden log pool, formats
// a sharded log-space puddle and registers it (with its shard count)
// with the daemon. This is the one-time setup cost of application-
// independent recovery (§3.3). Concurrent first transactions
// serialize on logInitMu here exactly once; afterwards the published
// state loads with a single atomic read.
func (c *Client) ensureLogSpace() (*logState, error) {
	if st := c.logSt.Load(); st != nil {
		return st, nil
	}
	c.logInitMu.Lock()
	defer c.logInitMu.Unlock()
	if st := c.logSt.Load(); st != nil {
		return st, nil
	}
	shards := c.logShardsWant
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > maxDefaultLogShards {
			shards = maxDefaultLogShards
		}
	}
	name := ".logs-" + uid.New().String()
	resp, err := c.rt(&proto.Request{Op: proto.OpCreatePool, Name: name, Mode: 0o600})
	if err != nil {
		return nil, err
	}
	// The hidden pool exists on the daemon from here; a failed setup
	// deletes it (pool, puddles and any log-space registration go in
	// one atomic daemon op) so retries don't accumulate orphans.
	fail := func(err error) (*logState, error) {
		_, _ = c.rt(&proto.Request{Op: proto.OpDeletePool, Name: name})
		return nil, err
	}
	lp := &Pool{c: c, Name: name, UUID: resp.Pool, Writable: true}
	rootPd, err := puddle.Open(c.device(), pmem.Addr(resp.Addr))
	if err != nil {
		return fail(err)
	}
	lp.root = rootPd
	lp.puddles = append(lp.puddles, rootPd)
	// Size the directory puddle to its shard count: one page of slots
	// per shard.
	lsResp, err := c.rt(&proto.Request{
		Op: proto.OpGetNewPuddle, Pool: lp.UUID, Size: plog.SpaceSize(shards), Kind: uint64(puddle.KindLogSpace),
	})
	if err != nil {
		return fail(err)
	}
	lsPd, err := puddle.Open(c.device(), pmem.Addr(lsResp.Addr))
	if err != nil {
		return fail(err)
	}
	space, err := plog.FormatShardedLogSpace(lsPd, shards)
	if err != nil {
		return fail(err)
	}
	if _, err := c.rt(&proto.Request{
		Op: proto.OpRegLogSpace, UUID: lsResp.UUID, Shards: uint32(shards),
	}); err != nil {
		return fail(err)
	}
	st := &logState{pool: lp, space: space, shards: make([]*logShard, shards)}
	for i := range st.shards {
		st.shards[i] = &logShard{}
	}
	c.logSt.Store(st)
	return st, nil
}

// SetLogCache toggles per-thread log-puddle caching (paper §4.1).
// Disabling it is an ablation: every transaction then allocates a
// fresh log puddle and registers it with the daemon.
func (c *Client) SetLogCache(enabled bool) {
	c.logCacheOff.Store(!enabled)
}

// acquireLog returns a cached or fresh registered log from the shard
// directory the worker hint selects. With N concurrent workers the
// caches reach a steady state of one log per worker, each parked in
// its worker's shard — the paper's per-thread log-puddle cache with
// no cross-worker latch contention. The daemon round trips for a
// fresh log run outside every shard latch; if the selected directory
// is out of slots, registration falls back to sibling shards.
func (c *Client) acquireLog(hint uint32) (*txLog, error) {
	st, err := c.ensureLogSpace()
	if err != nil {
		return nil, err
	}
	si := int(hint % uint32(len(st.shards)))
	if !c.logCacheOff.Load() {
		// Home shard first, then siblings — mirroring the registration
		// fallback below, so a worker never allocates a fresh log
		// puddle while a reusable one sits cached one shard over (each
		// sibling latch is taken briefly and one at a time).
		for k := 0; k < len(st.shards); k++ {
			sh := st.shards[(si+k)%len(st.shards)]
			sh.mu.Lock()
			if n := len(sh.free); n > 0 {
				l := sh.free[n-1]
				sh.free = sh.free[:n-1]
				sh.mu.Unlock()
				return l, nil
			}
			sh.mu.Unlock()
		}
	}
	region, id, err := c.newLogRegion(st, LogPuddleSize)
	if err != nil {
		return nil, err
	}
	// From here the log puddle exists on the daemon; if registration
	// cannot succeed, free it rather than orphaning 2 MiB per failed
	// acquisition (best effort — a failed free only costs space).
	fail := func(err error) (*txLog, error) {
		_, _ = c.rt(&proto.Request{Op: proto.OpFreePuddle, UUID: id})
		return nil, err
	}
	l, err := plog.FormatLog(c.device(), region)
	if err != nil {
		return fail(err)
	}
	for k := 0; k < len(st.shards); k++ {
		j := (si + k) % len(st.shards)
		sh := st.shards[j]
		sh.mu.Lock()
		err = st.space.AddLog(j, l.Head(), id)
		sh.mu.Unlock()
		if err == nil {
			return &txLog{log: l, uuid: id, shard: j}, nil
		}
		if err != plog.ErrLogSpaceFull {
			return fail(err)
		}
	}
	return fail(plog.ErrLogSpaceFull)
}

// newLogRegion allocates a log puddle and returns its heap range.
func (c *Client) newLogRegion(st *logState, size uint64) (pmem.Range, uid.UUID, error) {
	resp, err := c.rt(&proto.Request{
		Op: proto.OpGetNewPuddle, Pool: st.pool.UUID, Size: size, Kind: uint64(puddle.KindLog),
	})
	if err != nil {
		return pmem.Range{}, uid.Nil, err
	}
	pd, err := puddle.Open(c.device(), pmem.Addr(resp.Addr))
	if err != nil {
		return pmem.Range{}, uid.Nil, err
	}
	return pmem.Range{Start: pd.HeapBase(), End: pd.HeapBase() + pmem.Addr(pd.HeapSize())}, resp.UUID, nil
}

// releaseLog parks a log back in a shard cache (or, with caching
// ablated, unregisters and frees its puddle). A failure to free the
// puddle is surfaced as an error wrapping ErrLogRelease and counted
// in ReleaseErrors; the transaction's outcome is unaffected.
//
// Parking steals toward an empty shard: the log's registration home
// first, otherwise the first shard whose cache is empty. The worker
// hints are scheduler-approximate — a migrated goroutine (or a
// sync.Pool GC) can rotate a worker onto a new shard, and before
// stealing, the logs such a worker abandoned piled up behind one
// latch while its new home allocated fresh ones, so the registered
// log population crept past the worker count and never shrank.
// Stealing spreads the parked logs one per shard (where the next
// under-served worker's sibling scan in acquireLog finds them), and a
// release that finds EVERY cache occupied is surplus to the steady
// state — that log is unregistered and its puddle freed. Steady
// state is exactly one cached log per worker, for up to LogShards()
// workers; beyond that the cache plateaus at one per shard.
func (c *Client) releaseLog(l *txLog) error {
	st := c.logSt.Load() // l exists, so the state is published
	if c.logCacheOff.Load() {
		return c.unregisterLog(st, l)
	}
	for k := 0; k < len(st.shards); k++ {
		sh := st.shards[(l.shard+k)%len(st.shards)]
		sh.mu.Lock()
		if len(sh.free) == 0 {
			sh.free = append(sh.free, l)
			sh.mu.Unlock()
			return nil
		}
		sh.mu.Unlock()
	}
	return c.unregisterLog(st, l) // every cache occupied: surplus log
}

// unregisterLog removes a log from its shard directory and frees its
// puddle (cache ablation, and surplus trimming in releaseLog).
func (c *Client) unregisterLog(st *logState, l *txLog) error {
	sh := st.shards[l.shard]
	sh.mu.Lock()
	removed := st.space.RemoveLog(l.shard, l.log.Head())
	sh.mu.Unlock()
	var err error
	if !removed {
		err = fmt.Errorf("log %v missing from log space shard %d", l.uuid, l.shard)
	}
	if _, rtErr := c.rt(&proto.Request{Op: proto.OpFreePuddle, UUID: l.uuid}); rtErr != nil && err == nil {
		err = rtErr
	}
	if err != nil {
		c.releaseErrs.Add(1)
		return fmt.Errorf("%w: %w", ErrLogRelease, err)
	}
	return nil
}

// CachedLogs reports how many transaction logs are parked across the
// per-shard caches (the cached-log census: steady state is one per
// active worker, capped at LogShards()).
func (c *Client) CachedLogs() int { return len(c.CachedLogHeads()) }

// CachedLogHeads returns the head-segment addresses of the parked
// logs, the ones the next transactions will reuse. Crash tests open
// them after a reboot to see what state the protocol left a log in.
func (c *Client) CachedLogHeads() []pmem.Addr {
	st := c.logSt.Load()
	if st == nil {
		return nil
	}
	var heads []pmem.Addr
	for _, sh := range st.shards {
		sh.mu.Lock()
		for _, l := range sh.free {
			heads = append(heads, l.log.Head())
		}
		sh.mu.Unlock()
	}
	return heads
}

// ReleaseErrors reports how many transaction-log releases have failed
// since the client connected (see ErrLogRelease).
func (c *Client) ReleaseErrors() uint64 { return c.releaseErrs.Load() }

// LeaseConflicts reports how many transactions died as wait-die
// victims (ErrTxConflict) since the client connected.
func (c *Client) LeaseConflicts() uint64 { return c.leaseConflicts.Load() }

// LeaseRetries reports how many victim transactions Client.Run has
// transparently re-executed since the client connected.
func (c *Client) LeaseRetries() uint64 { return c.leaseRetries.Load() }
